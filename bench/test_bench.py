"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tailrisk import estimators, harness, randsrc, rootfind, tails  # noqa: E402
from workloads import Cell, RunResult, Workload  # noqa: E402

MODS = SimpleNamespace(estimators=estimators, harness=harness, randsrc=randsrc,
                       tails=tails, workloads=workloads)


def test_tracing_is_transparent_and_counts_every_layer():
    wl = Workload("mini", (Cell(0.4, 2e4, workloads.ESTIMATORS),
                           Cell(0.4, 2e4, ("cmc", "ak", "zr", "rn"), radial_p=1.5)),
                  "1", {"cmc": 40960, "ak": 4096, "mak": 4096, "rn": 4096, "zr": 4096})
    contexts = workloads.build_contexts(wl, workloads.build_models(wl))
    plain = run.run_pass(wl, contexts, 3, 0, 1, workloads, harness)

    tracer = tracing.Tracer(MODS)
    traced_ctx = [replace(c, model=replace(c.model, radial=tracer.radial(c.model.radial)))
                  for c in contexts]
    with tracer:
        # more workers than cores: per-thread aggregation must lose nothing
        traced = run.run_pass(wl, traced_ctx, 3, 0, 3, workloads, harness)

    assert [(r.mean, r.std) for r in traced] == [(r.mean, r.std) for r in plain]
    assert not any(r.failed for r in plain + traced)
    assert estimators.exceedance_bounds is rootfind.exceedance_bounds
    assert harness.make_engine is estimators.make_engine

    m = tracing.pass_layer_metrics(tracer, solver_reps=5 * 4096)
    blocks = 2 * (10 + 3) + 1          # 10-block CMC runs plus one block per other run
    assert m["randsrc.blocks"] == blocks and len(tracer.blocks) == blocks
    assert m["rootfind.rows"] == 5 * 4096 and m["rootfind.rows_per_rep"] == 1.0
    assert m["tails.marginal_tail_single.calls"] == 4096
    assert m["tails.radial_quantile.calls"] == 10 * 4096
    assert m["rootfind.share.cmc"] == 0.0 and m["rootfind.share.ak"] == 0.0
    assert 0.0 < m["rootfind.share.mak"] < 1.0
    assert m["randsrc.draws"] > 0 and m["tails.normal_tail.s"] > 0.0


def test_row_classes_on_a_hand_built_batch():
    ninf = -np.inf
    rows = [  # (log-coefficients, slopes, level)
        ([0.0, ninf], [1.0, 0.0], 2.0),                    # one increasing term
        ([0.0, 0.0], [1.0, 2.0], 2.0),                     # increasing
        ([0.0, 0.0], [-1.0, -2.0], 2.0),                   # decreasing
        ([0.0, 0.0], [1.0, -1.0], 3.0),                    # mixed, dips below
        ([np.log(2.0)] * 2, [1.0, -1.0], 3.0),             # mixed, whole line
        ([np.log(5.0), 0.0], [0.0, 1.0], 3.0),             # constant swallows level
        ([0.0, ninf], [0.0, 0.0], 3.0),                    # constant below: empty
        ([0.0, ninf], [-2.0, 1.0], 2.0),                   # one decreasing term
    ]
    logc = np.array([r[0] for r in rows])
    slopes = np.array([r[1] for r in rows])
    level = np.log([r[2] for r in rows])
    lo, hi, ok = rootfind.exceedance_bounds(logc, slopes, level)
    got = tracing.row_classes(logc, slopes, lo, hi, ok)
    assert got == {"rows": 8, "rows_single_term": 2, "rows_inc": 2, "rows_dec": 2,
                   "rows_mixed": 2, "rows_whole": 2, "rows_empty": 1,
                   "rows_not_ok": 0}
    ok[[1, 3]] = False
    assert tracing.row_classes(logc, slopes, lo, hi, ok)["rows_not_ok"] == 2


def test_percentile_keeps_ten_samples_beyond():
    for n in range(0, 260):
        xs = list(np.random.default_rng(n).permutation(n) * 1.5)
        for q in (50, 90, 99):
            v = tracing.percentile(xs, q)
            if v is not None:
                assert sum(x > v for x in xs) >= 10
                assert sum(x <= v for x in xs) >= q / 100 * n
            else:
                assert n - math.ceil(q / 100 * n) < 10
    assert tracing.percentile(range(100), 90) == 89
    assert tracing.percentile(range(99), 90) is None


def test_union_length():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4


def _result(est, mean, se, n=16384, cell_index=0):
    return RunResult(cell_index, est, n, 0, mean=mean, std=se * math.sqrt(n), se=se)


def test_gate_allows_reference_rounding_only():
    wl = workloads.WORKLOADS["desk-1t"]
    ref = wl.cells[0].reference                       # 0.00102
    h = workloads.rounding_halfwidth(ref)
    assert h == 5e-6
    ok = [_result("mak", ref + 0.99 * h, 1e-9)]
    workloads.check_pass(wl, ok)
    assert not ok[0].failed
    bad = [_result("mak", ref + h + 6e-9, 1e-9)]
    workloads.check_pass(wl, bad)
    assert bad[0].failed
    # ak is not checked under dependence (cell 2 is rho = 0.4)
    biased = [_result("ak", 0.5 * ref, 1e-9, cell_index=2)]
    workloads.check_pass(wl, biased)
    assert not biased[0].failed
    n = wl.reps["cmc"]
    hits = [_result("cmc", k / n, 0.0, n=n, cell_index=1) for k in (0, 30)]
    for r in hits:
        workloads.check_pass(wl, [r])
    assert [r.failed for r in hits] == [False, True]


def test_gate_on_the_elliptical_cell():
    wl = workloads.WORKLOADS["elliptical-1t"]
    agree = [_result("rn", 3.46e-6, 5e-8), _result("zr", 3.9e-6, 7e-7),
             _result("cmc", 0.0, 0.0, n=81920)]
    workloads.check_pass(wl, agree)
    assert not any(r.failed for r in agree)
    apart = [_result("rn", 3.46e-6, 5e-8), _result("zr", 9e-6, 7e-7),
             _result("cmc", 10 / 81920, 0.0, n=81920)]
    workloads.check_pass(wl, apart)
    assert all(r.failed for r in apart)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_METRICS
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == tracing.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
