"""Replication engine: determinism, exact merging, statistics, tables."""

import math

import numpy as np
import pytest

from tailrisk.errors import ValidationError
from tailrisk.estimators import EstimatorKind, make_context, make_engine
from tailrisk.harness import (CSV_COLUMNS, attach_efficiency, compare,
                              resolve_threads, run, run_replications,
                              table_csv, table_markdown, table_text,
                              variance_trend)
from conftest import two_risk_model


def test_run_trivial_cmc():
    m = two_risk_model()
    stats = run(m, 0.0, "cmc", 1000, seed=1)
    assert stats.mean == 1.0
    assert stats.per_rep_std == 0.0
    assert stats.cv == 0.0
    assert stats.n == 1000


def test_run_requires_two_reps():
    with pytest.raises(ValidationError):
        run(two_risk_model(), 1.0, "cmc", 1, seed=1)


def test_thread_count_invariance():
    m = two_risk_model(rho=0.4)
    a = run(m, 12.0, "mak", 20_000, seed=42, threads=1)
    b = run(m, 12.0, "mak", 20_000, seed=42, threads=4)
    assert a.mean == b.mean
    assert a.per_rep_std == b.per_rep_std
    c = run(m, 12.0, "rn", 20_000, seed=42, threads=3)
    d_ = run(m, 12.0, "rn", 20_000, seed=42, threads=1)
    assert c.mean == d_.mean and c.per_rep_std == d_.per_rep_std


def test_merge_of_halves_equals_full_run():
    m = two_risk_model(rho=0.4)
    ctx = make_context(m, 12.0)
    engine = make_engine(ctx, EstimatorKind("mak"))
    n = 20_000
    full = run_replications(engine, n, seed=7)
    # stream (= block) boundaries: the merged part lists coincide with the
    # full run's, so sums and sums of squares are bit-identical
    for cut in (4096, 8192):
        first = run_replications(engine, cut, seed=7)
        second = run_replications(engine, n - cut, seed=7, rep_lo=cut)
        merged = first.merge(second)
        assert merged.n == full.n
        assert merged.total == full.total
        assert math.fsum(merged.sumsqs) == math.fsum(full.sumsqs)
        mm, mv = merged.mean_var()
        fm, fv = full.mean_var()
        assert mm == fm and mv == fv
    # cuts inside a block still reproduce per-replication values exactly;
    # only the partial-block summation tree differs (sub-ulp)
    for cut in (10_000, 13_000):
        first = run_replications(engine, cut, seed=7)
        second = run_replications(engine, n - cut, seed=7, rep_lo=cut)
        merged = first.merge(second)
        mm, mv = merged.mean_var()
        fm, fv = full.mean_var()
        assert mm == pytest.approx(fm, rel=1e-13)
        assert mv == pytest.approx(fv, rel=1e-12)


def test_se_of_mean_shrinks_like_sqrt_n():
    m = two_risk_model(rho=0.3)
    a = run(m, 10.0, "mak", 10_000, seed=3)
    b = run(m, 10.0, "mak", 40_000, seed=3)
    assert b.se_of_mean == pytest.approx(a.se_of_mean / 2.0, rel=0.20)


def test_efficiency_of_cmc_is_exactly_one():
    m = two_risk_model()
    rows = compare(m, [0.0], [10.0], ["cmc", "mak"], n=20_000, seed=5,
                   cmc_n=50_000)
    by_name = {r.stats.estimator: r.stats for r in rows}
    assert by_name["CMC"].efficiency == 1.0
    assert by_name["MAK"].efficiency is not None
    assert by_name["MAK"].efficiency > 1.0     # conditional beats crude here
    assert by_name["CMC"].n == 50_000 and by_name["MAK"].n == 20_000


def test_compare_empty_estimator_list():
    assert compare(two_risk_model(), [0.0], [10.0], [], n=100, seed=1) == []


def test_compare_accepts_matrix_correlation():
    m = two_risk_model()
    sigma = np.array([[1.0, 0.25], [0.25, 1.0]])
    rows = compare(m, [sigma], [10.0], ["cmc"], n=5_000, seed=4)
    assert rows[0].rho_label == "custom"
    assert 0.0 < rows[0].stats.mean < 1.0


def test_variance_trend_on_benchmark_model():
    from tailrisk.model import reference_model
    rep = variance_trend(reference_model(0.0), "mak", [2e4, 4e4, 5e5],
                         n=20_000, seed=17)
    assert rep.decreasing
    assert rep.cv[-1] < 0.01
    assert rep.slope_loglog < 0.0


def test_failure_budget_aborts_run():
    from tailrisk.errors import NumericalAbortError
    from tailrisk.estimators import BlockResult

    def leaky_engine(gen, mb):
        # pretends every block needed many redraws
        return BlockResult(np.zeros(mb), mb // 2, 0)

    with pytest.raises(NumericalAbortError, match="budget"):
        run_replications(leaky_engine, 10_000, seed=1)


def test_run_rejects_context_for_another_model_or_threshold():
    m = two_risk_model()
    ctx = make_context(m, 10.0)
    with pytest.raises(ValidationError, match="another model or threshold"):
        run(m, 12.0, "mak", 100, seed=1, ctx=ctx)
    with pytest.raises(ValidationError, match="another model or threshold"):
        run(two_risk_model(), 10.0, "mak", 100, seed=1, ctx=ctx)
    assert run(m, 10.0, "mak", 100, seed=1, ctx=ctx).u == 10.0


@pytest.mark.parametrize("name", ["ak", "mak", "rn", "zr"])
def test_stratified_engines_reject_extreme_threshold(name):
    from tailrisk.errors import ThresholdTooExtremeError
    ctx = make_context(two_risk_model(), 1e250)
    with pytest.raises(ThresholdTooExtremeError):
        make_engine(ctx, EstimatorKind(name))


def test_variance_trend_flat_for_degenerate():
    m = two_risk_model()
    rep = variance_trend(m, "cmc", [1e-6, 1e-5, 1e-4], n=2_000, seed=11)
    assert rep.cv == (0.0, 0.0, 0.0)
    assert rep.slope_logloglog == 0.0
    with pytest.raises(ValidationError):
        variance_trend(m, "cmc", [10.0], n=100, seed=1)


def test_table_formats_and_stability():
    m = two_risk_model()
    rows = compare(m, [0.0], [10.0], ["cmc", "mak"], n=5_000, seed=5)
    rows2 = compare(m, [0.0], [10.0], ["cmc", "mak"], n=5_000, seed=5)
    csv1, csv2 = table_csv(rows), table_csv(rows2)
    stable = [",".join(line.split(",")[:7]) for line in csv1.splitlines()]
    stable2 = [",".join(line.split(",")[:7]) for line in csv2.splitlines()]
    assert stable == stable2        # identical seed: byte-identical stable cols
    header = csv1.splitlines()[0].split(",")
    assert tuple(header) == CSV_COLUMNS
    md = table_markdown(rows)
    assert md.startswith("| rho |") or md.startswith("| " + CSV_COLUMNS[0])
    txt = table_text(rows)
    assert txt.splitlines()[0].split()[:3] == ["rho", "u", "method"]


def test_resolve_threads(monkeypatch):
    assert resolve_threads(3) == 3
    monkeypatch.setenv("TAILRISK_THREADS", "2")
    assert resolve_threads(None) == 2
    assert resolve_threads("auto") == 2
    monkeypatch.delenv("TAILRISK_THREADS")
    assert resolve_threads("auto") >= 1
    assert resolve_threads(" 2 ") == 2
    for bad in (0, -1, "two", 2.5):
        with pytest.raises(ValidationError):
            resolve_threads(bad)
    # the environment variable is parsed by the same rule as the argument
    for bad in ("0", "two", "-1", "1.5"):
        monkeypatch.setenv("TAILRISK_THREADS", bad)
        with pytest.raises(ValidationError):
            resolve_threads("auto")
    monkeypatch.setenv("TAILRISK_THREADS", "auto")
    assert resolve_threads(None) >= 1
    monkeypatch.setenv("TAILRISK_THREADS", "3")
    assert resolve_threads(4) == 4     # an explicit count wins over the variable


def test_attach_efficiency_zero_variance():
    m = two_risk_model()
    base = run(m, 10.0, "cmc", 10_000, seed=2)
    degenerate = run(m, 0.0, "cmc", 10_000, seed=2)
    out = attach_efficiency(degenerate, base)
    assert out.efficiency == math.inf
