"""Desk-grid benchmark of tailrisk: end-to-end cost per estimator.

    python3 bench/run.py --workload desk-1t --seed 1 --seconds 45 --trace 0

Runs one workload (see ``workloads.WORKLOADS``) in passes over its cells for
``--seconds`` seconds, checks every estimate, and prints two JSON lines: a
record of what ran (environment, estimates, failures) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` replays the first pass with the layer
wrappers of ``tracing.py`` installed and reports the per-layer split.
"""

import os

# one BLAS thread: the harness's own pool is the only parallelism measured
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TAILRISK_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 5           # cold set-ups per run; setup_s is their median
MIN_PASSES = 3
HARD_LIMIT_S = 140.0       # start no pass after this, so a run ends within 180 s
MIN_TRACED_BLOCKS = 100    # enough blocks for a p90 with ten above it

E2E_METRICS = {            # name -> unit
    "setup_s": "s", "wall_s": "s",
    "cmc_s_per_5e5": "s", "ak_s_per_5e5": "s", "mak_s_per_5e5": "s",
    "rn_s_per_5e5": "s", "zr_s_per_5e5": "s",
    "mak_t1pct_s": "s", "rn_t1pct_s": "s",
    "peak_rss_mb": "MB",
}
# zr_t1pct_s is computed too but reported in the record line only: zr's
# replications are heavy-tailed (cv 10-30), so its cv^2 from one run's
# replications differs by about 25% from seed to seed, more than any bound
# a regression gate can use


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()
                    and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args, threads: int, nproc: int) -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "cpu": cpu_model(),
            "blas_threads": blas_threads(), "commit": git_commit(),
            "seed": args.seed, "workload": args.workload, "threads": threads,
            "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------

def setup_probes(workload: str, k: int) -> list[dict]:
    """``k`` cold set-ups, each in a fresh interpreter, timed from spawn."""
    out = []
    for _ in range(k):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "setup_probe.py"), workload],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            total = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        out.append({"total_s": total, **json.loads(line)})
    return out


def run_pass(wl, contexts, seed: int, pass_index: int, threads: int, workloads, harness):
    """One run of every (cell, estimator) of the workload, checked."""
    results = []
    for ci, (cell, ctx) in enumerate(zip(wl.cells, contexts)):
        for est in cell.estimators:
            r = workloads.RunResult(ci, est, wl.reps[est],
                                    workloads.run_seed(seed, pass_index, ci, est))
            t0 = time.perf_counter()
            try:
                st = harness.run(ctx.model, cell.u, est, r.n, r.seed,
                                 threads=threads, ctx=ctx)
            except Exception as exc:   # a failed run is counted, not fatal
                r.wall = time.perf_counter() - t0
                r.error = f"{type(exc).__name__}: {exc}"
            else:
                r.mean, r.std, r.se = st.mean, st.per_rep_std, st.se_of_mean
                r.wall, r.flags = st.wall_time, st.flags
            results.append(r)
    workloads.check_pass(wl, results)
    return results


def require_identical(reference, results, what: str) -> None:
    """Fail every run whose estimate differs in any bit from the reference's."""
    for a, b in zip(reference, results):
        if b.error is None and (a.error is not None or (a.mean, a.std) != (b.mean, b.std)):
            b.check = b.check or (f"{what}: mean {b.mean!r} std {b.std!r} vs "
                                  f"{a.mean!r} {a.std!r}")


def _finite(x):
    return x if math.isfinite(x) else None


def digest(results) -> str:
    text = ";".join(f"{r.cell_index}/{r.est}:{r.mean!r}:{r.std!r}" for r in results)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed_passes(wl, contexts, args, threads, t_start, mods):
    """Passes, each on its own seeds, until ``--seconds`` is spent (at least
    ``MIN_PASSES``)."""
    passes, walls = [], []
    t0 = time.perf_counter()
    while True:
        tp = time.perf_counter()
        passes.append(run_pass(wl, contexts, args.seed, len(passes), threads,
                               mods.workloads, mods.harness))
        walls.append(time.perf_counter() - tp)
        now = time.perf_counter()
        # stop at the pass count that brings measured time nearest --seconds
        if len(passes) >= MIN_PASSES and now - t0 + statistics.median(walls) / 2 > args.seconds:
            break
        if now - t_start > HARD_LIMIT_S:
            break
    return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def pooled_cv2(passes) -> dict:
    """Squared coefficient of variation per (cell, estimator), over all passes."""
    acc: dict = {}
    for results in passes:
        for r in results:
            if r.error is not None or not math.isfinite(r.mean):
                continue
            n, s, q = acc.get((r.cell_index, r.est), (0, 0.0, 0.0))
            acc[(r.cell_index, r.est)] = (n + r.n, s + r.n * r.mean,
                                          q + (r.n - 1) * r.std ** 2 + r.n * r.mean ** 2)
    out = {}
    for key, (n, s, q) in acc.items():
        mean = s / n
        var = max(q - s * mean, 0.0) / (n - 1)
        out[key] = var / mean ** 2 if mean > 0 else math.inf
    return out


def end_to_end(passes, setup: list[dict]) -> dict:
    cv2 = pooled_cv2(passes)
    per_pass = []
    for results in passes:
        m = {"wall_s": sum(r.wall for r in results)}
        for est in ("cmc", "ak", "mak", "rn", "zr"):
            m[f"{est}_s_per_5e5"] = sum(r.wall * 5e5 / r.n for r in results if r.est == est)
        for est in ("mak", "rn", "zr"):
            m[f"{est}_t1pct_s"] = sum(cv2.get((r.cell_index, est), math.inf) * 1e4 * r.wall / r.n
                                      for r in results if r.est == est)
        per_pass.append(m)
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    out["setup_s"] = statistics.median(p["total_s"] for p in setup)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def traced_split(wl, contexts, args, threads, t_start, mods):
    """Replay pass 0 untraced and traced in turn; per-layer medians over replays.

    Returns (metrics, untraced passes, traced passes).
    """
    untraced, traced, per_pass, blocks = [], [], [], []
    solver_reps = sum(wl.reps[e] for c in wl.cells for e in c.estimators
                      if e in mods.workloads.SOLVER_ESTIMATORS)
    t0 = time.perf_counter()
    while True:
        tp = time.perf_counter()
        untraced.append(run_pass(wl, contexts, args.seed, 0, threads,
                                 mods.workloads, mods.harness))
        tracer = tracing.Tracer(mods)
        tctx = [replace(c, model=replace(c.model, radial=tracer.radial(c.model.radial)))
                for c in contexts]
        with tracer:
            traced.append(run_pass(wl, tctx, args.seed, 0, threads,
                                   mods.workloads, mods.harness))
        per_pass.append(tracing.pass_layer_metrics(tracer, solver_reps))
        blocks += [b - a for a, b, _ in tracer.blocks]
        now = time.perf_counter()
        if ((now - t0 + (now - tp) / 2 > args.seconds and len(blocks) >= MIN_TRACED_BLOCKS)
                or now - t_start > HARD_LIMIT_S):
            break
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    for q in (50, 90):
        v = tracing.percentile(blocks, q)
        if v is not None:              # too few blocks: left out, not guessed
            out[f"harness.block_ms_p{q}"] = 1e3 * v
    out["harness.blocks"] = len(blocks)
    wall = statistics.median(sum(r.wall for r in p) for p in untraced)
    out["trace_overhead_frac"] = (
        statistics.median(sum(r.wall for r in p) for p in traced) / wall - 1.0)
    return out, untraced, traced


def setup_split(wl, models, setup: list[dict], mods) -> dict:
    tracer = tracing.Tracer(mods)
    with tracer:
        for _ in range(SETUP_PROBES):
            mods.workloads.build_contexts(wl, models)
    out = tracing.setup_layer_metrics(tracer, SETUP_PROBES)
    out["model.build_s"] = statistics.median(p["build_s"] for p in setup)
    out["tailrisk.import_s"] = statistics.median(p["import_s"] for p in setup)
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "tailrisk" / "__init__.py").is_file():
        print(f"error: tailrisk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tailrisk
    if Path(tailrisk.__file__).resolve().parent != SRC / "tailrisk":
        print(f"error: imported tailrisk from {tailrisk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tailrisk import estimators, harness, randsrc, tails

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    mods = SimpleNamespace(estimators=estimators, harness=harness, randsrc=randsrc,
                           tails=tails, workloads=workloads)
    wl = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    auto = min(harness.resolve_threads("auto"), nproc)
    threads = auto if wl.threads == "auto" else 1

    setup = setup_probes(wl.name, SETUP_PROBES)
    models = workloads.build_models(wl)
    contexts = workloads.build_contexts(wl, models)

    checked = []                     # every pass whose runs count as attempted
    # pass 0 replayed at the other worker count (1 <-> auto): the estimates
    # must not depend on it, and its wall time shows what the block pool buys
    other = 1 if threads > 1 else auto
    replay = None
    if other != threads:
        replay = run_pass(wl, contexts, args.seed, 0, other, workloads, harness)
        checked.append(replay)
    if args.trace:
        metrics, passes, traced = traced_split(wl, contexts, args, threads, t_start, mods)
        for results in traced:
            require_identical(passes[0], results, "traced run differs from untraced")
        metrics.update(setup_split(wl, models, setup, mods))
        units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
        checked += passes + traced
    else:
        passes = timed_passes(wl, contexts, args, threads, t_start, mods)
        metrics = end_to_end(passes, setup)
        units = E2E_METRICS
        checked += passes
    if replay is not None:
        require_identical(replay, passes[0], f"{threads} threads differ from {other}")

    runs = [r for results in checked for r in results]
    failed = [r for r in runs if r.failed]
    record = {
        "env": environment(args, threads, nproc),
        "passes": len(passes),
        "pass_wall_s": [sum(r.wall for r in results) for results in passes],
        "replay": None if replay is None else {
            "threads": other, "wall_s": sum(r.wall for r in replay)},
        "reps": wl.reps,
        "digest_pass0": digest(passes[0]),
        "fail_frac": len(failed) / len(runs),
        "unbounded_metrics": {k: v for k, v in metrics.items() if k not in units},
        "failures": [f"{wl.cells[r.cell_index].label}/{r.est}: {r.error or r.check}"
                     for r in failed][:50],
        "estimates_pass0": [
            {"cell": wl.cells[r.cell_index].label, "est": r.est, "n": r.n,
             "mean": _finite(r.mean), "cv": _finite(r.cv), "wall_s": r.wall,
             "flags": list(r.flags)}
            for r in passes[0]],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units
                    if _finite(metrics.get(k, math.nan)) is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
