"""Replication engine and report statistics.

Runs are split into fixed blocks of ``randsrc.BLOCK_SIZE`` replications, one
counter-based stream per block.  Workers process whole blocks and the
per-block first and second moments are combined with exactly rounded
summation (``math.fsum``) in block order, so results are bit-identical for
any worker count, and two runs over consecutive block ranges merge to exactly
the single full run.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import randsrc
from .errors import NumericalAbortError, ValidationError
from .estimators import (EstimatorKind, ReplicationContext, identical_marginals,
                         make_context, make_engine)
from .model import ModelSpec

_FAILURE_BUDGET = 1e-6          # tolerated root-solve failure rate per run


@dataclass(frozen=True)
class RunStats:
    """One benchmark row.

    ``per_rep_std`` is the standard deviation of a single replication (the
    reference tables' "standard error" column); ``se_of_mean`` is
    per_rep_std / sqrt(n).  ``time_per_5e5`` extrapolates the wall time to
    5e5 replications; ``efficiency`` is
    (var_cmc * time_cmc) / (var * time) against the run's CMC baseline, on
    this machine's clock (None until a baseline is attached).
    """

    estimator: str
    u: float
    n: int
    mean: float
    per_rep_std: float
    cv: float
    se_of_mean: float
    wall_time: float
    time_per_5e5: float
    efficiency: float | None = None
    flags: tuple[str, ...] = ()


class _Moments:
    """Exactly mergeable running moments: per-block sums, fsum at the end."""

    def __init__(self):
        self.n = 0
        self.sums: list[float] = []
        self.sumsqs: list[float] = []
        self.failures = 0
        self.clamped = 0

    def add_block(self, values: np.ndarray, failures: int, clamped: int):
        self.n += values.size
        self.sums.append(float(np.sum(values)))
        self.sumsqs.append(float(np.sum(np.square(values))))
        self.failures += failures
        self.clamped += clamped

    def mean_var(self) -> tuple[float, float]:
        s = math.fsum(self.sums)
        q = math.fsum(self.sumsqs)
        mean = s / self.n
        var = max(q - s * mean, 0.0) / (self.n - 1) if self.n > 1 else 0.0
        return mean, var


def resolve_threads(threads) -> int:
    """Map the --threads setting (a count, 'auto' or None) onto a worker count.

    'auto' and None defer to ``TAILRISK_THREADS``, parsed the same way, and
    without it to the core count (at most 8).
    """
    text = "" if threads is None else str(threads).strip()
    if text in ("", "auto"):
        text = os.environ.get("TAILRISK_THREADS", "").strip()
        if text in ("", "auto"):
            return max(1, min(os.cpu_count() or 1, 8))
    if not (text.isdecimal() and int(text) >= 1):
        raise ValidationError(f"threads must be an integer >= 1 or 'auto', got {text!r}")
    return int(text)


def run_replications(engine, n: int, seed: int, threads: int = 1,
                     rep_lo: int = 0) -> _Moments:
    """Execute replications [rep_lo, rep_lo + n) on their canonical streams.

    Every touched block always computes its full layout; the requested row
    range is sliced afterwards, which is what makes arbitrary chunkings agree
    bit-for-bit.
    """
    bs = randsrc.BLOCK_SIZE
    rep_hi = rep_lo + n
    b_lo, b_hi = rep_lo // bs, (rep_hi + bs - 1) // bs

    def one_block(b: int) -> tuple[np.ndarray, int, int]:
        gen = randsrc.block_stream(seed, b).generator()
        res = engine(gen, bs)
        lo = max(rep_lo - b * bs, 0)
        hi = min(rep_hi - b * bs, bs)
        return res.values[lo:hi], res.root_failures, res.clamped

    moments = _Moments()
    blocks = range(b_lo, b_hi)
    if threads <= 1 or len(blocks) <= 1:
        results = map(one_block, blocks)
        for vals, fails, clamps in results:
            moments.add_block(vals, fails, clamps)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for vals, fails, clamps in pool.map(one_block, blocks):
                moments.add_block(vals, fails, clamps)
    if moments.failures > _FAILURE_BUDGET * max(n, 1) and moments.failures > 0:
        raise NumericalAbortError(
            f"root-solve failure rate {moments.failures / n:.2e} exceeded the "
            f"{_FAILURE_BUDGET:g} budget over {n} replications")
    return moments


def run(model: ModelSpec, u: float, kind: EstimatorKind | str, n: int,
        seed: int, threads: int = 1, ctx: ReplicationContext | None = None) -> RunStats:
    """n replications of one estimator at one threshold, with statistics."""
    kind = EstimatorKind.parse(kind)
    if n < 2:
        raise ValidationError("need n >= 2 replications for a variance estimate")
    if ctx is None:
        ctx = make_context(model, u)
    elif ctx.model is not model or ctx.u != float(u):
        raise ValidationError(
            f"ctx was built for another model or threshold (ctx.u={ctx.u:g}, u={u:g})")
    engine = make_engine(ctx, kind)
    t0 = time.perf_counter()
    moments = run_replications(engine, n, seed, threads=threads)
    wall = time.perf_counter() - t0
    mean, var = moments.mean_var()
    std = math.sqrt(var)
    flags = []
    m = ctx.model
    if kind.name == "ak" and not (m.radial.is_gaussian
                                  and np.array_equal(m.sigma, np.eye(m.d))):
        # the symmetrized estimator is unbiased for independent risks; only
        # under dependence is it a heuristic on top of being biased
        if not identical_marginals(m):
            flags.append("ak-symmetrized-heuristic")
        flags.append("ak-biased-dependent-risks")
    if moments.clamped:
        flags.append(f"theta-clamped:{moments.clamped}")
    if moments.failures:
        flags.append(f"root-redraws:{moments.failures}")
    return RunStats(
        estimator=kind.label(), u=float(u), n=n, mean=mean, per_rep_std=std,
        cv=std / mean if mean > 0 else math.inf,
        se_of_mean=std / math.sqrt(n), wall_time=wall,
        time_per_5e5=wall * 5e5 / n, efficiency=None, flags=tuple(flags))


def attach_efficiency(row: RunStats, baseline: RunStats) -> RunStats:
    """Fill the efficiency column from a CMC baseline (exactly 1 for itself)."""
    if row is baseline:
        return replace(row, efficiency=1.0)
    denom = row.per_rep_std ** 2 * row.time_per_5e5
    numer = baseline.per_rep_std ** 2 * baseline.time_per_5e5
    eff = math.inf if denom == 0 else numer / denom
    return replace(row, efficiency=eff)


# ---------------------------------------------------------------------------
# comparison tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    rho_label: str
    u: float
    stats: RunStats


def compare(model: ModelSpec, rhos: Sequence, us: Sequence[float],
            kinds: Sequence, n: int, seed: int, cmc_n: int | None = None,
            threads: int = 1) -> list[TableRow]:
    """One RunStats row per (estimator, correlation, threshold).

    Each (rho, u) cell builds one context that all its estimators share and
    runs them in the given order.  The cell's CMC row is its efficiency
    baseline; without a CMC row efficiencies stay empty.
    """
    kinds = [EstimatorKind.parse(k) for k in kinds]
    rows: list[TableRow] = []
    for rho in rhos:
        rho_arr = np.asarray(rho, dtype=float)
        label = f"{float(rho_arr):g}" if rho_arr.ndim == 0 else "custom"
        m = model.with_correlation(rho)
        for u in us:
            ctx = make_context(m, u)
            cell = [run(m, u, kind, cmc_n if (kind.name == "cmc" and cmc_n) else n,
                        seed, threads=threads, ctx=ctx) for kind in kinds]
            baseline = next((stats for kind, stats in zip(kinds, cell)
                             if kind.name == "cmc"), None)
            for stats in cell:
                if baseline is not None:
                    stats = attach_efficiency(stats, baseline)
                rows.append(TableRow(rho_label=label, u=float(u), stats=stats))
    return rows


@dataclass(frozen=True)
class TrendReport:
    """Variation-coefficient growth diagnostics along a threshold grid.

    Slopes are least-squares fits of log cv against log log log u and
    log log u; they are qualitative (the asymptotic regime may be far away),
    so no pass/fail is attached.
    """

    u_grid: tuple[float, ...]
    cv: tuple[float, ...]
    decreasing: bool
    slope_logloglog: float
    slope_loglog: float


def variance_trend(model: ModelSpec, kind, u_grid: Sequence[float], n: int,
                   seed: int, threads: int = 1) -> TrendReport:
    if len(u_grid) < 2:
        raise ValidationError("trend diagnostics need at least two thresholds")
    cvs = []
    for u in u_grid:
        stats = run(model, u, kind, n, seed, threads=threads)
        cvs.append(stats.cv)
    cv = np.asarray(cvs)
    logcv = np.log(np.maximum(cv, 1e-300))
    u_arr = np.asarray(u_grid, dtype=float)

    def slope(x):
        if np.allclose(logcv, logcv[0]):
            return 0.0
        good = np.isfinite(x)
        if good.sum() < 2:
            return float("nan")
        return float(np.polyfit(x[good], logcv[good], 1)[0])

    with np.errstate(invalid="ignore", divide="ignore"):
        x3 = np.log(np.log(np.log(u_arr)))
        x2 = np.log(np.log(u_arr))
    return TrendReport(
        u_grid=tuple(float(u) for u in u_grid),
        cv=tuple(float(c) for c in cv),
        decreasing=bool(np.all(np.diff(cv) < 0)),
        slope_logloglog=slope(x3),
        slope_loglog=slope(x2),
    )


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("rho", "u", "method", "estimate", "per_rep_std", "cv",
               "se_of_mean", "wall_s", "time_per_5e5_s", "efficiency")


def _cells(row: TableRow) -> list[str]:
    s = row.stats
    eff = "" if s.efficiency is None else f"{s.efficiency:.6g}"
    return [row.rho_label, f"{row.u:.12g}", s.estimator, f"{s.mean:.12g}",
            f"{s.per_rep_std:.12g}", f"{s.cv:.12g}", f"{s.se_of_mean:.12g}",
            f"{s.wall_time:.6g}", f"{s.time_per_5e5:.6g}", eff]


def table_csv(rows: Sequence[TableRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_cells(r)) for r in rows]
    return "\n".join(lines) + "\n"


def table_markdown(rows: Sequence[TableRow]) -> str:
    lines = ["| " + " | ".join(CSV_COLUMNS) + " |",
             "|" + "|".join("---" for _ in CSV_COLUMNS) + "|"]
    lines += ["| " + " | ".join(_cells(r)) + " |" for r in rows]
    return "\n".join(lines) + "\n"


def table_text(rows: Sequence[TableRow]) -> str:
    grid = [list(CSV_COLUMNS)] + [_cells(r) for r in rows]
    widths = [max(len(line[i]) for line in grid) for i in range(len(CSV_COLUMNS))]
    out = []
    for line in grid:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


FORMATTERS = {"csv": table_csv, "md": table_markdown, "txt": table_text}
