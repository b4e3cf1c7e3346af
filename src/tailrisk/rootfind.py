"""Exceedance sets of convex sums of exponentials.

The kernel solves, for batches of instances at once, where
``h(x) = sum_i c_i * exp(d_i * x)`` exceeds a level.  Convexity makes the
exceedance set the complement of one interval, so it is fully described by a
pair ``(psi_lo, psi_hi)``:

    {x : h(x) > level} = (-inf, psi_lo) u (psi_hi, +inf)

with ``psi_lo = -inf`` when the left component is empty, ``psi_hi = +inf``
when the right one is, and the convention ``psi_lo >= psi_hi`` (encoded as
``(+inf, -inf)``) when the whole line exceeds.

Everything is evaluated through log-sum-exp, never in linear space, so the
solver cannot overflow no matter how large the level or the coefficients;
the "rescale and retry" failure mode of a linear-space evaluation does not
arise.  Terms with zero slope are folded into the level before solving, which
keeps the remaining sum strictly monotone or strictly convex.

Each boundary is an outside-in Newton iteration on the convex function
``f(t) = log h(t) - log level``.  The right boundary starts where the first
positive-slope term alone reaches the level, so ``f >= 0`` there and at every
larger ``t``.  From a point with ``f >= 0`` and ``f' > 0`` the tangent lies
below ``f``, so each Newton step moves left, keeps ``f >= 0`` and never
passes the root: no bracket or bisection is needed.  An iterate with
``f' <= 0`` while ``f > 0`` lies left of the minimizer with the whole ray
from the start above the level, so the minimum is above the level and the
whole line exceeds.  The left boundary is the same solve with the slopes
negated.  A row with a single active term starts on its exact root and
stops there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import RootFindError, ValidationError

_X_RTOL = 1e-13          # relative stop on the Newton step
_F_ATOL = 1e-13          # stop once log h(x) - log level is at most this
_MAX_ITER = 200


def _lse_grad(logc, s, t):
    """Row-wise log h(t) and its slope, for rows of log-coefficients and slopes."""
    z = logc + s * t[:, None]
    m = np.max(z, axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    w = np.exp(z - safe[:, None])
    sw = np.sum(w, axis=1)
    val = safe + np.log(sw)
    grad = np.sum(w * s, axis=1) / sw
    return val, grad


def _right_roots(logc, s, level):
    """Outside-in Newton for the right boundary of {lse(logc + s*t) > level}.

    Every row needs an active term (finite ``logc``) with a positive slope.
    Returns (root, whole, ok): ``whole`` marks rows that exceed the level on
    the whole line (their ``root`` is meaningless); ``ok`` is False on rows
    whose iteration failed (a non-finite step or ``_MAX_ITER`` reached).
    Only rows still iterating are evaluated at each step.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (level[:, None] - logc) / s
    t = np.min(np.where(np.isfinite(logc) & (s > 0.0), cross, np.inf), axis=1)
    root = t.copy()
    whole = np.zeros(t.size, dtype=bool)
    ok = np.zeros(t.size, dtype=bool)
    idx = np.arange(t.size)
    for _ in range(_MAX_ITER):
        val, g = _lse_grad(logc, s, t)
        f = val - level
        fin = np.isfinite(f)
        turn = g <= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            tn = t - f / g
        # f < 0 only by rounding at the root: iterates approach it from f >= 0
        conv = fin & ((f <= _F_ATOL) | (
            ~turn & (np.abs(tn - t) <= _X_RTOL * (1.0 + np.abs(tn)))))
        over = fin & ~conv & turn                # minimum above the level
        root[idx[conv]] = t[conv]
        whole[idx[over]] = True
        ok[idx[conv | over]] = True
        keep = ~(conv | turn) & np.isfinite(tn)
        if not keep.any():
            break
        idx, logc, s, level, t = idx[keep], logc[keep], s[keep], level[keep], tn[keep]
    return root, whole, ok


def exceedance_bounds(logc: np.ndarray, slopes: np.ndarray, log_level):
    """Batched exceedance boundaries of convex exponential sums.

    Parameters
    ----------
    logc : (n, d) log-coefficients; ``-inf`` marks an absent term.
    slopes : (n, d) exponent slopes.
    log_level : scalar or (n,); ``-inf`` means a nonpositive level, which the
        positive sum always exceeds.

    Returns
    -------
    (psi_lo, psi_hi, ok) with the encoding described in the module docstring;
    ``ok`` is False on rows whose Newton iteration failed to converge.
    """
    logc = np.asarray(logc, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    n, _ = logc.shape
    level = np.broadcast_to(np.asarray(log_level, dtype=float), (n,)).astype(float).copy()

    psi_lo = np.full(n, -np.inf)
    psi_hi = np.full(n, np.inf)
    ok = np.ones(n, dtype=bool)

    present = np.isfinite(logc)
    whole = level == -np.inf

    # fold zero-slope terms into the level: h(x) > u  <=>  h_var(x) > u - c0
    zmask = present & (slopes == 0.0)
    if np.any(zmask):
        zc = np.where(zmask, logc, -np.inf)
        m0 = np.max(zc, axis=1)
        has0 = np.isfinite(m0)
        logc0 = np.where(
            has0,
            np.where(has0, m0, 0.0)
            + np.log(np.sum(np.exp(zc - np.where(has0, m0, 0.0)[:, None]), axis=1)),
            -np.inf)
        swallow = has0 & (logc0 >= level)
        whole |= swallow
        adj = has0 & ~swallow
        if np.any(adj):
            ratio = np.exp(logc0[adj] - level[adj])
            with np.errstate(divide="ignore"):
                level[adj] = level[adj] + np.log1p(-ratio)
            whole |= np.isneginf(level) & adj  # c0 ate the level to rounding

    # rows with no variable term and constant below the level are empty:
    # the default (-inf, +inf) already encodes the empty set.
    act = present & (slopes != 0.0)
    right = np.flatnonzero(~whole & np.any(act & (slopes > 0.0), axis=1))
    left = np.flatnonzero(~whole & np.any(act & (slopes < 0.0), axis=1))
    # one batch: the right boundaries, then the left ones as right boundaries
    # of the mirrored sums
    rows = np.concatenate([right, left])
    sign = np.repeat([1.0, -1.0], [right.size, left.size])
    root, over, conv = _right_roots(np.where(act[rows], logc[rows], -np.inf),
                                    slopes[rows] * sign[:, None], level[rows])
    psi_hi[right] = root[:right.size]
    psi_lo[left] = -root[right.size:]
    ok[rows[~conv]] = False
    whole[rows[over]] = True
    psi_lo[whole] = np.inf
    psi_hi[whole] = -np.inf
    return psi_lo, psi_hi, ok


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSum:
    """h(x) = sum_i coeffs_i * exp(slopes_i * x) with positive coefficients."""

    coeffs: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        s = np.atleast_1d(np.asarray(self.slopes, dtype=float))
        if c.shape != s.shape or c.ndim != 1 or c.size == 0:
            raise ValidationError("coeffs and slopes must be equal-length 1-d arrays")
        if np.any(c <= 0.0) or not np.all(np.isfinite(c)) or not np.all(np.isfinite(s)):
            raise ValidationError("ExpSum needs finite slopes and positive finite coefficients")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "slopes", s)

    def log_value(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return _lse_grad(np.log(self.coeffs)[None, :].repeat(x.size, axis=0),
                         self.slopes[None, :].repeat(x.size, axis=0), x)[0]

    def value(self, x):
        out = np.exp(self.log_value(x))
        return float(out[0]) if np.isscalar(x) else out


class PsiBounds(NamedTuple):
    """Boundaries of the exceedance set over the whole real line.

    ``lower``: right endpoint of the left-unbounded component (None if none).
    ``upper``: left endpoint of the right-unbounded component (None if none).
    ``whole_line``: the sum exceeds the level everywhere.
    """

    lower: float | None
    upper: float | None
    whole_line: bool


@dataclass(frozen=True)
class IntervalSet:
    """Union of at most two disjoint half-open intervals [lo, hi)."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        iv = tuple((float(a), float(b)) for a, b in self.intervals if a < b)
        if len(iv) > 2:
            raise ValidationError("exceedance sets have at most two components")
        for (a0, b0), (a1, b1) in zip(iv, iv[1:]):
            if b0 > a1:
                raise ValidationError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", iv)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    def contains(self, x: float) -> bool:
        return any(a <= x < b for a, b in self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals


def _solve_scalar(h: ExpSum, level: float):
    if level is None or not np.isfinite(level) or level <= 0.0:
        raise ValidationError("level must be a positive finite real")
    logc = np.log(h.coeffs)[None, :]
    s = h.slopes[None, :]
    lo, hi, ok = exceedance_bounds(logc, s, np.log(level))
    if not ok[0]:
        raise RootFindError(
            f"exceedance solve did not converge (level={level:g}, "
            f"slopes={h.slopes}, coeffs={h.coeffs})")
    return float(lo[0]), float(hi[0])


def psi_bounds(h: ExpSum, level: float) -> PsiBounds:
    """Lower/upper solutions of h(x) = level bounding the exceedance set."""
    lo, hi = _solve_scalar(h, level)
    if lo >= hi:
        return PsiBounds(lower=None, upper=None, whole_line=True)
    return PsiBounds(lower=None if lo == -np.inf else lo,
                     upper=None if hi == np.inf else hi,
                     whole_line=False)


def exceedance_set(h: ExpSum, level: float, domain: str = "real") -> IntervalSet:
    """{x in domain : h(x) > level} for domain "real" or "nonneg"."""
    if domain not in ("real", "nonneg"):
        raise ValidationError(f"domain must be 'real' or 'nonneg', got {domain!r}")
    lo, hi = _solve_scalar(h, level)
    left_edge = 0.0 if domain == "nonneg" else -np.inf
    if lo >= hi:
        return IntervalSet(((left_edge, np.inf),))
    pieces = []
    if lo > left_edge:
        pieces.append((left_edge, lo))
    pieces.append((max(hi, left_edge), np.inf))
    return IntervalSet(tuple(p for p in pieces if p[0] < p[1]))
