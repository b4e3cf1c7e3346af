"""Exceedance sets of convex sums of exponentials.

:func:`exceedance_bounds` is the one entry point: it solves, for batches of
instances at once, where ``h(x) = sum_i c_i * exp(d_i * x)`` exceeds a level
(a single instance is a one-row batch).  Convexity makes the exceedance set
the complement of one interval, so it is fully described by a pair
``(psi_lo, psi_hi)``:

    {x : h(x) > level} = (-inf, psi_lo) u (psi_hi, +inf)

with ``psi_lo = -inf`` when the left component is empty and ``psi_hi = +inf``
when the right one is.  When the whole line exceeds, the pair is
``(+inf, +inf)``, whose union is again every x, so the pair always reads as
the set itself.

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
whole line exceeds.  A left boundary is minus the right boundary of the
mirrored sum ``h(-x)``, whose slopes are the negated ones, so both kinds are
the same right-root problem and are solved in one batch.  A row with a single
active term starts on its exact root and stops there.
"""

from __future__ import annotations

import numpy as np

_X_RTOL = 1e-13          # relative stop on the Newton step
_F_ATOL = 1e-13          # stop once log h(x) - log level is at most this
_MAX_ITER = 200


def _lse_grad(logc, s, x):
    """Per column, log h(x) and its slope, for terms-major (d, m) logc and s."""
    z = logc + s * x
    m = np.max(z, axis=0)
    safe = np.where(np.isfinite(m), m, 0.0)
    w = np.exp(np.subtract(z, safe, out=z), out=z)
    sw = np.sum(w, axis=0)
    val = safe + np.log(sw)
    grad = np.sum(np.multiply(w, s, out=w), axis=0) / sw
    return val, grad


def _right_roots(logc, s, level):
    """Outside-in Newton in t for the right boundary of {lse(logc + s*t) >
    level}, per column of terms-major (d, m) arrays.

    Every column needs an active term (finite ``logc``) with ``s > 0``.
    Returns (root, whole, ok): ``whole`` marks columns that exceed the level
    on the whole line (their ``root`` is meaningless); ``ok`` is False where
    the iteration failed (a non-finite step or ``_MAX_ITER``).  Only columns
    still iterating are evaluated at each step.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (level - logc) / s           # +inf for an absent term
    t = np.min(np.where(s > 0.0, cross, np.inf), axis=0)
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
        # compress, not boolean indexing: L[:, mask] is F-ordered
        idx, level, t = idx[keep], level[keep], tn[keep]
        logc, s = logc.compress(keep, axis=1), s.compress(keep, axis=1)
    return root, whole, ok


def exceedance_bounds(logc: np.ndarray, slopes: np.ndarray, log_level):
    """Batched exceedance boundaries of convex exponential sums.

    Parameters
    ----------
    logc : (n, d) log-coefficients; ``-inf`` marks an absent term.
    slopes : (n, d) exponent slopes.
    log_level : scalar or (n,); ``-inf`` means a nonpositive level, which the
        positive sum always exceeds.

    The solver reduces along axis 0 of terms-major (d, n) copies; the ``.T``
    of a C-contiguous (d, n) array is read without a copy.

    Returns
    -------
    (psi_lo, psi_hi, ok) with the encoding described in the module docstring;
    ``ok`` is False on rows whose Newton iteration failed to converge.
    """
    logc = np.ascontiguousarray(np.asarray(logc, dtype=float).T)
    slopes = np.ascontiguousarray(np.asarray(slopes, dtype=float).T)
    n = logc.shape[1]
    level = np.full(n, log_level, dtype=float)

    psi_lo = np.full(n, -np.inf)
    psi_hi = np.full(n, np.inf)
    ok = np.ones(n, dtype=bool)

    present = np.isfinite(logc)
    whole = level == -np.inf

    # fold zero-slope terms into the level: h(x) > u  <=>  h_var(x) > u - c0,
    # on the rows that have such a constant only
    zmask = present & (slopes == 0.0)
    if np.any(zmask):
        zc = np.where(zmask, logc, -np.inf)
        m0 = np.max(zc, axis=0)
        zrows = np.flatnonzero(m0 > -np.inf)
        m0 = m0[zrows]
        logc0 = m0 + np.log(np.sum(np.exp(np.take(zc, zrows, axis=1) - m0), axis=0))
        swallow = logc0 >= level[zrows]
        whole[zrows[swallow]] = True
        adj = zrows[~swallow]
        ratio = np.exp(logc0[~swallow] - level[adj])
        with np.errstate(divide="ignore"):
            level[adj] = level[adj] + np.log1p(-ratio)
        whole[adj] |= np.isneginf(level[adj])  # c0 ate the level to rounding

    # rows with no variable term and constant below the level are empty:
    # the default (-inf, +inf) already encodes the empty set.
    act = present & (slopes != 0.0)
    right = np.flatnonzero(~whole & np.any(act & (slopes > 0.0), axis=0))
    left = np.flatnonzero(~whole & np.any(act & (slopes < 0.0), axis=0))
    # one batch: the right boundaries, then the left ones as right boundaries
    # of the mirrored sums, whose slopes are negated in the copy
    rows = np.concatenate([right, left])
    s = np.take(slopes, rows, axis=1)
    np.negative(s[:, right.size:], out=s[:, right.size:])
    root, over, conv = _right_roots(np.take(np.where(act, logc, -np.inf), rows, axis=1),
                                    s, level[rows])
    psi_hi[right] = root[:right.size]
    psi_lo[left] = -root[right.size:]
    ok[rows[~conv]] = False
    whole[rows[over]] = True
    psi_lo[whole] = np.inf
    psi_hi[whole] = np.inf
    return psi_lo, psi_hi, ok
