"""Correlation-matrix validation and per-index Cholesky factors.

For every risk index j the estimators need a square root A of the
correlation matrix in which risk j is driven by a single standard-normal
coordinate.  Swapping index j into the leading position, factorizing, and
undoing the swap on the rows yields exactly that: row j of the result is the
unit vector in driver coordinate 0, and A A^T still equals the original
matrix.  One Cholesky kernel, one swap per index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_PIVOT_TOL = 1e-12       # squared-diagonal floor below which a factor is rejected
_SYM_TOL = 1e-12


def validate_correlation(sigma: np.ndarray) -> np.ndarray:
    """Check symmetry, unit diagonal, bounds and positive definiteness."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValidationError("correlation matrix must be square")
    if not np.all(np.isfinite(sigma)):
        raise ValidationError("correlation matrix has non-finite entries")
    if np.max(np.abs(sigma - sigma.T)) > _SYM_TOL:
        raise ValidationError("correlation matrix is not symmetric")
    if np.max(np.abs(np.diag(sigma) - 1.0)) > _SYM_TOL:
        raise ValidationError("correlation matrix diagonal must be 1")
    if np.max(np.abs(sigma)) > 1.0 + _SYM_TOL:
        raise ValidationError("correlation entries must lie in [-1, 1]")
    eigmin = float(np.linalg.eigvalsh(sigma)[0])
    if eigmin <= 0.0:
        raise ValidationError(
            f"correlation matrix is not positive definite: smallest eigenvalue "
            f"{eigmin:.6e} <= 0")
    return sigma


@dataclass(frozen=True)
class FactorizationSet:
    """All d per-index factors of one correlation matrix.

    ``factors[j]`` is the d x d matrix A^(j) with A^(j) (A^(j))^T = sigma and
    row j equal to the unit vector in column 0, the driver coordinate.
    ``factors[0]`` coincides with the plain lower-triangular Cholesky factor.
    Immutable; share freely across workers.
    """

    sigma: np.ndarray
    factors: np.ndarray        # shape (d, d, d): factors[j] = A^(j)


def _cholesky_named(sigma: np.ndarray) -> np.ndarray:
    try:
        L = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        # locate the first failing leading principal minor for the message
        for k in range(1, sigma.shape[0] + 1):
            try:
                np.linalg.cholesky(sigma[:k, :k])
            except np.linalg.LinAlgError:
                raise ValidationError(
                    f"Cholesky breakdown: leading minor of order {k} is not "
                    f"positive definite") from None
        raise
    pivots = np.square(np.diag(L))
    if np.min(pivots) < _PIVOT_TOL:
        k = int(np.argmin(pivots))
        raise ValidationError(
            f"Cholesky breakdown: pivot {k} is {pivots[k]:.3e} < {_PIVOT_TOL:g} "
            f"(matrix numerically singular)")
    return L


def factorize_all(sigma: np.ndarray) -> FactorizationSet:
    """Compute A^(j) for every index j of a correlation matrix."""
    sigma = validate_correlation(sigma)
    d = sigma.shape[0]
    factors = np.empty((d, d, d))
    for j in range(d):
        perm = np.arange(d)
        perm[0], perm[j] = j, 0              # involution: swap j <-> 0
        L = _cholesky_named(sigma[np.ix_(perm, perm)])
        # permuted variable a is original perm[a]; row of original i is row
        # perm[i] of L (perm is its own inverse)
        factors[j] = L[perm, :]
    return FactorizationSet(sigma=sigma, factors=factors)
