"""The risk model: aggregated sums of weighted log-elliptical components.

A model describes S(u) = sum_i lam_i * exp(beta_i * gamma * Y_i) where
(Y_1, ..., Y_d) = A N for a correlation square root A (log-Gaussian case) or
Y = A R U for a radius R and a uniform sphere direction U (log-elliptical
case).  Only constant gamma and a constant correlation matrix are supported:
every supported computation holds them fixed across thresholds, which keeps
the factorizations out of the replication loop.  A Gaussian (chi) radius
must have the model's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import tails
from .errors import ValidationError
from .linalg import validate_correlation
from .tails import RadialLaw, chi_radial

_TIE_RTOL = 1e-12


def equicorrelation(d: int, rho: float) -> np.ndarray:
    """Correlation matrix with a common off-diagonal value.

    Positive definiteness (rho in (-1/(d-1), 1)) is enforced where the matrix
    is consumed, by validate_correlation.
    """
    return np.full((d, d), float(rho)) + (1.0 - float(rho)) * np.eye(d)


@dataclass(frozen=True)
class ModelSpec:
    """Weights, exponent slopes, scale, correlation and radial law."""

    lam: np.ndarray
    beta: np.ndarray
    gamma: float
    sigma: np.ndarray
    radial: RadialLaw

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if lam.ndim != 1 or beta.shape != lam.shape:
            raise ValidationError("lambda and beta must be 1-d arrays of equal length")
        if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise ValidationError("all risk weights lambda must be positive and finite")
        if np.any(beta <= 0) or not np.all(np.isfinite(beta)):
            raise ValidationError("all exponent slopes beta must be positive and finite")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValidationError("gamma must be a positive real")
        sigma = validate_correlation(self.sigma)
        if sigma.shape[0] != lam.size:
            raise ValidationError(
                f"correlation matrix is {sigma.shape[0]}x{sigma.shape[0]} but the "
                f"model has {lam.size} risks")
        if self.radial.gaussian_dim not in (None, lam.size):
            raise ValidationError(
                f"radial law {self.radial.name} is the Gaussian radius of "
                f"dimension {self.radial.gaussian_dim}, but the model has "
                f"{lam.size} risks")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "sigma", sigma)

    @property
    def d(self) -> int:
        return self.lam.size

    @property
    def bg(self) -> np.ndarray:
        """Per-risk exponent scale beta_i * gamma."""
        return self.beta * self.gamma

    def with_correlation(self, rho) -> "ModelSpec":
        """Same marginals with a different correlation structure."""
        return ModelSpec(lam=self.lam, beta=self.beta, gamma=self.gamma,
                         sigma=_correlation(self.d, rho), radial=self.radial)


def _correlation(d: int, rho) -> np.ndarray:
    """A common correlation ``rho`` as the d x d equicorrelation matrix; a
    matrix passes through (``ModelSpec`` validates it)."""
    r = np.asarray(rho, dtype=float)
    return equicorrelation(d, float(r)) if r.ndim == 0 else r


def from_lognormal(mu, sigma2, rho=0.0) -> ModelSpec:
    """The applied parametrization: marginal log-means ``mu``, log-variances
    ``sigma2`` and a common correlation or an explicit matrix ``rho``.

    Maps to lambda_i = exp(mu_i), beta_i = sqrt(sigma2_i), gamma = 1 and the
    chi radial law of the model dimension (Gaussian case).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    s2 = np.atleast_1d(np.asarray(sigma2, dtype=float))
    if mu.ndim != 1 or s2.shape != mu.shape:
        raise ValidationError("mu and sigma2 must be 1-d arrays of equal length")
    if np.any(s2 <= 0) or not np.all(np.isfinite(s2)):
        raise ValidationError("all log-variances sigma2 must be positive")
    if not np.all(np.isfinite(mu)):
        raise ValidationError("log-means mu must be finite")
    return ModelSpec(lam=np.exp(mu), beta=np.sqrt(s2), gamma=1.0,
                     sigma=_correlation(mu.size, rho), radial=chi_radial(mu.size))


def reference_model(rho: float = 0.0, d: int = 10) -> ModelSpec:
    """The benchmark model: mu_i = i - 10, sigma2_i = i, equicorrelated."""
    i = np.arange(1, d + 1, dtype=float)
    return from_lognormal(i - 10.0, i, rho)


# ---------------------------------------------------------------------------
# dominating index set and the first-order approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxIndexSet:
    """Indices attaining the maximal exponent slope, with tie bookkeeping.

    ``indices``: all j with beta_j = max beta (relative tie tolerance 1e-12).
    ``dominating``: the indices attaining both the maximal slope and, among
    those, the maximal weight lambda.
    """

    indices: tuple[int, ...]
    dominating: tuple[int, ...]
    beta_max: float
    lam_max: float


def max_index_set(m: ModelSpec) -> MaxIndexSet:
    beta_max = float(np.max(m.beta))
    on_max = np.isclose(m.beta, beta_max, rtol=_TIE_RTOL, atol=0.0)
    lam_max = float(np.max(m.lam[on_max]))
    dom = on_max & np.isclose(m.lam, lam_max, rtol=_TIE_RTOL, atol=0.0)
    return MaxIndexSet(indices=tuple(int(i) for i in np.flatnonzero(on_max)),
                       dominating=tuple(int(i) for i in np.flatnonzero(dom)),
                       beta_max=beta_max, lam_max=lam_max)


class AsymptoticAlpha(NamedTuple):
    full: float      # sum of all marginal tails
    reduced: float   # sum over the dominating indices only


def asymptotic_alpha(m: ModelSpec, u: float) -> AsymptoticAlpha:
    """First-order approximation P(S(u) > u) ~ sum_i P(X_i(u) > u).

    Returns both the full sum and the reduction to the dominating indices of
    :func:`max_index_set`.  Known to be too crude for practical use; reported
    as a diagnostic only.
    """
    marg = tails.marginal_tails(m, u)
    keep = list(max_index_set(m).dominating)
    return AsymptoticAlpha(full=float(marg.sum()), reduced=float(marg[keep].sum()))


# ---------------------------------------------------------------------------
# vanishing-relative-error condition diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionPair:
    """One (u, j, i) evaluation of the slope/correlation growth condition."""

    u: float
    j: int                    # index with maximal slope
    i: int                    # compared index
    within_max_set: bool      # i also attains the maximal slope
    lhs: float                # sigma_ij + c sqrt((1 - sigma_ij^2)/log u)
    rhs: float                # (beta_j/beta_i) log(eps estar_j(u)) / log(u)
    holds: bool


@dataclass(frozen=True)
class MakConditionReport:
    """Grid evaluation of the conditions behind vanishing relative error.

    The condition is asymptotic; this report only states whether it holds at
    the requested thresholds ("holds on grid"), never in the limit.  Both
    readings of the comparison range are summarized: pairs inside the maximal
    index set only, and pairs against every other index.  ``remark_bound``
    carries the simpler sufficient ratio -log(estar_j/u) / ((1-sigma_ij)
    log u), which should stay below 1 (evaluated with the scaling-function
    form of estar); pairs with sigma_ij bounded away from 1 satisfy the
    condition automatically, and that ratio makes it visible.
    """

    pairs: tuple[ConditionPair, ...]
    holds_within_max_set: bool
    holds_all_indices: bool
    remark_bounds: tuple[tuple[float, int, int, float], ...]  # (u, j, i, ratio)
    remark_holds: bool


def check_mak_condition(m: ModelSpec, u_grid: Sequence[float], c: float = 1.0,
                        eps: float = 0.5) -> MakConditionReport:
    """Evaluate the growth condition pointwise on a threshold grid.

    Uses the auxiliary choice e(x) = log(x)/x inside estar, applied with the
    maximal index's parameters (the form the estimator analysis actually
    exercises).  Thresholds must exceed max(e, d * max lambda) so every log
    and estar is in range.
    """
    if c <= 0 or eps <= 0:
        raise ValidationError("c and eps must be positive")
    u_min = max(np.e, m.d * float(np.max(m.lam)))
    for u in u_grid:
        if u <= 1.0:
            raise ValidationError(f"u={u:g} not allowed: log(u) must be positive")
        if u <= u_min:
            raise ValidationError(
                f"u={u:g} too small for the diagnostic; need u > {u_min:g}")
    mis = max_index_set(m)
    jset = set(mis.indices)
    pairs = []
    remark = []
    for u in u_grid:
        logu = float(np.log(u))
        for j in mis.indices:
            ej_hazard = tails.estar_hazard_single(u, float(m.lam[j]),
                                                  float(m.bg[j]))
            ej_scaling = tails.estar_single(u, float(m.lam[j]), float(m.bg[j]),
                                            m.radial)
            for i in range(m.d):
                if i == j:
                    continue
                sij = float(m.sigma[i, j])
                lhs = sij + c * np.sqrt((1.0 - sij * sij) / logu)
                rhs = (m.beta[j] / m.beta[i]) * np.log(eps * ej_hazard) / logu
                pairs.append(ConditionPair(
                    u=float(u), j=j, i=i, within_max_set=i in jset,
                    lhs=float(lhs), rhs=float(rhs), holds=bool(lhs <= rhs)))
                if sij < 1.0:
                    ratio = -np.log(ej_scaling / u) / ((1.0 - sij) * logu)
                    remark.append((float(u), j, i, float(ratio)))
    within = [p for p in pairs if p.within_max_set]
    return MakConditionReport(
        pairs=tuple(pairs),
        holds_within_max_set=all(p.holds for p in within),
        holds_all_indices=all(p.holds for p in pairs),
        remark_bounds=tuple(remark),
        remark_holds=all(r[3] < 1.0 for r in remark),
    )
