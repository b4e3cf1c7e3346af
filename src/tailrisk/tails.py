"""Analytic tail machinery: normal tails, radial laws, log sphere and f_IS
densities, marginal exceedance probabilities and the importance-sampling
tuning.  :func:`marginal_tails` is the one definition of the marginal tails
P(X_k > x), for the stratification weights and for ``ak`` alike; an
underflowed tail is returned as 0 (the range rule lives in
``estimators.make_engine``).  Generic radial laws take a fixed Gauss-Legendre
rule; scipy's root finder is imported only by :func:`is_tuning_b`.

All radial laws here live in the Gumbel max-domain of attraction: the tail
satisfies (1 - F(x + s*nu(x))) / (1 - F(x)) -> exp(-s) for the law's scaling
function ``nu``.  Heavy (regularly varying) radii are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.special import digamma, gammaincc, gammainccinv, gammaln, ndtr

from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .model import ModelSpec

_GL_N = 64      # Gauss-Legendre nodes per panel of the generic marginal tail


# ---------------------------------------------------------------------------
# normal tail
# ---------------------------------------------------------------------------

def normal_tail(x):
    """Upper normal tail P(N > x), accurate in relative terms far out.

    Computed through the complementary error function; relative error stays
    at the 1e-13 level until the result approaches the subnormal range
    (|x| beyond ~37.5, where double precision itself quantizes the value).
    """
    return ndtr(-np.asarray(x, dtype=float))


def normal_cdf(x):
    """P(N <= x)."""
    return ndtr(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# radial laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialLaw:
    """Distribution of the elliptical radius R.

    ``tail(x)``     P(R > x) for any real x (1 for x <= 0), vectorized.
    ``quantile(q)`` the x with tail(x) = q, for q in (0, 1).
    ``nu(x)``       scaling function of the Gumbel max-domain of attraction.
    ``gaussian_dim``  set to d for the chi-root law of dimension d, where the
                      model reduces to correlated log-normals and estimators
                      may use the exact normal representation; None otherwise.
    """

    name: str
    tail: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[float], float]
    nu: Callable[[np.ndarray], np.ndarray]
    gaussian_dim: int | None = None

    @property
    def is_gaussian(self) -> bool:
        return self.gaussian_dim is not None


def chi_radial(d: int) -> RadialLaw:
    """R with R^2 chi-square with ``d`` degrees of freedom (Gaussian case).

    The scaling function is fixed to nu(x) = 1/x: the chi hazard rate grows
    like x, and the estimator tuning only needs nu up to asymptotic
    equivalence.  This choice gives the closed form
    estar(u) = (beta*gamma)^2 * u / log(u / lambda).
    """
    if d < 1:
        raise ValidationError("chi radial law needs dimension >= 1")
    half = 0.5 * d

    def tail(x):
        with np.errstate(over="ignore"):    # x^2/2 overflows to inf: tail 0
            return gammaincc(half, 0.5 * np.square(np.maximum(x, 0.0)))

    def quantile(q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValidationError("quantile argument must be in (0, 1)")
        return float(np.sqrt(2.0 * gammainccinv(half, q)))

    def nu(x):
        return 1.0 / np.asarray(x, dtype=float)

    return RadialLaw(name=f"chi({d})", tail=tail, quantile=quantile, nu=nu,
                     gaussian_dim=d)


def exp_power_radial(p: float) -> RadialLaw:
    """R with tail exp(-x^p), p > 1 (a non-Gaussian Gumbel-MDA example).

    nu(x) = x^(1-p)/p, the reciprocal hazard; p > 1 guarantees nu -> 0 and
    u*nu(log u) -> infinity, the conditions the estimators rely on.
    """
    if not p > 1.0:
        raise ValidationError("exp-power radial needs exponent p > 1")

    def tail(x):
        with np.errstate(over="ignore"):    # x^p overflows to inf: tail 0
            return np.exp(-np.power(np.maximum(x, 0.0), p))

    def quantile(q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValidationError("quantile argument must be in (0, 1)")
        return float((-np.log(q)) ** (1.0 / p))

    def nu(x):
        x = np.asarray(x, dtype=float)
        return np.power(x, 1.0 - p) / p

    return RadialLaw(name=f"exp-power({p})", tail=tail, quantile=quantile, nu=nu)


# kind -> (its one parameter, builder); chi's ``dof`` is the model dimension
_RADIAL_BUILDERS = {
    "chi": ("dof", lambda v: chi_radial(int(v))),
    "exp-power": ("p", exp_power_radial),
}


def make_radial(kind: str, **params) -> RadialLaw:
    """Named built-in radial laws for config files ("chi", "exp-power")."""
    try:
        name, build = _RADIAL_BUILDERS[kind]
    except KeyError:
        known = ", ".join(sorted(_RADIAL_BUILDERS))
        raise ValidationError(f"unknown radial law {kind!r}; known kinds: {known}")
    if set(params) != {name}:
        raise ValidationError(
            f"radial law {kind!r} takes exactly the parameter {name!r}, "
            f"got {sorted(params)}")
    try:
        return build(float(params[name]))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"radial parameter {name!r} must be a number, got {params[name]!r}") from None


# ---------------------------------------------------------------------------
# sphere-component densities
# ---------------------------------------------------------------------------

def log_sphere_density(d: int, theta) -> np.ndarray:
    """log of the marginal density of one coordinate of a uniform sphere point.

    At theta = +-1 the d = 2 density diverges (integrably) and d > 3 gives 0;
    d = 3 is the uniform density 1/2, kept finite here by skipping the
    0 * log(0) product.
    """
    if d < 2:
        raise ValidationError("sphere density needs d >= 2")
    theta = np.asarray(theta, dtype=float)
    const = gammaln(0.5 * d) - 0.5 * np.log(np.pi) - gammaln(0.5 * (d - 1))
    ex = 0.5 * (d - 3)
    if ex == 0.0:
        return np.broadcast_to(const, theta.shape).copy() if theta.ndim else \
            np.asarray(const)
    with np.errstate(divide="ignore"):
        return const + ex * np.log1p(-np.square(theta))


def log_is_density(a: float, b: float, x) -> np.ndarray:
    """log f_IS(a, b, x): the affinely mapped Beta(a, b) density on (-1, 1)."""
    if a <= 0 or b <= 0:
        raise ValidationError("f_IS parameters must be positive")
    x = np.asarray(x, dtype=float)
    return (-(a + b - 1.0) * np.log(2.0) + gammaln(a + b) - gammaln(a)
            - gammaln(b) + (a - 1.0) * np.log1p(x) + (b - 1.0) * np.log1p(-x))


# ---------------------------------------------------------------------------
# marginal tails and the first-order approximation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _legendre() -> tuple[np.ndarray, np.ndarray]:
    x, wt = np.polynomial.legendre.leggauss(_GL_N)
    return 0.5 * (x + 1.0), 0.5 * wt          # mapped to (0, 1)


def _panels(d: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes theta and weights f(theta) dtheta, _GL_N on each panel of ``edges``."""
    x, wt = _legendre()
    lo, width = np.asarray(edges[:-1])[:, None], np.diff(edges)[:, None]
    theta = (lo + width * x).ravel()
    return theta, (width * wt).ravel() * np.exp(log_sphere_density(d, theta))


@lru_cache(maxsize=None)
def _sphere_rule(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes theta and weights of the rule over (0, 1]: a plain panel on
    (0, 1/2], then theta = 1 - s, s = t^2/2 on [1/2, 1], which absorbs the
    d = 2 endpoint singularity (1 - theta^2 = s (2 - s) has no cancellation)."""
    t, wt = _legendre()
    s = 0.5 * t * t
    f = np.exp(log_sphere_density(d, 0.0)) * (s * (2.0 - s)) ** (0.5 * (d - 3))
    theta, weight = _panels(d, [0.0, 0.5])
    return np.concatenate([theta, 1.0 - s]), np.concatenate([weight, f * t * wt])


def marginal_tail_single(u: float, lam: float, bg: float, radial: RadialLaw,
                         d: int) -> float:
    """P(lam * exp(bg * R * Theta) > u) for one risk of a d-risk model with a
    generic radial law: a fixed Gauss-Legendre rule over theta in (0, 1] for
    P(R > |w| / theta) f(theta), w = log(u / lam) / bg (the complement when
    u < lam, so the integrand is always a decaying tail)."""
    if u <= 0:
        return 1.0
    w = np.log(u / lam) / bg
    a = abs(w)
    theta, weight = _sphere_rule(d)
    if 0.0 < a < 0.25:      # split (0, 1/2] where the tail switches on
        cuts = [s * a for s in (0.5, 2.0, 8.0, 32.0) if s * a < 0.5]
        low_theta, low_weight = _panels(d, [0.0, *cuts, 0.5])
        theta = np.concatenate([low_theta, theta[_GL_N:]])
        weight = np.concatenate([low_weight, weight[_GL_N:]])
    p = float(np.dot(weight, radial.tail(a / theta)))
    return p if w >= 0 else 1.0 - p


def marginal_tails(m: "ModelSpec", x, k=None) -> np.ndarray:
    """P(X_k > x) elementwise over broadcast ``x`` and ``k`` (every risk when
    ``k`` is None); 1 for x <= 0.  Gaussian laws take the normal tail, others
    one :func:`marginal_tail_single` per element."""
    x, k = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.arange(m.d) if k is None else k)
    lam, bg = m.lam[k], m.bg[k]
    if m.radial.is_gaussian:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            p = normal_tail(np.log(x / lam) / bg)
        return np.where(x > 0, p, 1.0)
    return np.array([marginal_tail_single(float(xi), float(li), float(bi),
                                          m.radial, m.d)
                     for xi, li, bi in zip(x.flat, lam.flat, bg.flat)]
                    ).reshape(x.shape)


# ---------------------------------------------------------------------------
# scaling machinery: estar and the importance-sampling tuning b
# ---------------------------------------------------------------------------

def estar_single(u: float, lam: float, bg: float, radial: RadialLaw) -> float:
    """Model-adjusted scaling value estar(u) for one risk.

    Built from the auxiliary function e(x) = x * nu(log x) of exp(R); the
    radial-law composition collapses to bg * u * nu(log(u/lam) / bg).  For
    the chi law this is (bg)^2 * u / log(u / lam).
    """
    if u <= lam:
        raise ValidationError(f"estar needs u > lambda (u={u:g}, lambda={lam:g})")
    arg = np.log(u / lam) / bg
    return float(bg * u * radial.nu(arg))


def estar_hazard_single(u: float, lam: float, bg: float) -> float:
    """estar(u) under the alternative auxiliary choice e(x) = log(x)/x.

    This is the variant entering the max-domain diagnostic condition for the
    Gaussian case; it decays like a power of u rather than growing.
    """
    if u <= lam:
        raise ValidationError(f"estar needs u > lambda (u={u:g}, lambda={lam:g})")
    v = np.log(u / lam) / bg          # log of (u/lam)^(1/bg)
    return float(u * v * bg * np.exp(-2.0 * v))


def is_tuning_b(u: float, lam: float, bg: float, radial: RadialLaw,
                a: float, d: int) -> float:
    """Shape parameter b of f_IS(a, b) for one stratum.

    Minimizes the leading-order second moment of the weighted estimator,
    which scales like B(a, b) * T^b with T = u*log(u)/estar(u): the optimum
    solves digamma(b) - digamma(a+b) + log(T) = 0, with u cancelled in
    log T = log(log u) - log(bg) - log(nu(log(u/lam)/bg)) so that nothing
    overflows.  For large u the solution behaves like 1/log(T), which
    restores the asymptotically vanishing second-moment growth; at benchmark
    scale it reproduces the reference variation coefficients.  Capped below
    (d-1) where the weight's second moment would diverge.
    """
    if a <= 0:
        raise ValidationError("f_IS parameter a must be positive")
    cap = max(0.75 * (d - 1), 0.05)
    if u <= lam:            # not a rare threshold for this risk; no tuning signal
        return cap
    with np.errstate(divide="ignore", invalid="ignore"):     # u <= 1: no signal
        logt = float(np.log(np.log(u)) - np.log(bg)
                     - np.log(radial.nu(np.log(u / lam) / bg)))
    if not np.isfinite(logt) or logt <= 0.0:
        return cap

    def fn(b: float) -> float:
        return digamma(b) - digamma(a + b) + logt

    if fn(cap) <= 0.0:       # optimum above the cap
        return cap
    from scipy.optimize import brentq

    b = brentq(fn, 1e-9, cap, xtol=1e-12, rtol=1e-12)
    return float(max(b, 0.05))


def is_tuning_b_vector(m: "ModelSpec", u: float, a: float) -> np.ndarray:
    """Per-stratum IS shape parameters b_j (each from that index's lam, beta)."""
    return np.array([is_tuning_b(u, float(lam), float(bg), m.radial, a, m.d)
                     for lam, bg in zip(m.lam, m.bg)])
