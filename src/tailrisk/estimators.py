"""The five estimators of alpha(u) = P(S(u) > u).

Each estimator consumes one replication worth of randomness and returns one
unbiased sample of alpha(u):

* ``cmc``  - crude Monte Carlo indicator.
* ``ak``   - the classical conditional estimator for i.i.d. risks (applied to
  non-identical marginals through a random-permutation symmetrization, which
  is unbiased for independent risks and heuristic otherwise).  It draws
  independent normals, so it is biased whenever the risks are dependent: a
  correlation other than the identity, or a non-Gaussian radial law
  (flagged, and flagged as heuristic too when the marginals differ).
* ``mak``  - stratified conditional estimator: condition on all normal
  coordinates except the one driving the selected risk, and integrate the
  remaining one-dimensional Gaussian over the event
  {sum exceeds u} & {selected risk is the maximum}.
* ``zr``   - condition on the sphere direction and integrate the radius over
  the exceedance set.
* ``rn``   - like ``zr`` but stratified, conditioned on the maximum, with an
  importance-sampled driver sphere component.

Estimators run only as block engines (:func:`make_engine`), which vectorize
replications; every block of ``randsrc.BLOCK_SIZE`` replications always
generates its full draw layout, so results are identical however a run is
chunked.  Everything that depends only on (model, u) is computed once by
:func:`make_context` as plain arrays: the factors, the stratification weights
(``tails.marginal_tails``, which ``ak`` also calls) and the per-stratum
coefficients of the cores.  The f_IS tuning belongs to ``rn`` alone and is
computed when its engine is built.  The conditional cores
are pure functions of the context and the drawn coordinates, exposed
separately (``*_values``) so tests can drive them with hand-picked inputs;
each ends in one solve-and-measure step, a call to
``rootfind.exceedance_bounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import randsrc, tails
from .errors import (NumericalAbortError, ThresholdTooExtremeError,
                     ValidationError)
from .linalg import factorize_all
from .model import ModelSpec
from .rootfind import exceedance_bounds
from .tails import log_is_density, log_sphere_density, normal_cdf, normal_tail

_THETA_CLAMP = 1.0 - 1e-15
_REDRAW_ATTEMPTS = 8
KNOWN_ESTIMATORS = ("cmc", "ak", "mak", "zr", "rn")


@dataclass(frozen=True)
class EstimatorKind:
    """An estimator name plus its options (``a`` is the f_IS weight exponent,
    used by ``rn`` only; the reference choice is a large constant, 10)."""

    name: str
    a: float = 10.0

    def __post_init__(self):
        if self.name not in KNOWN_ESTIMATORS:
            raise ValidationError(
                f"unknown estimator {self.name!r}; valid names: "
                f"{', '.join(KNOWN_ESTIMATORS)}")
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValidationError("estimator parameter a must be positive and finite")

    @classmethod
    def parse(cls, spec) -> "EstimatorKind":
        """From a name, an ``"rn(a=5)"`` string or a ``{"name": "rn", "a": 5}``
        mapping; ``a`` is the only option."""
        if isinstance(spec, EstimatorKind):
            return spec
        if isinstance(spec, dict):
            opts = dict(spec)
        else:
            name, _, rest = str(spec).partition("(")
            pairs = [part.split("=") for part in rest.strip().removesuffix(")").split(",")
                     if part.strip()]
            if any(len(pair) != 2 for pair in pairs):
                raise ValidationError(f"estimator options must be key=value: {spec!r}")
            opts = {key.strip().lower(): value for key, value in pairs} | {"name": name}
        name = str(opts.pop("name", "")).strip().lower()
        a = opts.pop("a", 10.0)
        if opts:
            raise ValidationError(f"unknown option(s) {', '.join(sorted(opts))} for "
                                  f"estimator {name!r}; the only option is a")
        try:
            return cls(name=name, a=float(a))
        except (TypeError, ValueError):
            raise ValidationError(f"estimator parameter a must be a number, got {a!r}") from None

    def label(self) -> str:
        if self.name == "rn":
            return f"RN(a={self.a:g})"
        return self.name.upper()


class BlockResult(NamedTuple):
    values: np.ndarray
    root_failures: int
    clamped: int


@dataclass(frozen=True)
class ReplicationContext:
    """Everything a replication needs that depends only on (model, u).

    Immutable and shared read-only across workers by every estimator;
    streams stay outside.  ``factors[j]`` is A^(j) (see
    ``linalg.factorize_all``), and the (d, d) arrays are indexed
    [stratum j, risk i].
    """

    model: ModelSpec
    u: float
    factors: np.ndarray      # (d, d, d)
    strat_weights: np.ndarray
    strat_total: float
    log_u: float             # -inf for u <= 0
    loglam: np.ndarray       # log(lam_i), (d,)
    mak_slopes: np.ndarray   # bg_i * A^(j)[i, 0]
    e2_coeff: np.ndarray     # bg_j - bg_i * A^(j)[i, 0]
    dlog: np.ndarray         # log(lam_i) - log(lam_j)

    @property
    def d(self) -> int:
        return self.model.d


def make_context(model: ModelSpec, u: float) -> ReplicationContext:
    """Precompute factorizations, stratification weights and the per-stratum
    coefficients of the conditional cores.

    Underflowed marginal tails are kept as zeros here; ``make_engine``
    refuses every estimator but ``cmc`` when they all underflow.
    """
    if u < 0:
        raise ValidationError("threshold u must be nonnegative")
    factors = factorize_all(model.sigma)
    weights = tails.marginal_tails(model, u)
    loglam = np.log(model.lam)
    mak_slopes = model.bg * factors[:, :, 0]
    return ReplicationContext(
        model=model, u=u, factors=factors, strat_weights=weights,
        strat_total=float(weights.sum()),
        log_u=float(np.log(u)) if u > 0 else -np.inf, loglam=loglam,
        mak_slopes=mak_slopes, e2_coeff=model.bg[:, None] - mak_slopes,
        dlog=loglam[None, :] - loglam[:, None])


# ---------------------------------------------------------------------------
# interval measures
# ---------------------------------------------------------------------------

def _normal_measure(lo, hi):
    """P(lo <= N < hi), using the numerically favorable tail difference."""
    upper = normal_tail(lo) - normal_tail(hi)
    lower = normal_cdf(hi) - normal_cdf(lo)
    with np.errstate(invalid="ignore"):      # -inf + inf rows take either branch
        out = np.where(lo + hi > 0.0, upper, lower)
    return np.where(hi > lo, np.maximum(out, 0.0), 0.0)


def _solve_and_measure(ctx, logk, slopes, w_lo, w_hi, dead, measure):
    """Measure of {t : sum_i exp(logk_i + slopes_i t) > u} within the window
    [w_lo, w_hi), zero on ``dead`` or empty windows.  Returns (values, ok).

    Raising psi_hi to psi_lo leaves disjoint pieces as they are and turns the
    whole-line encoding (+inf, -inf) into one left piece covering the window.
    """
    psi_lo, psi_hi, ok = exceedance_bounds(logk, slopes, ctx.log_u)
    psi_hi = np.maximum(psi_hi, psi_lo)
    vals = (measure(w_lo, np.minimum(psi_lo, w_hi))
            + measure(np.maximum(psi_hi, w_lo), w_hi))
    return np.where(dead | (w_lo >= w_hi), 0.0, vals), ok


def _max_window(e2_coeff, rhs, j, d):
    """Intersection over i != j of the half-lines {t * g_i >= rhs_i}."""
    g = np.broadcast_to(e2_coeff, rhs.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = rhs / g
    noti = np.arange(d)[None, :] != j
    lo = np.max(np.where(noti & (g > 0), bound, -np.inf), axis=1)
    hi = np.min(np.where(noti & (g < 0), bound, np.inf), axis=1)
    dead = np.any(noti & (g == 0) & (rhs > 0), axis=1)
    return lo, hi, dead


# ---------------------------------------------------------------------------
# conditional value cores (pure functions of the drawn coordinates)
# ---------------------------------------------------------------------------

def mak_conditional_values(ctx: ReplicationContext, j: int,
                           rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial max-sum probability estimates Z_j given the non-driver normals.

    ``rest``: (m, d-1) standard normals for the coordinates other than the
    driver of risk j.  Returns (values, converged): the standard-normal
    measure, in the driver coordinate, of {sum > u} & {X_j is the maximum}.
    """
    if not ctx.model.radial.is_gaussian:
        raise ValidationError(
            "the conditional normal estimator requires the Gaussian radial law")
    bg = ctx.model.bg
    rest = np.atleast_2d(np.asarray(rest, dtype=float))
    if rest.shape[1] != ctx.d - 1:
        raise ValidationError(f"rest must have {ctx.d - 1} columns")
    c = rest @ ctx.factors[j][:, 1:].T           # (mb, d) conditional offsets
    logk = ctx.loglam[None, :] + bg[None, :] * c
    slopes = np.broadcast_to(ctx.mak_slopes[j], logk.shape)
    rhs = ctx.dlog[j][None, :] + bg[None, :] * c
    w_lo, w_hi, dead = _max_window(ctx.e2_coeff[j], rhs, j, ctx.d)
    return _solve_and_measure(ctx, logk, slopes, w_lo, w_hi, dead, _normal_measure)


def _radial_measure(ctx):
    """P(lo <= R < hi) for windows inside the radius domain [0, inf)."""
    tail = ctx.model.radial.tail

    def measure(lo, hi):
        return np.where(hi > lo, np.maximum(tail(lo) - tail(hi), 0.0), 0.0)

    return measure


def rn_conditional_values(ctx: ReplicationContext, j: int, theta_j: np.ndarray,
                          rest: np.ndarray, a: float,
                          b: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted conditional estimates given the driver sphere component.

    ``theta_j``: (m,) importance-sampled driver components in (-1, 1);
    ``rest``: (m, d-1) unit vectors (the conditional direction of the other
    sphere coordinates); ``a, b``: the f_IS parameters theta_j was drawn
    with.  Returns (values, converged) where values already carry the
    importance weight f(theta)/f_IS(a, b, theta).
    """
    bg = ctx.model.bg
    theta_j = np.atleast_1d(np.asarray(theta_j, dtype=float))
    rest = np.atleast_2d(np.asarray(rest, dtype=float))
    u_sphere = randsrc.assemble_sphere_with_driver(theta_j, rest)
    theta = u_sphere @ ctx.factors[j].T                   # (mb, d), theta[:, j] == theta_j
    logw = (log_sphere_density(ctx.d, theta_j)
            - log_is_density(a, b, theta_j))
    slopes = bg[None, :] * theta
    e2 = bg[j] * theta_j[:, None] - bg[None, :] * theta
    w_lo, w_hi, dead = _max_window(e2, np.broadcast_to(ctx.dlog[j], e2.shape), j, ctx.d)
    w_lo = np.maximum(w_lo, 0.0)                          # radius domain
    vals, ok = _solve_and_measure(ctx, np.broadcast_to(ctx.loglam, slopes.shape),
                                  slopes, w_lo, w_hi, dead, _radial_measure(ctx))
    return np.exp(logw) * vals, ok


def zr_values(ctx: ReplicationContext,
              theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radial exceedance probability given the correlated direction theta.

    ``theta``: (m, d) rows A @ U for sphere-uniform U.  The value is
    P(R < psi_lo) 1{psi_lo > 0} + P(R > psi_hi), i.e. the radial measure of
    the exceedance set restricted to the nonnegative half-line.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    slopes = ctx.model.bg[None, :] * theta
    mcount = theta.shape[0]
    return _solve_and_measure(ctx, np.broadcast_to(ctx.loglam, slopes.shape), slopes,
                              np.zeros(mcount), np.full(mcount, np.inf), False,
                              _radial_measure(ctx))


def _risks(ctx: ReplicationContext, w: np.ndarray) -> np.ndarray:
    """The risks lam_i * exp(bg_i * Y_i) for driver-coordinate rows ``w``,
    with Y = w A^T for the plain Cholesky factor A."""
    m = ctx.model
    y = w @ ctx.factors[0].T
    with np.errstate(over="ignore"):
        return m.lam * np.exp(m.bg * y)


def cmc_values(ctx: ReplicationContext, w: np.ndarray) -> np.ndarray:
    """Indicator of S(u) > u from driver-coordinate draws: standard normals
    (Gaussian radial) or rows R * U (any radial law)."""
    with np.errstate(over="ignore"):
        s = np.sum(_risks(ctx, w), axis=1)
    return (s > ctx.u).astype(float)


def ak_values(ctx: ReplicationContext, normals: np.ndarray,
              cond: np.ndarray) -> np.ndarray:
    """Classical conditional estimator values from normal draws.

    ``cond`` holds the conditioning index per row (the classical choice is
    the last index, for identical marginals).  The value is
    d * F-bar_cond(max(u + X_cond - S, max over the other X_i)); at d = 1
    the inner maximum is over nothing, -inf.
    """
    x = _risks(ctx, normals)
    s = np.sum(x, axis=1)
    x_cond = x[np.arange(x.shape[0]), cond]
    masked = np.where(np.arange(ctx.d)[None, :] == cond[:, None], -np.inf, x)
    arg = np.maximum(ctx.u + x_cond - s, np.max(masked, axis=1))
    arg = np.maximum(arg, np.finfo(float).tiny)     # argument is positive a.s.
    return ctx.d * tails.marginal_tails(ctx.model, arg, cond)


# ---------------------------------------------------------------------------
# block engines
# ---------------------------------------------------------------------------

def identical_marginals(m: ModelSpec) -> bool:
    """True when every risk has the same weight and exponent slope."""
    return bool(np.all(m.lam == m.lam[0]) and np.all(m.beta == m.beta[0]))


def _redrawn(draw, count: int, where: str) -> tuple[np.ndarray, int, int]:
    """Evaluate ``draw(count) -> (values, ok, clamped)`` and redraw the rows
    whose root solve did not converge, up to ``_REDRAW_ATTEMPTS`` times.

    Returns (values, redrawn rows, clamped draws over every attempt).
    """
    vals, ok, clamped = draw(count)
    failures = 0
    for _ in range(_REDRAW_ATTEMPTS):
        if ok.all():
            break
        bad = np.where(~ok)[0]
        failures += bad.size
        redraw, ok_new, more = draw(bad.size)
        vals[bad] = redraw
        ok[bad] = ok_new
        clamped += more
    if not ok.all():
        raise NumericalAbortError(
            f"root solver kept failing {where} after {_REDRAW_ATTEMPTS} redraws")
    return vals, failures, clamped


def _stratified_engine(ctx, core):
    """Shared stratify / group loop for the mak and rn engines.

    ``core(gen, j, count) -> (values, ok, clamped)`` draws the conditional
    randomness for ``count`` rows of stratum j and evaluates it.
    """
    z = ctx.strat_weights
    ztot = ctx.strat_total

    def engine(gen: np.random.Generator, mb: int) -> BlockResult:
        idx = randsrc.stratified_indices(gen, mb, z)
        values = np.zeros(mb)
        failures = clamped = 0
        for j in range(ctx.d):
            rows = np.where(idx == j)[0]
            if rows.size == 0:
                continue
            vals, fails, clamps = _redrawn(partial(core, gen, j), rows.size,
                                           f"in stratum {j}")
            values[rows] = ztot * vals / z[j]
            failures += fails
            clamped += clamps
        return BlockResult(values, failures, clamped)

    return engine


def make_engine(ctx: ReplicationContext, kind: EstimatorKind
                ) -> Callable[[np.random.Generator, int], BlockResult]:
    """Build the vectorized per-block sampler for one estimator.

    The returned callable maps (generator, block_rows) to the replication
    values for those rows; its draw layout is fixed by (estimator, model, u)
    so replication k sees the same randomness regardless of chunking.  An
    ``rn`` engine tunes its f_IS shape parameters for ``kind.a`` here.
    Every kind but ``cmc``, whose zero is an honest hit count, raises
    ``ThresholdTooExtremeError`` where all marginal tails underflow.
    """
    d = ctx.d
    kname = kind.name

    if kname == "cmc":
        if ctx.model.radial.is_gaussian:
            def engine(gen, mb):
                return BlockResult(cmc_values(ctx, gen.standard_normal((mb, d))), 0, 0)
        else:
            def engine(gen, mb):
                q = np.clip(gen.random(mb), 2.0 ** -53, 1.0 - 2.0 ** -53)
                radii = np.array([ctx.model.radial.quantile(v) for v in q])
                w = radii[:, None] * randsrc.sphere_matrix(gen, mb, d)
                return BlockResult(cmc_values(ctx, w), 0, 0)
        return engine

    if not np.isfinite(ctx.strat_total) or ctx.strat_total <= 0.0:
        raise ThresholdTooExtremeError(
            f"all marginal tails underflowed at u={ctx.u:g}: threshold too extreme")

    if kname == "ak":
        symmetrize = not identical_marginals(ctx.model)

        def engine(gen, mb):
            normals = gen.standard_normal((mb, d))
            cond = gen.integers(0, d, size=mb) if symmetrize else np.full(mb, d - 1)
            return BlockResult(ak_values(ctx, normals, cond), 0, 0)

        return engine

    if kname == "mak":
        def core(gen, j, count):
            vals, ok = mak_conditional_values(ctx, j, gen.standard_normal((count, d - 1)))
            return vals, ok, 0

        return _stratified_engine(ctx, core)

    if kname == "zr":
        def core(gen, count):
            u_sphere = randsrc.sphere_matrix(gen, count, d)
            vals, ok = zr_values(ctx, u_sphere @ ctx.factors[0].T)
            return vals, ok, 0

        def engine(gen, mb):
            return BlockResult(*_redrawn(partial(core, gen), mb, "in zr"))

        return engine

    # rn, the one kind left
    if d == 1:
        # no sphere component to reweight: the conditional probability is
        # the marginal tail itself, with zero variance (and the
        # stratification scale ztot/z_1 cancels)
        z1 = float(ctx.strat_weights[0])

        def engine(gen, mb):
            return BlockResult(np.full(mb, z1), 0, 0)

        return engine

    a = float(kind.a)
    is_b = tails.is_tuning_b_vector(ctx.model, ctx.u, a)

    def core(gen, j, count):
        b = float(is_b[j])
        theta_j = randsrc.beta_symmetric(gen, a, b, count)
        clamped = int(np.sum(np.abs(theta_j) >= _THETA_CLAMP))
        theta_j = np.clip(theta_j, -_THETA_CLAMP, _THETA_CLAMP)
        rest = randsrc.sphere_matrix(gen, count, d - 1)
        vals, ok = rn_conditional_values(ctx, j, theta_j, rest, a, b)
        return vals, ok, clamped

    return _stratified_engine(ctx, core)
