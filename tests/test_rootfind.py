"""Exceedance sets of convex exponential sums, checked against brute force."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrisk.errors import ValidationError
from tailrisk.rootfind import (ExpSum, IntervalSet, exceedance_bounds,
                               exceedance_set, psi_bounds)


def brute_force_exceeds(h: ExpSum, level: float, xs: np.ndarray) -> np.ndarray:
    """Direct log-space evaluation of h(x) > level on a grid."""
    z = np.log(h.coeffs)[None, :] + h.slopes[None, :] * xs[:, None]
    logh = np.logaddexp.reduce(z, axis=1)
    return logh > np.log(level)


def endpoints(iset: IntervalSet):
    out = []
    for a, b in iset.intervals:
        if np.isfinite(a):
            out.append(a)
        if np.isfinite(b):
            out.append(b)
    return out


def test_single_exponential_threshold():
    h = ExpSum(coeffs=[1.0], slopes=[1.0])
    u = 123.0
    iset = exceedance_set(h, u)
    assert len(iset.intervals) == 1
    lo, hi = iset.intervals[0]
    assert hi == np.inf
    assert lo == pytest.approx(np.log(u), abs=1e-12)


def test_quadratic_in_exp_x():
    # e^x + e^{2x} = 6  <=>  y^2 + y - 6 = 0 with y = e^x  =>  y = 2
    h = ExpSum(coeffs=[1.0, 1.0], slopes=[1.0, 2.0])
    iset = exceedance_set(h, 6.0)
    assert len(iset.intervals) == 1
    assert iset.intervals[0][0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_cosh_two_sided():
    # e^{-x} + e^{x} = 3 at x = +-log((3+sqrt(5))/2)
    root = 0.9624236501192069
    h = ExpSum(coeffs=[1.0, 1.0], slopes=[-1.0, 1.0])
    iset = exceedance_set(h, 3.0)
    assert len(iset.intervals) == 2
    (a0, b0), (a1, b1) = iset.intervals
    assert a0 == -np.inf and b1 == np.inf
    assert b0 == pytest.approx(-root, abs=1e-10)
    assert a1 == pytest.approx(root, abs=1e-10)
    # cross-check against a fine grid scan
    xs = np.arange(-5.0, 5.0, 1e-3)
    want = brute_force_exceeds(h, 3.0, xs)
    got = np.array([iset.contains(x) for x in xs])
    off = np.where(want != got)[0]
    assert all(min(abs(xs[k] - e) for e in endpoints(iset)) < 1e-6 for k in off)


def test_psi_bounds_cases():
    inc = ExpSum(coeffs=[2.0, 1.0], slopes=[0.5, 1.5])
    pb = psi_bounds(inc, 50.0)
    assert pb.lower is None and pb.upper is not None and not pb.whole_line

    dec = ExpSum(coeffs=[2.0, 1.0], slopes=[-0.5, -1.5])
    pb = psi_bounds(dec, 50.0)
    assert pb.upper is None and pb.lower is not None and not pb.whole_line

    # mixed sum whose minimum sits above the level: everything exceeds
    deep = ExpSum(coeffs=[10.0, 10.0], slopes=[-1.0, 1.0])
    pb = psi_bounds(deep, 5.0)
    assert pb.whole_line
    assert exceedance_set(deep, 5.0).intervals == ((-np.inf, np.inf),)


def test_nonneg_domain_clipping():
    h = ExpSum(coeffs=[1.0, 1.0], slopes=[-1.0, 1.0])
    iset = exceedance_set(h, 3.0, domain="nonneg")
    # the left branch lies entirely below zero except [0, -root) is empty:
    # root ~ 0.962 so [0, 0.962...) belongs to the left exceedance piece? no:
    # left piece is (-inf, -0.962), which misses [0, inf) entirely
    assert len(iset.intervals) == 1
    assert iset.intervals[0][0] == pytest.approx(0.9624236501192069, abs=1e-10)


def test_zero_slope_folding():
    # constant 5 + e^x > 6  <=>  e^x > 1  <=>  x > 0
    h = ExpSum(coeffs=[5.0, 1.0], slopes=[0.0, 1.0])
    iset = exceedance_set(h, 6.0)
    assert iset.intervals[0][0] == pytest.approx(0.0, abs=1e-12)
    # constant alone exceeds: whole line
    assert exceedance_set(h, 4.0).intervals == ((-np.inf, np.inf),)
    # pure constant below the level: empty set
    flat = ExpSum(coeffs=[1.0], slopes=[0.0])
    assert exceedance_set(flat, 2.0).is_empty


def test_convexity_second_differences():
    # spot-check h'' >= 0 through second differences on random instances
    rng = np.random.default_rng(2005)
    for _ in range(25):
        h = random_expsum(rng)
        xs = rng.uniform(-10.0, 10.0, 30)
        step = 1e-3
        d2 = h.value(xs + step) - 2.0 * h.value(xs) + h.value(xs - step)
        assert np.all(d2 >= -1e-9 * np.abs(h.value(xs)))


def test_validation():
    with pytest.raises(ValidationError):
        ExpSum(coeffs=[1.0, -1.0], slopes=[1.0, 2.0])
    with pytest.raises(ValidationError):
        exceedance_set(ExpSum(coeffs=[1.0], slopes=[1.0]), -3.0)
    with pytest.raises(ValidationError):
        exceedance_set(ExpSum(coeffs=[1.0], slopes=[1.0]), 3.0, domain="weird")


def random_expsum(rng):
    d = rng.integers(1, 11)
    return ExpSum(coeffs=rng.uniform(1e-3, 10.0, d),
                  slopes=rng.uniform(-3.0, 3.0, d))


def test_grid_scan_agreement_sample():
    # a fast slice of the full acceptance sweep (which runs 1000 instances)
    rng = np.random.default_rng(2001)
    xs = np.arange(-50.0, 50.0, 1e-3)
    for _ in range(60):
        h = random_expsum(rng)
        level = float(rng.uniform(0.5, 50.0))
        iset = exceedance_set(h, level)
        want = brute_force_exceeds(h, level, xs)
        eps = endpoints(iset)
        got = np.zeros(xs.size, dtype=bool)
        for a, b in iset.intervals:
            got |= (xs >= a) & (xs < b)
        off = np.where(want != got)[0]
        for k in off:
            assert eps and min(abs(xs[k] - e) for e in eps) < 1e-6


def test_endpoint_residuals():
    rng = np.random.default_rng(2002)
    for _ in range(200):
        h = random_expsum(rng)
        level = float(rng.uniform(0.5, 50.0))
        for e in endpoints(exceedance_set(h, level)):
            assert abs(h.value(e) - level) <= 1e-8 * level


def test_monotone_in_level():
    rng = np.random.default_rng(2003)
    xs = np.linspace(-30, 30, 4001)
    for _ in range(40):
        h = random_expsum(rng)
        lo_set = exceedance_set(h, 2.0)
        hi_set = exceedance_set(h, 20.0)
        inside_hi = np.array([hi_set.contains(x) for x in xs])
        inside_lo = np.array([lo_set.contains(x) for x in xs])
        assert not np.any(inside_hi & ~inside_lo)


def test_batched_matches_scalar():
    rng = np.random.default_rng(2004)
    hs = [random_expsum(rng) for _ in range(50)]
    d = max(h.coeffs.size for h in hs)
    logc = np.full((len(hs), d), -np.inf)
    slopes = np.zeros((len(hs), d))
    for i, h in enumerate(hs):
        logc[i, :h.coeffs.size] = np.log(h.coeffs)
        slopes[i, :h.coeffs.size] = h.slopes
    level = 7.5
    lo, hi, ok = exceedance_bounds(logc, slopes, np.log(level))
    assert ok.all()
    for i, h in enumerate(hs):
        pb = psi_bounds(h, level)
        if pb.whole_line:
            assert lo[i] >= hi[i]
        else:
            assert np.isclose(lo[i], -np.inf if pb.lower is None else pb.lower,
                              atol=1e-9, rtol=1e-9, equal_nan=False)
            assert np.isclose(hi[i], np.inf if pb.upper is None else pb.upper,
                              atol=1e-9, rtol=1e-9, equal_nan=False)


def test_near_degenerate_negative_slope():
    # a barely negative slope still owns the left branch; the crossing point
    # sits far out and the bracket endpoint residual rounds to zero, which
    # must not confuse the solve (regression: the left root once collapsed
    # onto the interior minimizer)
    h = ExpSum(coeffs=[8.07150192, 3.01350545],
               slopes=[0.65169533, -0.03767282])
    level = 23.6185
    iset = exceedance_set(h, level)
    assert len(iset.intervals) == 2
    left_end = iset.intervals[0][1]
    assert left_end < -50.0
    assert abs(h.value(left_end) - level) <= 1e-8 * level
    assert not iset.contains(-30.0)          # between the branches


def test_huge_levels_stay_in_log_space():
    # levels at the e^40+ scale must not overflow: everything runs on logs
    h = ExpSum(coeffs=[1e-4, 2.0, 5.0], slopes=[3.0, 0.7, 1.3])
    iset = exceedance_set(h, 5e5)
    lo = iset.intervals[0][0]
    assert np.isfinite(lo)
    assert abs(h.value(lo) - 5e5) <= 1e-8 * 5e5
    big = exceedance_set(h, 1e280)
    assert np.isfinite(big.intervals[0][0])


# ---------------------------------------------------------------------------
# property tests of the batched solver
# ---------------------------------------------------------------------------

# a term is (log-coefficient, slope): -inf marks an absent term; the sampled
# values produce tied coefficients and tied slopes
_TERM = st.tuples(
    st.one_of(st.just(-np.inf), st.sampled_from([0.0, 1.0, -3.0]),
              st.floats(-50.0, 50.0)),
    st.one_of(st.just(0.0), st.sampled_from([-1.0, 1.0, 2.0]),
              st.floats(0.05, 3.0), st.floats(-3.0, -0.05)))
_ROW = st.tuples(st.lists(_TERM, min_size=1, max_size=6),
                 st.one_of(st.sampled_from([0.0, 1.0]),
                           st.floats(np.log(1e-300), np.log(1e300))))
_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def batches(draw):
    """(logc, slopes, log_level) for a batch of rows padded with absent terms."""
    rows = draw(st.lists(_ROW, min_size=1, max_size=8))
    d = max(len(terms) for terms, _ in rows)
    logc = np.full((len(rows), d), -np.inf)
    slopes = np.zeros((len(rows), d))
    for i, (terms, _) in enumerate(rows):
        for k, (a, b) in enumerate(terms):
            logc[i, k], slopes[i, k] = a, b
    return logc, slopes, np.array([level for _, level in rows])


def excess(logc, slopes, level, t):
    """f(t) = log h(t) - log level for one row, in float64."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.logaddexp.reduce(logc[None, :] + slopes[None, :] * t[:, None],
                               axis=1) - level


def excess_exact(logc, slopes, level, t):
    """f(t) in 40-digit arithmetic, so its sign is exact at the probe points."""
    with mpmath.workdps(40):
        terms = [mpmath.exp(mpmath.mpf(a) + mpmath.mpf(b) * mpmath.mpf(t))
                 for a, b in zip(logc, slopes) if np.isfinite(a)]
        if not terms:
            return -mpmath.inf
        return mpmath.log(mpmath.fsum(terms)) - mpmath.mpf(level)


@_PROPERTY
@given(batches())
def test_property_converges_with_small_residual(batch):
    logc, slopes, level = batch
    lo, hi, ok = exceedance_bounds(logc, slopes, level)
    assert ok.all()
    for i in range(level.size):
        if lo[i] >= hi[i]:
            continue
        for e in (lo[i], hi[i]):
            if np.isfinite(e):
                resid = excess(logc[i], slopes[i], level[i], e)[0]
                assert abs(resid) <= 1e-9 * max(1.0, abs(level[i]))


@_PROPERTY
@given(batches())
def test_property_sign_change_at_endpoints(batch):
    # f > 0 just outside each endpoint; f < 0 just inside it whenever the
    # inside probe still lies between the two endpoints
    logc, slopes, level = batch
    lo, hi, _ = exceedance_bounds(logc, slopes, level)
    for i in range(level.size):
        if lo[i] >= hi[i]:
            continue
        for e, outward in ((lo[i], -1.0), (hi[i], 1.0)):
            if not np.isfinite(e):
                continue
            step = 1e-6 * max(1.0, abs(e))
            assert excess_exact(logc[i], slopes[i], level[i], e + outward * step) > 0
            inside = e - outward * step
            if lo[i] < inside < hi[i]:
                assert excess_exact(logc[i], slopes[i], level[i], inside) < 0


@_PROPERTY
@given(batches())
def test_property_whole_line_rows_stay_above_level(batch):
    # the minimum of f over a fine grid around its minimizer is >= 0, up to
    # the rounding of a log-sum-exp near the level
    logc, slopes, level = batch
    lo, hi, _ = exceedance_bounds(logc, slopes, level)
    for i in np.flatnonzero(lo >= hi):
        coarse = np.linspace(-2000.0, 2000.0, 40001)
        t0 = coarse[np.argmin(excess(logc[i], slopes[i], level[i], coarse))]
        fine = np.linspace(t0 - 0.1, t0 + 0.1, 2001)
        fmin = np.min(excess(logc[i], slopes[i], level[i], fine))
        assert fmin >= -1e-12 * max(1.0, abs(level[i]))


@_PROPERTY
@given(batches())
def test_property_single_term_rows_are_exact(batch):
    logc, slopes, level = batch
    lo, hi, _ = exceedance_bounds(logc, slopes, level)
    present = np.isfinite(logc)
    for i in np.flatnonzero(present.sum(axis=1) == 1):
        k = np.flatnonzero(present[i])[0]
        if slopes[i, k] == 0.0:
            continue
        root = (level[i] - logc[i, k]) / slopes[i, k]
        if slopes[i, k] > 0.0:
            assert lo[i] == -np.inf and hi[i] == root
        else:
            assert lo[i] == root and hi[i] == np.inf
