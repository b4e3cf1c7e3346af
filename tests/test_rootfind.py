"""Exceedance sets of convex exponential sums, checked against brute force."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrisk.rootfind import exceedance_bounds


def bounds(coeffs, slopes, level) -> tuple[float, float]:
    """(psi_lo, psi_hi) of one instance, solved as a one-row batch."""
    c = np.asarray(coeffs, dtype=float)
    lo, hi, ok = exceedance_bounds(np.log(c)[None, :],
                                   np.asarray(slopes, dtype=float)[None, :],
                                   np.log(level))
    assert ok.all()
    return float(lo[0]), float(hi[0])


def inside(lo, hi, x):
    """Membership in (-inf, lo) u [hi, inf); the whole line (+inf, +inf)
    holds every x, the empty set (-inf, +inf) none."""
    x = np.asarray(x, dtype=float)
    return (x < lo) | (x >= hi)


def endpoints(lo, hi):
    """The finite boundaries of a set that is not the whole line."""
    return [] if lo >= hi else [e for e in (lo, hi) if np.isfinite(e)]


def value(coeffs, slopes, x):
    """h(x) in linear space, for one point."""
    return float(np.sum(np.asarray(coeffs) * np.exp(np.asarray(slopes) * x)))


def brute_force_exceeds(coeffs, slopes, level, xs: np.ndarray) -> np.ndarray:
    """Direct log-space evaluation of h(x) > level on a grid."""
    z = np.log(coeffs)[None, :] + np.asarray(slopes)[None, :] * xs[:, None]
    logh = np.logaddexp.reduce(z, axis=1)
    return logh > np.log(level)


def random_expsum(rng):
    d = rng.integers(1, 11)
    return rng.uniform(1e-3, 10.0, d), rng.uniform(-3.0, 3.0, d)


def test_single_exponential_threshold():
    u = 123.0
    lo, hi = bounds([1.0], [1.0], u)
    assert lo == -np.inf
    assert hi == pytest.approx(np.log(u), abs=1e-12)


def test_quadratic_in_exp_x():
    # e^x + e^{2x} = 6  <=>  y^2 + y - 6 = 0 with y = e^x  =>  y = 2
    lo, hi = bounds([1.0, 1.0], [1.0, 2.0], 6.0)
    assert lo == -np.inf
    assert hi == pytest.approx(np.log(2.0), abs=1e-12)


def test_cosh_two_sided():
    # e^{-x} + e^{x} = 3 at x = +-log((3+sqrt(5))/2)
    root = 0.9624236501192069
    c, s = [1.0, 1.0], [-1.0, 1.0]
    lo, hi = bounds(c, s, 3.0)
    assert lo == pytest.approx(-root, abs=1e-10)
    assert hi == pytest.approx(root, abs=1e-10)
    # cross-check against a fine grid scan
    xs = np.arange(-5.0, 5.0, 1e-3)
    want = brute_force_exceeds(c, s, 3.0, xs)
    got = inside(lo, hi, xs)
    off = np.where(want != got)[0]
    assert all(min(abs(xs[k] - e) for e in endpoints(lo, hi)) < 1e-6 for k in off)


def test_psi_bounds_cases():
    lo, hi = bounds([2.0, 1.0], [0.5, 1.5], 50.0)
    assert lo == -np.inf and np.isfinite(hi)

    lo, hi = bounds([2.0, 1.0], [-0.5, -1.5], 50.0)
    assert np.isfinite(lo) and hi == np.inf

    # mixed sum whose minimum sits above the level: everything exceeds
    assert bounds([10.0, 10.0], [-1.0, 1.0], 5.0) == (np.inf, np.inf)


def test_zero_slope_folding():
    # constant 5 + e^x > 6  <=>  e^x > 1  <=>  x > 0
    c, s = [5.0, 1.0], [0.0, 1.0]
    lo, hi = bounds(c, s, 6.0)
    assert lo == -np.inf
    assert hi == pytest.approx(0.0, abs=1e-12)
    # constant alone exceeds: whole line
    assert bounds(c, s, 4.0) == (np.inf, np.inf)
    # pure constant below the level: empty set
    assert bounds([1.0], [0.0], 2.0) == (-np.inf, np.inf)


def test_grid_scan_agreement_sample():
    # a fast slice of the full acceptance sweep (which runs 1000 instances)
    rng = np.random.default_rng(2001)
    xs = np.arange(-50.0, 50.0, 1e-3)
    for _ in range(60):
        c, s = random_expsum(rng)
        level = float(rng.uniform(0.5, 50.0))
        lo, hi = bounds(c, s, level)
        want = brute_force_exceeds(c, s, level, xs)
        eps = endpoints(lo, hi)
        off = np.where(want != inside(lo, hi, xs))[0]
        for k in off:
            assert eps and min(abs(xs[k] - e) for e in eps) < 1e-6


def test_endpoint_residuals():
    rng = np.random.default_rng(2002)
    for _ in range(200):
        c, s = random_expsum(rng)
        level = float(rng.uniform(0.5, 50.0))
        for e in endpoints(*bounds(c, s, level)):
            assert abs(value(c, s, e) - level) <= 1e-8 * level


def test_monotone_in_level():
    rng = np.random.default_rng(2003)
    xs = np.linspace(-30, 30, 4001)
    for _ in range(40):
        c, s = random_expsum(rng)
        inside_lo = inside(*bounds(c, s, 2.0), xs)
        inside_hi = inside(*bounds(c, s, 20.0), xs)
        assert not np.any(inside_hi & ~inside_lo)


def test_batched_matches_scalar():
    rng = np.random.default_rng(2004)
    hs = [random_expsum(rng) for _ in range(50)]
    d = max(c.size for c, _ in hs)
    logc = np.full((len(hs), d), -np.inf)
    slopes = np.zeros((len(hs), d))
    for i, (c, s) in enumerate(hs):
        logc[i, :c.size] = np.log(c)
        slopes[i, :c.size] = s
    level = 7.5
    lo, hi, ok = exceedance_bounds(logc, slopes, np.log(level))
    assert ok.all()
    for i, (c, s) in enumerate(hs):
        want_lo, want_hi = bounds(c, s, level)
        if want_lo >= want_hi:
            assert lo[i] >= hi[i]
        else:
            assert np.isclose(lo[i], want_lo, atol=1e-9, rtol=1e-9, equal_nan=False)
            assert np.isclose(hi[i], want_hi, atol=1e-9, rtol=1e-9, equal_nan=False)


def test_memory_layout_does_not_change_the_bounds():
    # the solver reduces over terms-major copies of its inputs, so row-major
    # rows, the transpose of a terms-major array and a stride-0 broadcast of
    # one coefficient row must give the same bits
    rng = np.random.default_rng(2005)
    logc_row = np.array([0.0, 0.5, -1.0, 1.0])
    slopes = np.vstack([
        [1.0, 2.0, 0.5, 1.0],         # increasing
        [-1.0, -2.0, -0.5, -1.0],     # decreasing
        [1.0, -1.0, 2.0, -0.5],       # mixed
        [0.0, 1.0, -1.0, 2.0],        # zero-slope term folded into the level
        [0.0, 0.0, 0.0, 1.0],         # folded constant swallows the level
        [-1.0, 1.0, -1.0, 1.0],       # mixed, minimum above the level
        [0.0, 0.0, 0.0, 0.0],         # constant below the level: empty
        rng.normal(0.0, 1.5, (400, 4)),
    ])
    tail = rng.normal(3.0, 2.0, 400)
    tail[rng.random(400) < 0.05] = -np.inf            # nonpositive levels
    level = np.concatenate([[3.0, 3.0, 3.0, 3.0, 1.0, 0.5, 3.0], tail])
    logc = np.broadcast_to(logc_row, slopes.shape)
    runs = [exceedance_bounds(np.ascontiguousarray(logc), slopes, level),
            exceedance_bounds(np.ascontiguousarray(logc.T).T,
                              np.ascontiguousarray(slopes.T).T, level),
            exceedance_bounds(logc, slopes, level)]
    lo, hi, ok = runs[0]
    assert ok.all()
    assert np.isneginf(lo[0]) and np.isfinite(hi[0])
    assert np.isfinite(lo[1]) and np.isposinf(hi[1])
    assert np.isfinite(lo[2]) and np.isfinite(hi[2]) and lo[2] < hi[2]
    assert np.isfinite(lo[3]) and np.isfinite(hi[3])
    assert lo[4] >= hi[4] and lo[5] >= hi[5]
    assert np.isneginf(lo[6]) and np.isposinf(hi[6])
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            assert np.array_equal(a, b)


def test_mirrored_rows_swap_and_negate_the_bounds_bitwise():
    # left boundaries are solved as right roots of the negated-slope rows, so
    # negating the slopes must give exactly (-psi_hi, -psi_lo); whole rows,
    # (+inf, +inf), stay whole
    rng = np.random.default_rng(2006)
    n, d = 5000, 5
    logc = rng.normal(0.0, 2.0, (n, d))
    logc[rng.random((n, d)) < 0.2] = -np.inf          # absent terms
    slopes = rng.normal(0.0, 1.5, (n, d))
    slopes[rng.random((n, d)) < 0.1] = 0.0            # folded into the level
    level = rng.normal(2.0, 2.0, n)
    level[rng.random(n) < 0.02] = -np.inf             # nonpositive levels
    lo, hi, ok = exceedance_bounds(logc, slopes, level)
    mlo, mhi, mok = exceedance_bounds(logc, -slopes, level)
    assert ok.all() and mok.all()
    whole = np.isposinf(lo) & np.isposinf(hi)
    assert 100 < whole.sum() < n // 2
    assert np.array_equal(whole, np.isposinf(mlo) & np.isposinf(mhi))
    assert np.all(lo[~whole] < hi[~whole])
    bits = lambda x: x.view(np.int64)                  # noqa: E731  -0.0 != 0.0
    assert np.array_equal(bits(mlo[~whole]), bits(-hi[~whole]))
    assert np.array_equal(bits(mhi[~whole]), bits(-lo[~whole]))


def test_near_degenerate_negative_slope():
    # a barely negative slope still owns the left branch; the crossing point
    # sits far out and the bracket endpoint residual rounds to zero, which
    # must not confuse the solve (regression: the left root once collapsed
    # onto the interior minimizer)
    c, s = [8.07150192, 3.01350545], [0.65169533, -0.03767282]
    level = 23.6185
    lo, hi = bounds(c, s, level)
    assert np.isfinite(lo) and np.isfinite(hi) and lo < hi
    assert lo < -50.0
    assert abs(value(c, s, lo) - level) <= 1e-8 * level
    assert not inside(lo, hi, -30.0)          # between the branches


def test_huge_levels_stay_in_log_space():
    # levels at the e^40+ scale must not overflow: everything runs on logs
    c, s = [1e-4, 2.0, 5.0], [3.0, 0.7, 1.3]
    lo, hi = bounds(c, s, 5e5)
    assert lo == -np.inf and np.isfinite(hi)
    assert abs(value(c, s, hi) - 5e5) <= 1e-8 * 5e5
    assert np.isfinite(bounds(c, s, 1e280)[1])


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
