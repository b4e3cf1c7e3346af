"""Random sources: reproducibility, distributional and IS-weight checks."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from tailrisk.errors import ValidationError
from tailrisk.randsrc import (RngStream, assemble_sphere_with_driver,
                              beta_symmetric, block_stream, sphere_matrix,
                              stratified_indices)


def test_streams_reproduce_bit_for_bit():
    a = RngStream(seed=123, stream=7).generator().standard_normal(64)
    b = RngStream(seed=123, stream=7).generator().standard_normal(64)
    assert np.array_equal(a, b)
    c = RngStream(seed=123, stream=8).generator().standard_normal(64)
    assert not np.array_equal(a, c)
    d = block_stream(124, 7).generator().standard_normal(64)
    assert not np.array_equal(a, d)


def test_normal_vector_moments_and_ks():
    # the engines' normal draws: standard_normal on a block stream
    gen = block_stream(5, 0).generator()
    x = gen.standard_normal((1_000_000, 1))[:, 0]
    assert abs(x.mean()) < 4e-3
    assert abs(x.var(ddof=1) - 1.0) < 0.01
    # Kolmogorov-Smirnov against the normal cdf on a smaller sample
    y = np.sort(gen.standard_normal((100_000, 1))[:, 0])
    n = y.size
    grid = (np.arange(1, n + 1)) / n
    ks = np.max(np.maximum(np.abs(grid - ndtr(y)),
                           np.abs((np.arange(n)) / n - ndtr(y))))
    assert ks < 1.95 / math.sqrt(n)


def test_sphere_uniform_norm_and_moments():
    gen = RngStream(seed=6, stream=0).generator()
    u = sphere_matrix(gen, 1_000_000, 10)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    # E[U_1] = 0 within 4 standard errors; E[U_1^2] = 1/d within 1%
    se = np.sqrt(1.0 / 10 / u.shape[0])
    assert abs(u[:, 0].mean()) < 4 * se
    assert abs((u ** 2)[:, 0].mean() - 0.1) < 0.001
    assert sphere_matrix(RngStream(1, 1).generator(), 1, 3).shape == (1, 3)
    with pytest.raises(ValidationError):
        sphere_matrix(RngStream(1, 1).generator(), 1, 0)


def test_stratification_index_degenerate_and_balanced():
    gen = RngStream(seed=3, stream=0).generator()
    assert np.all(stratified_indices(gen, 1000, np.array([1.0, 0.0, 0.0])) == 0)
    gen = RngStream(seed=9, stream=0).generator()
    idx = stratified_indices(gen, 1_000_000, np.array([1.0, 1.0]))
    freq = np.mean(idx == 0)
    assert abs(freq - 0.5) < 4 * 0.5 / 1000.0


def test_stratification_matches_bench_weights(bench_model):
    from tailrisk.tails import marginal_tails
    w = marginal_tails(bench_model, 20000.0)
    gen = RngStream(seed=10, stream=0).generator()
    idx = stratified_indices(gen, 500_000, w)
    p10 = w[-1] / w.sum()
    freq = np.mean(idx == 9)
    se = math.sqrt(p10 * (1 - p10) / idx.size)
    assert abs(freq - p10) < 4 * se


def _f_is(a, b, x):
    c = (2.0 ** -(a + b - 1.0) * math.gamma(a + b)
         / (math.gamma(a) * math.gamma(b)))
    return c * (1.0 + x) ** (a - 1.0) * (1.0 - x) ** (b - 1.0)


def test_sphere_component_is_uniform_case():
    gen = RngStream(seed=11, stream=0).generator()
    x = beta_symmetric(gen, 1.0, 1.0, 1_000_000)
    se = math.sqrt(1.0 / 3.0 / x.size)
    assert abs(x.mean()) < 4 * se
    assert np.all((x > -1) & (x < 1))


def test_sphere_component_is_tail_mass():
    # a = 10, b = 0.5: empirical mass of (0.9, 1) against quadrature of f_IS
    gen = RngStream(seed=12, stream=0).generator()
    x = beta_symmetric(gen, 10.0, 0.5, 1_000_000)
    want, _ = integrate.quad(lambda t: _f_is(10.0, 0.5, t), 0.9, 1.0,
                             points=[1.0], limit=200)
    got = float(np.mean(x > 0.9))
    se = math.sqrt(want * (1 - want) / x.size)
    assert abs(got - want) < 4 * se
    assert want == pytest.approx(0.6828484245344547, rel=1e-9)


def test_sphere_component_is_beta22_variance():
    gen = RngStream(seed=13, stream=0).generator()
    x = beta_symmetric(gen, 2.0, 2.0, 1_000_000)
    assert abs(x.mean()) < 4 * math.sqrt(0.2 / x.size)
    assert x.var(ddof=1) == pytest.approx(0.2, rel=0.02)
    assert np.all((x > -1) & (x < 1))
    with pytest.raises(ValidationError):
        beta_symmetric(gen, 0.0, 2.0, 1)


def test_conditional_sphere_rest_two_dim():
    gen = RngStream(seed=20, stream=0).generator()
    rest = sphere_matrix(gen, 400, 1)
    vals = assemble_sphere_with_driver(np.zeros(400), rest)[:, 1]
    assert set(np.round(vals, 12)) == {-1.0, 1.0}
    # unbiased sign split
    assert abs(np.mean(vals)) < 4 / math.sqrt(len(vals))


def test_conditional_sphere_rest_norm_and_domain():
    gen = RngStream(seed=21, stream=0).generator()
    theta = np.array([0.73, -0.2, 0.0, 1.0])
    out = assemble_sphere_with_driver(theta, sphere_matrix(gen, 4, 5))
    assert np.array_equal(out[:, 0], theta)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    # at the pole the rest of the point collapses to zero
    assert np.all(out[3, 1:] == 0.0)


def test_conditional_composition_recovers_uniform():
    # draw the driver from the true marginal, assemble, and compare each
    # coordinate's distribution with a directly drawn sphere point (KS)
    gen = RngStream(seed=22, stream=0).generator()
    d, n = 5, 100_000
    theta = beta_symmetric(gen, (d - 1) / 2.0, (d - 1) / 2.0, n)
    assembled = assemble_sphere_with_driver(theta, sphere_matrix(gen, n, d - 1))
    direct = sphere_matrix(gen, n, d)
    for k in range(d):
        a = np.sort(assembled[:, k])
        b = np.sort(direct[:, k])
        # two-sample KS with c(alpha) for alpha ~ 1e-3: 1.95 * sqrt(2/n)
        grid = np.concatenate([a, b])
        fa = np.searchsorted(a, grid, side="right") / n
        fb = np.searchsorted(b, grid, side="right") / n
        assert np.max(np.abs(fa - fb)) < 1.95 * math.sqrt(2.0 / n)


def test_importance_weight_identity():
    # E_fIS[ f/f_IS * 1{x in (0.5, 1)} ] equals the f-mass of (0.5, 1)
    d, a, b = 6, 4.0, 0.7
    gen = RngStream(seed=23, stream=0).generator()
    x = beta_symmetric(gen, a, b, 1_000_000)

    def f_sphere(t):
        c = math.gamma(d / 2) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2))
        return c * (1 - t * t) ** ((d - 3) / 2)

    w = np.array([f_sphere(t) / _f_is(a, b, t) for t in x[x > 0.5]])
    est = w.sum() / x.size
    want, _ = integrate.quad(f_sphere, 0.5, 1.0, limit=200)
    # standard error of the weighted indicator mean
    full = np.zeros(x.size)
    full[:w.size] = w
    se = full.std(ddof=1) / math.sqrt(x.size)
    assert abs(est - want) < 4 * se
