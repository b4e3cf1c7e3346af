"""Normal tails, radial laws, sphere densities, scaling machinery."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from tailrisk import ModelSpec, asymptotic_alpha, from_lognormal, reference_model
from tailrisk.errors import ValidationError
from tailrisk.tails import (chi_radial, estar_hazard_single, estar_single,
                            exp_power_radial, is_tuning_b, is_tuning_b_vector,
                            make_radial, marginal_tail_single, marginal_tails,
                            normal_tail)
from conftest import (is_density, sphere_density, sphere_expectation,
                      two_risk_model)

mp.mp.dps = 30


def one_risk(lam, bg):
    """The one-risk log-Gaussian model lam * exp(bg * N)."""
    return ModelSpec(lam=[lam], beta=[bg], gamma=1.0, sigma=np.eye(1),
                     radial=chi_radial(1))


# diagnostics of the scaling function nu, kept here because only the tests
# use them

def mean_excess(law, x):
    """E[R - x | R > x], by quadrature of the tail."""
    val, _ = integrate.quad(lambda t: float(law.tail(t)), x, np.inf,
                            epsrel=1e-11, limit=200)
    return val / float(law.tail(x))


def scaling_e(u, law):
    """Auxiliary function e(u) = u * nu(log u) of exp(R)."""
    u = np.asarray(u, dtype=float)
    return u * law.nu(np.log(u))


def beta_ratio_b(u, lam, bg, law):
    """The ratio form log(u) / log(u / estar(u)) of the IS shape parameter."""
    return float(np.log(u) / np.log(u / estar_single(u, lam, bg, law)))


# ---------------------------------------------------------------------------
# normal tail
# ---------------------------------------------------------------------------

def test_normal_tail_basics():
    assert normal_tail(0.0) == 0.5
    assert normal_tail(1.0) == pytest.approx(0.15865525393145705, rel=1e-14)
    for x in (0.1, 1.0, 5.0, 10.0):
        assert normal_tail(x) + normal_tail(-x) == pytest.approx(1.0, abs=1e-15)


def test_normal_tail_relative_error_far_out():
    # reference values from 30-digit arithmetic; float subnormals begin to
    # quantize the result beyond |x| ~ 37.5, so the precision claim stops there
    for x in (0.5, 2.0, 3.131757744514062, 8.0, 13.0, 21.0, 30.0, 35.0):
        exact = float(mp.ncdf(-mp.mpf(x)))
        assert normal_tail(x) == pytest.approx(exact, rel=1e-13)
    for x in (36.5, 37.0):
        exact = float(mp.ncdf(-mp.mpf(x)))
        assert normal_tail(x) == pytest.approx(exact, rel=5e-13)


# ---------------------------------------------------------------------------
# radial laws
# ---------------------------------------------------------------------------

def test_chi_radial_tail_and_quantile():
    law = chi_radial(10)
    # P(R > x) = P(chi2_10 > x^2), checked against high-precision gamma
    for x in (0.5, 2.0, 4.148, 8.0):
        exact = float(mp.gammainc(5, mp.mpf(x) ** 2 / 2, mp.inf) / mp.gamma(5))
        assert float(law.tail(x)) == pytest.approx(exact, rel=1e-12)
    for d in (1, 2, 3, 10):
        tail = chi_radial(d).tail
        assert np.all(tail(np.array([-np.inf, -1.0, -1e-300, -0.0, 0.0, 1e-300])) == 1.0)
        assert float(tail(np.inf)) == 0.0
    for q in (0.9, 0.1, 1e-6):
        assert float(law.tail(law.quantile(q))) == pytest.approx(q, rel=1e-10)


def test_chi_radial_gmda_ratio():
    # (tail(x + s nu(x)) / tail(x)) -> exp(-s).  The chi hazard is
    # x - (d-1)/x + O(x^-3), so nu = 1/x is accurate once x^2 >> d - 1:
    # within 10% on the whole grid at d = 2, and further out for d = 10.
    law = chi_radial(2)
    for x in (5.0, 10.0, 20.0):
        for s in (0.5, 1.0, 2.0):
            ratio = float(law.tail(x + s * law.nu(x)) / law.tail(x))
            assert ratio == pytest.approx(math.exp(-s), rel=0.10)
    law10 = chi_radial(10)
    for x in (20.0, 25.0):
        for s in (0.5, 1.0, 2.0):
            ratio = float(law10.tail(x + s * law10.nu(x)) / law10.tail(x))
            assert ratio == pytest.approx(math.exp(-s), rel=0.10)


def test_nu_chi_and_mean_excess():
    law = chi_radial(10)
    assert float(law.nu(10.0)) == pytest.approx(0.1)
    me = mean_excess(law, 10.0)
    assert me == pytest.approx(0.1, rel=0.15)
    # sharper GMDA spot check out at x = 20
    ratio = float(law.tail(20.0 + 1.0 / 20.0) / law.tail(20.0))
    assert ratio == pytest.approx(math.exp(-1.0), rel=0.05)


def test_nu_conditions_on_grid():
    # nu -> 0 and u * nu(log u) -> infinity along a wide grid
    law = chi_radial(10)
    xs = np.array([5.0, 10.0, 100.0, 1e4])
    nus = law.nu(xs)
    assert np.all(np.diff(nus) < 0) and nus[-1] < 1e-3
    us = np.array([1e2, 1e4, 1e6, 1e8])
    e_vals = scaling_e(us, law)
    assert np.all(np.diff(e_vals) > 0) and e_vals[-1] > 1e6


def test_exp_power_radial():
    law = exp_power_radial(2.0)
    assert float(law.tail(2.0)) == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert law.quantile(math.exp(-4.0)) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValidationError):
        exp_power_radial(1.0)


def test_radial_tails_far_out_are_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law in (chi_radial(10), exp_power_radial(1.5)):
            assert float(law.tail(1e300)) == 0.0
            assert np.array_equal(law.tail([-1.0, 0.0, 1e300, np.inf]),
                                  [1.0, 1.0, 0.0, 0.0])


def test_make_radial_registry():
    assert make_radial("chi", dof=4).name == "chi(4)"
    assert make_radial("exp-power", p=3.0).name == "exp-power(3.0)"
    with pytest.raises(ValidationError):
        make_radial("pareto")
    for params in ({}, {"d": 4}, {"dof": 4, "d": 4}, {"dof": "x"}):
        with pytest.raises(ValidationError):
            make_radial("chi", **params)


def test_davis_resnick_ratio_decreases():
    # P(R > log(cu)) / ((e(u)/u) P(R > log u)) falls toward 0 as u grows
    law = chi_radial(10)
    us = np.array([1e2, 1e3, 1e4, 1e5, 1e6])
    ratios = []
    for u in us:
        num = float(law.tail(np.log(2.0 * u)))
        den = float(scaling_e(u, law) / u * law.tail(np.log(u)))
        ratios.append(num / den)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.05 * ratios[0]


# ---------------------------------------------------------------------------
# sphere densities
# ---------------------------------------------------------------------------

def test_sphere_density_d3_uniform():
    assert float(sphere_density(3, 0.0)) == pytest.approx(0.5, rel=1e-14)
    assert float(sphere_density(3, 0.7)) == pytest.approx(0.5, rel=1e-14)


def test_sphere_density_endpoint_conventions():
    assert float(sphere_density(3, 1.0)) == pytest.approx(0.5, rel=1e-14)
    assert np.isposinf(sphere_density(2, 1.0))      # integrable singularity
    assert float(sphere_density(5, -1.0)) == 0.0
    with pytest.raises(ValidationError):
        sphere_density(1, 0.0)


def test_sphere_density_value_d10():
    # gamma-ratio oracle evaluated directly
    exact = math.gamma(5.0) / (math.sqrt(math.pi) * math.gamma(4.5))
    assert float(sphere_density(10, 0.0)) == pytest.approx(exact, rel=1e-12)
    assert exact == pytest.approx(1.164104726615, rel=1e-9)


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_sphere_density_normalizes(d):
    val = sphere_expectation(lambda th: 1.0, d)
    assert val == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("a", [1.0, 10.0])
@pytest.mark.parametrize("b", [0.3, 1.0, 4.34])
def test_is_density_normalizes(a, b):
    val, _ = integrate.quad(lambda x: float(is_density(a, b, x)), -1.0, 1.0,
                            epsrel=1e-12, points=[-1.0, 1.0], limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_is_density_uniform_case():
    assert float(is_density(1.0, 1.0, 0.3)) == pytest.approx(0.5, rel=1e-14)


# ---------------------------------------------------------------------------
# marginal tails and the first-order approximation
# ---------------------------------------------------------------------------

def test_marginal_tail_at_weight():
    m = two_risk_model()
    assert marginal_tails(m, 1.0)[0] == pytest.approx(0.5, rel=1e-14)


def test_marginal_tail_bench_value(bench_model):
    # i = 10 risk at u = 20000: the normal tail at log(20000)/sqrt(10)
    exact = 0.000868815947190463  # 30-digit normal tail, frozen
    assert marginal_tails(bench_model, 20000.0)[9] == pytest.approx(exact, rel=1e-12)


def test_marginal_tail_generic_matches_gaussian():
    # the quadrature path with the chi radial must agree with the closed form
    law = chi_radial(2)
    as_generic = type(law)(name=law.name, tail=law.tail, quantile=law.quantile,
                           nu=law.nu, gaussian_dim=None)
    for u in (1.5, 5.0, 40.0):
        direct = marginal_tails(one_risk(1.0, 1.0), u)[0]
        via_quad = marginal_tail_single(u, 1.0, 1.0, as_generic, d=2)
        assert via_quad == pytest.approx(direct, rel=1e-8)


def test_marginal_tail_below_weight_split():
    # u below the risk weight: complementary split keeps the value in (1/2, 1)
    law = chi_radial(3)
    generic = type(law)(name="g", tail=law.tail, quantile=law.quantile,
                        nu=law.nu, gaussian_dim=None)
    val = marginal_tail_single(0.2, 1.0, 1.0, generic, d=3)
    exact = marginal_tails(one_risk(1.0, 1.0), 0.2)[0]
    assert val == pytest.approx(exact, rel=1e-8)
    assert 0.5 < val < 1.0


def test_marginal_tail_generic_vs_monte_carlo():
    # 1e7-sample plain Monte Carlo of lam * exp(bg * R * Theta) at u = 10
    law = chi_radial(2)
    generic = type(law)(name="g", tail=law.tail, quantile=law.quantile,
                        nu=law.nu, gaussian_dim=None)
    val = marginal_tail_single(10.0, 1.0, 1.0, generic, d=2)
    rng = np.random.default_rng(606)
    n = 10_000_000
    z = rng.standard_normal((n, 2))
    x = np.exp(z[:, 0])          # R * Theta of a 2-dim spherical Gaussian
    hits = float(np.mean(x > 10.0))
    se = math.sqrt(hits * (1 - hits) / n)
    assert abs(val - hits) < 4 * se


# P(exp(R * Theta) > e^w) for the exp-power radius R (tail exp(-x^p)) and one
# coordinate Theta of a uniform point on the d-sphere, keyed by (p, d), at
# GENERIC_W (up to w = 30 for p = 2.5): 17 digits of
# mp_generic_tail(p, d, w, breaks=240) at 40 digits, which agrees with 120
# breakpoints at 30 digits to 3e-22 or better.  For p = 2.5 and w >= 18.9 the
# value is below the double range, so the rule must return 0.
GENERIC_W = (-3, -0.1, -1e-3, 1e-3, 0.01, 0.1, 0.5, 1, 3.1, 6.7, 11.5, 18.9, 30, 60)
GENERIC_TAIL_EXACT = {
    (1.5, 2): (
        "9.9927409861372195e-1", "5.7296614784698846e-1", "5.0084067171524913e-1",
        "4.9915932828475087e-1", "4.9185448444417923e-1", "4.2703385215301154e-1",
        "2.2289782783146542e-1", "8.8927511960467796e-2", "5.4697242053283942e-4",
        "2.2328359281763878e-9", "5.952576196712501e-19", "7.38603747998052e-38",
        "1.1008735713025466e-73", "2.1722545727559778e-204"),
    (1.5, 3): (
        "9.9972293929179942e-1", "6.024484013569333e-1", "5.0130784661575144e-1",
        "4.9869215338424856e-1", "4.8760518235026662e-1", "3.975515986430667e-1",
        "1.6918427358638566e-1", "5.5737226441354523e-2", "2.0495283289914805e-4",
        "5.1759658965406211e-10", "9.4904556306806199e-20", "8.2277121464803235e-39",
        "8.7292044229782435e-75", "1.0286439016435926e-205"),
    (1.5, 10): (
        "9.999950312134181e-1", "6.9049178734559897e-1", "5.0299191566598724e-1",
        "4.9700808433401276e-1", "4.7280987293661144e-1", "3.0950821265440103e-1",
        "6.2594427265239681e-2", "9.6709213750868974e-3", "3.3481535174701115e-6",
        "6.0114292057305318e-13", "1.1025465784535967e-23", "9.2089997395910745e-44",
        "9.8687408627140421e-81", "3.3464731880340451e-213"),
    (2.5, 2): (
        "9.9999998945033981e-1", "5.4797175757312909e-1", "5.0047403310414281e-1",
        "4.9952596689585719e-1", "4.9525728061013994e-1", "4.5202824242687091e-1",
        "2.543958810610023e-1", "7.1244078179380226e-2", "2.6791778659342706e-9",
        "8.031427451418836e-53", "2.0069562443278641e-197", "2.3616482233979748e-677",
        "5.0065390704811223e-2144"),
    (2.5, 3): (
        "9.9999999799179707e-1", "5.7340614448206255e-1", "5.0074458558348094e-1",
        "4.9925541441651906e-1", "4.9255737208301926e-1", "4.2659385551793745e-1",
        "1.8474300239726734e-1", "3.7061041216019653e-2", "4.9139073235987107e-10",
        "5.859868441295898e-54", "7.4965879375549465e-199", "4.7475497466184153e-679",
        "5.6512499214503537e-2146"),
    (2.5, 10): (
        "9.9999999999935764e-1", "6.5779277738050403e-1", "5.017333496444772e-1",
        "4.982666503555228e-1", "4.8273033446061659e-1", "3.4220722261949597e-1",
        "5.1770835141498927e-2", "2.4519758712986242e-3", "1.254141336821535e-13",
        "3.6718984994015643e-60", "4.6663501983308784e-207", "3.940880364655856e-689",
        "8.3011073986391484e-2158"),
}


def mp_generic_tail(p, d, w, breaks=120):
    """mpmath oracle for P(exp(R * Theta) > e^w): the integral over t in (0, 1)
    of P(R > |w| / theta) f(theta) dtheta/dt with theta = 1 - t^2, on uniform
    breakpoints, and its complement for w < 0.  The integrand carries the factor
    exp(|w|^p) because mp.quad's tolerance is absolute: without it, tails far
    below 1 stop at the first refinement."""
    p, w = mp.mpf(p), mp.mpf(w)
    a = abs(w)
    c = mp.gamma(mp.mpf(d) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d - 1) / 2))
    ex = mp.mpf(d - 3) / 2

    def g(t):
        theta = 1 - t * t
        if theta <= 0:
            return mp.zero
        return (2 * c * t ** (d - 2) * (2 - t * t) ** ex
                * mp.exp(a ** p - (a / theta) ** p))

    val = mp.quad(g, mp.linspace(0, 1, breaks)) * mp.exp(-a ** p)
    return val if w >= 0 else 1 - val


@pytest.mark.parametrize("p", [1.5, 2.5])
@pytest.mark.parametrize("d", [2, 3, 10])
def test_generic_marginal_tail_vs_mpmath(p, d):
    # the fixed rule against the converged oracle, from w = -3 to the far tail
    # (elliptical-1t's ak rows sit at w = 3.1 to 18.9); an underflowed value
    # must be exactly 0
    law = exp_power_radial(p)
    for w, exact in zip(GENERIC_W, GENERIC_TAIL_EXACT[p, d]):
        got = marginal_tail_single(math.exp(w), 1.0, 1.0, law, d)
        assert got == pytest.approx(float(exact), rel=1e-11, abs=0.0), w


@pytest.mark.parametrize("p, d, w", [(1.5, 2, 18.9), (1.5, 10, 60),
                                     (2.5, 10, 6.7), (2.5, 2, -0.1)])
def test_generic_tail_constants_recompute(p, d, w):
    exact = GENERIC_TAIL_EXACT[p, d][GENERIC_W.index(w)]
    assert mp_generic_tail(p, d, w) == pytest.approx(mp.mpf(exact), rel=1e-16)


def test_generic_tail_constants_d3_closed_form():
    # for d = 3 Theta is uniform on (-1, 1), and the tail integral is
    # (a / 2p) * Gamma(-1/p, a^p) with a = |w|: an oracle free of quadrature
    for p in (1.5, 2.5):
        for w, exact in zip(GENERIC_W, GENERIC_TAIL_EXACT[p, 3]):
            a, q = abs(mp.mpf(w)), mp.mpf(p)
            val = a / (2 * q) * mp.gammainc(-1 / q, a ** q)
            val = val if w >= 0 else 1 - val
            assert val == pytest.approx(mp.mpf(exact), rel=1e-16), (p, w)


def test_marginal_tails_elementwise():
    # array levels x against array risk indices k, including the level 0
    m = reference_model(0.4, d=3)
    x = np.array([0.0, 0.5, 3.0, 40.0, 7.0])
    k = np.array([2, 0, 1, 2, 0])
    want = normal_tail(np.log(x[1:] / m.lam[k[1:]]) / m.bg[k[1:]])
    got = marginal_tails(m, x, k)
    assert got[0] == 1.0
    assert np.array_equal(got[1:], want)
    law = exp_power_radial(1.5)
    generic = ModelSpec(lam=m.lam, beta=m.beta, gamma=m.gamma, sigma=m.sigma,
                        radial=law)
    want = [marginal_tail_single(xi, m.lam[ki], m.bg[ki], law, 3)
            for xi, ki in zip(x, k)]
    got = marginal_tails(generic, x, k)
    assert want[0] == 1.0
    assert np.array_equal(got, want)
    assert np.array_equal(marginal_tails(generic, 3.0),
                          marginal_tails(generic, np.full(3, 3.0), np.arange(3)))


def test_asymptotic_alpha_d1():
    m = two_risk_model()
    one = reference_model(0.0, d=10)
    approx = asymptotic_alpha(m, 3.0)
    tails_v = marginal_tails(m, 3.0)
    assert approx.full == pytest.approx(tails_v.sum(), rel=1e-14)
    del one


def test_asymptotic_alpha_bench(bench_model):
    # frozen 30-digit oracle values for the benchmark model at u = 20000;
    # the full sum sits just below the simulated alpha ~ 0.00104
    approx = asymptotic_alpha(bench_model, 20000.0)
    assert approx.full == pytest.approx(0.00102147614591, rel=1e-9)
    assert approx.reduced == pytest.approx(0.000868815947190463, rel=1e-9)
    assert approx.reduced < approx.full < 0.00104


def test_marginal_tail_monotonicity(bench_model):
    # nonincreasing in u, increasing in the risk weight
    us = [5e3, 2e4, 1e5, 5e5]
    vals = [marginal_tails(bench_model, u)[9] for u in us]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    grow = [marginal_tails(one_risk(lam, 1.0), 30.0)[0]
            for lam in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(grow, grow[1:]))


def test_marginal_tail_gaussian_vs_monte_carlo():
    # closed form against 1e7 direct samples of lam * exp(bg * N)
    lam, bg, u = 2.0, 1.5, 40.0
    want = marginal_tails(one_risk(lam, bg), u)[0]
    rng = np.random.default_rng(607)
    hits = float(np.mean(lam * np.exp(bg * rng.standard_normal(10_000_000)) > u))
    se = math.sqrt(hits * (1 - hits) / 1e7)
    assert abs(want - hits) < 4 * se


def test_asymptotic_full_dominates_reduced():
    m = two_risk_model(sigma2=(1.0, 4.0))
    approx = asymptotic_alpha(m, 30.0)
    assert approx.full > approx.reduced > 0.0
    mt = two_risk_model()              # identical marginals: sets coincide
    approx_t = asymptotic_alpha(mt, 30.0)
    assert approx_t.full == pytest.approx(approx_t.reduced, rel=1e-14)


def test_asymptotic_alpha_reduced_rule():
    m = two_risk_model(sigma2=(1.0, 4.0), mu=(np.log(5.0), 0.0))
    # beta = (1, 2): only the second index dominates
    approx = asymptotic_alpha(m, 50.0)
    assert approx.reduced == pytest.approx(marginal_tails(m, 50.0)[1], rel=1e-12)


# ---------------------------------------------------------------------------
# scaling machinery
# ---------------------------------------------------------------------------

def test_estar_closed_form():
    law = chi_radial(5)
    u = math.exp(10.0)
    assert estar_single(u, 1.0, 1.0, law) == pytest.approx(u / 10.0, rel=1e-12)


def test_estar_requires_rare_threshold():
    law = chi_radial(5)
    with pytest.raises(ValidationError):
        estar_single(0.5, 1.0, 1.0, law)


def test_beta_ratio_reference_value():
    law = chi_radial(5)
    u = math.exp(10.0)
    assert beta_ratio_b(u, 1.0, 1.0, law) == pytest.approx(4.342944819032518,
                                                           rel=1e-12)


def test_xi_tends_to_zero(bench_model):
    lam, bg = float(bench_model.lam[9]), float(bench_model.bg[9])
    vals = [estar_single(u, lam, bg, bench_model.radial) / u
            for u in (1e3, 1e4, 1e6, 1e8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_estar_hazard_decays_fast():
    # e(x) = log(x)/x variant decays like a power of u
    vals = [estar_hazard_single(u, 1.0, 1.0) / u for u in (1e2, 1e4, 1e6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def test_is_tuning_b_positive_decreasing(bench_model):
    law = chi_radial(10)
    bs = [is_tuning_b(u, 1.0, math.sqrt(10.0), law, a=10.0, d=10)
          for u in (2e4, 4e4, 5e5, 1e8, 1e12)]
    assert all(b > 0 for b in bs)
    assert all(x > y for x, y in zip(bs, bs[1:]))
    vec = is_tuning_b_vector(bench_model, 20000.0, a=10.0)
    assert vec.shape == (10,)
    assert vec[-1] == pytest.approx(1.5975, rel=1e-3)


def test_is_tuning_b_finite_at_the_largest_threshold():
    # T = u log(u) / estar(u) overflows at u = 1e308; log T does not
    m = from_lognormal([0.0, 0.0], [1e4, 1e4], 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = is_tuning_b_vector(m, 1e308, a=10.0)
    assert np.all(np.isfinite(b)) and b[0] == b[1]
    assert b[0] == pytest.approx(0.5823, rel=1e-3)


def test_is_tuning_b_cap_below_weight():
    # u at or below lambda: no tuning signal, fall back to the cap
    law = chi_radial(2)
    assert is_tuning_b(0.5, 1.0, 1.0, law, a=10.0, d=2) == pytest.approx(0.75)
