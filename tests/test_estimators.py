"""Estimator correctness: hand cases, unbiasedness, IS weights, determinism."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

import tailrisk.estimators as est
from tailrisk import tails
from tailrisk.errors import NumericalAbortError, ValidationError
from tailrisk.estimators import (EstimatorKind, ak_values,
                                 make_context, make_engine,
                                 mak_conditional_values, rn_conditional_values,
                                 zr_values)
from tailrisk.harness import run
from tailrisk.model import ModelSpec, from_lognormal, reference_model
from tailrisk.randsrc import RngStream
from tailrisk.tails import chi_radial, is_tuning_b_vector
from conftest import is_density, sphere_density, two_risk_model


def phi_bar(x):
    return ndtr(-np.asarray(x, dtype=float))


def one_risk_model():
    return from_lognormal([0.0], [1.0])


def collect(engine, n, seed=0):
    gen = RngStream(seed, 0).generator()
    return engine(gen, n).values


# ---------------------------------------------------------------------------
# estimator kinds
# ---------------------------------------------------------------------------

def test_kind_parsing():
    assert EstimatorKind.parse("MAK").name == "mak"
    assert EstimatorKind.parse("rn(a=5)").a == 5.0
    assert EstimatorKind.parse({"name": "RN", "a": 3}).a == 3.0
    assert EstimatorKind.parse("rn").label() == "RN(a=10)"
    with pytest.raises(ValidationError, match="cmc, ak, mak, zr, rn"):
        EstimatorKind.parse("isve")


# ---------------------------------------------------------------------------
# crude Monte Carlo
# ---------------------------------------------------------------------------

def test_cmc_trivial_levels():
    m = two_risk_model()
    ctx0 = make_context(m, 0.0)
    vals = collect(make_engine(ctx0, EstimatorKind("cmc")), 500)
    assert np.all(vals == 1.0)     # positive sums always exceed zero
    ctx_hi = make_context(m, 1e250)
    vals = collect(make_engine(ctx_hi, EstimatorKind("cmc")), 500)
    assert np.all(vals == 0.0)


def test_cmc_elliptical_path_matches_gaussian():
    m = two_risk_model()
    generic_law = dataclasses.replace(chi_radial(2), gaussian_dim=None)
    mg = ModelSpec(lam=m.lam, beta=m.beta, gamma=m.gamma, sigma=m.sigma,
                   radial=generic_law)
    u = 15.0
    n = 400_000
    a = collect(make_engine(make_context(m, u), EstimatorKind("cmc")), n, seed=3)
    b = collect(make_engine(make_context(mg, u), EstimatorKind("cmc")), n, seed=4)
    se = math.sqrt(2 * a.mean() * (1 - a.mean()) / n)
    assert abs(a.mean() - b.mean()) < 4 * se


# ---------------------------------------------------------------------------
# classical conditional estimator
# ---------------------------------------------------------------------------

def test_ak_single_risk_exact():
    ctx = make_context(one_risk_model(), 10.0)
    vals = collect(make_engine(ctx, EstimatorKind("ak")), 200)
    assert np.allclose(vals, phi_bar(math.log(10.0)), rtol=1e-12)
    assert vals.std() < 1e-15


def test_ak_iid_matches_cmc():
    m = two_risk_model()
    u = 10.0
    ctx = make_context(m, u)
    ak = collect(make_engine(ctx, EstimatorKind("ak")), 400_000, seed=5)
    cmc = collect(make_engine(ctx, EstimatorKind("cmc")), 2_000_000, seed=6)
    se = math.hypot(ak.std(ddof=1) / math.sqrt(ak.size),
                    cmc.std(ddof=1) / math.sqrt(cmc.size))
    assert abs(ak.mean() - cmc.mean()) < 4 * se


def test_ak_hand_value():
    # d = 2 iid: value is 2 * phibar(log(max(u + x2 - s, x1)))
    m = two_risk_model()
    ctx = make_context(m, 20.0)
    normals = np.array([[0.5, -0.2]])
    x = np.exp(normals[0])
    arg = max(20.0 + x[1] - x.sum(), x[0])
    want = 2.0 * phi_bar(math.log(arg))
    got = ak_values(ctx, normals, np.array([1]))
    assert got[0] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# conditional normal estimator
# ---------------------------------------------------------------------------

def test_mak_partial_single_risk_deterministic():
    ctx = make_context(one_risk_model(), 10.0)
    vals, ok = mak_conditional_values(ctx, 0, np.empty((100, 0)))
    assert ok.all()
    assert np.allclose(vals, phi_bar(math.log(10.0)), rtol=1e-12)


def test_mak_conditional_hand_case():
    # d=2, independent, lam=(1,1), beta=(1,1): given the other normal is 0,
    # Z_1 = phibar(log(u - 1)) for u > 2 (exceedance needs e^t > u - 1 and
    # the max condition needs e^t >= 1, i.e. t >= 0, which is implied)
    m = two_risk_model()
    ctx = make_context(m, 20.0)
    vals, ok = mak_conditional_values(ctx, 0, np.array([[0.0]]))
    assert ok.all()
    assert vals[0] == pytest.approx(phi_bar(math.log(19.0)), rel=1e-10)
    # at u < 2 with rest = 0 the sum condition is weaker than the max
    ctx2 = make_context(m, 1.5)
    vals2, _ = mak_conditional_values(ctx2, 0, np.array([[0.0]]))
    assert vals2[0] == pytest.approx(phi_bar(0.0), rel=1e-10)


def test_mak_conditional_correlated_oracle():
    # d=2, sigma12=0.5, j=0: given the non-driver normal n, the sum in the
    # driver t is e^t + e^{0.5 t + sqrt(0.75) n} and the max condition is
    # t >= 2 * sqrt(0.75) n; cross-check the root with an independent solver
    from scipy.optimize import brentq
    m = two_risk_model(rho=0.5)
    u = 10.0
    ctx = make_context(m, u)
    for n_rest in (-1.1, 0.3, 1.7):
        c1 = math.sqrt(0.75) * n_rest
        root = brentq(lambda t: math.exp(t) + math.exp(0.5 * t + c1) - u,
                      -50.0, 50.0, xtol=1e-13)
        want = phi_bar(max(root, 2.0 * c1))
        vals, ok = mak_conditional_values(ctx, 0, np.array([[n_rest]]))
        assert ok.all()
        assert vals[0] == pytest.approx(float(want), rel=1e-9)


def test_rn_conditional_correlated_oracle():
    # d=2, sigma12=0.5, j=0, rest = -1: Theta = (t, 0.5 t - sqrt(0.75(1-t^2)))
    # and the value is the radial measure of {sum > u} & {risk 0 maximal}
    # times f(t)/f_IS(a, b, t); oracle root from an independent solver
    from scipy.optimize import brentq
    m = two_risk_model(rho=0.5)
    u = 50.0
    ctx = make_context(m, u)
    t = 0.8
    th1 = 0.5 * t - math.sqrt(0.75 * (1.0 - t * t))
    # max condition: r (t - th1) >= 0 holds on all of r >= 0 since t > th1
    assert t > th1
    root = brentq(lambda r: math.exp(t * r) + math.exp(th1 * r) - u,
                  0.0, 100.0, xtol=1e-13)
    tail = ctx.model.radial.tail
    a = 10.0
    b = float(is_tuning_b_vector(m, u, a)[0])
    weight = float(sphere_density(2, t) / is_density(a, b, t))
    want = weight * float(tail(root))
    vals, ok = rn_conditional_values(ctx, 0, np.array([t]),
                                     np.array([[-1.0]]), a, b)
    assert ok.all()
    assert vals[0] == pytest.approx(want, rel=1e-9)
    # the +1 branch puts the other risk's direction above the driver's, the
    # max window collapses to {0}, and the value is exactly zero
    vals_up, ok_up = rn_conditional_values(ctx, 0, np.array([t]),
                                           np.array([[1.0]]), a, b)
    assert ok_up.all() and vals_up[0] == 0.0


def test_zr_mixed_slope_oracle():
    from scipy.optimize import brentq
    m = two_risk_model()
    u = 25.0
    ctx = make_context(m, u)
    theta = np.array([[0.6, -0.4]])
    root = brentq(lambda r: math.exp(0.6 * r) + math.exp(-0.4 * r) - u,
                  0.0, 100.0, xtol=1e-13)
    vals, ok = zr_values(ctx, theta)
    assert ok.all()
    assert vals[0] == pytest.approx(float(ctx.model.radial.tail(root)),
                                    rel=1e-9)


def test_mak_decomposition_sums_to_alpha():
    # sum_j E[Z_j] recovers alpha(u), checked against a large CMC run
    m = two_risk_model(rho=0.3)
    u = 12.0
    ctx = make_context(m, u)
    total = 0.0
    var = 0.0
    n = 300_000
    for j in range(2):
        gen = RngStream(30 + j, 0).generator()
        vals, ok = mak_conditional_values(ctx, j, gen.standard_normal((n, 1)))
        assert ok.all()
        total += vals.mean()
        var += vals.var(ddof=1) / n
    cmc = collect(make_engine(ctx, EstimatorKind("cmc")), 3_000_000, seed=77)
    se = math.hypot(math.sqrt(var), cmc.std(ddof=1) / math.sqrt(cmc.size))
    assert abs(total - cmc.mean()) < 4 * se


def test_mak_stratified_unbiased_vs_cmc():
    m = two_risk_model(rho=0.5)
    u = 14.0
    ctx = make_context(m, u)
    mak = collect(make_engine(ctx, EstimatorKind("mak")), 400_000, seed=8)
    cmc = collect(make_engine(ctx, EstimatorKind("cmc")), 3_000_000, seed=9)
    se = math.hypot(mak.std(ddof=1) / math.sqrt(mak.size),
                    cmc.std(ddof=1) / math.sqrt(cmc.size))
    assert abs(mak.mean() - cmc.mean()) < 4 * se


def test_mak_requires_gaussian_radial():
    m = two_risk_model()
    generic_law = dataclasses.replace(chi_radial(2), gaussian_dim=None)
    mg = ModelSpec(lam=m.lam, beta=m.beta, gamma=m.gamma, sigma=m.sigma,
                   radial=generic_law)
    ctx = make_context(mg, 10.0)
    with pytest.raises(ValidationError, match="Gaussian"):
        mak_conditional_values(ctx, 0, np.array([[0.0]]))


# ---------------------------------------------------------------------------
# radial conditional estimators
# ---------------------------------------------------------------------------

def test_zr_single_slope_reduction():
    # theta = (t, t) with t > 0 and equal slopes: the sum is (lam1+lam2)e^{bt r}
    m = two_risk_model()
    u = 100.0
    ctx = make_context(m, u)
    t = 0.6
    vals, ok = zr_values(ctx, np.array([[t, t]]))
    assert ok.all()
    want = ctx.model.radial.tail(math.log(u / 2.0) / t)
    assert vals[0] == pytest.approx(float(want), rel=1e-10)


def test_zr_level_zero_is_one():
    ctx = make_context(two_risk_model(), 0.0)
    vals = collect(make_engine(ctx, EstimatorKind("zr")), 100)
    assert np.all(vals == 1.0)


def test_zr_unbiased_vs_cmc():
    m = two_risk_model(rho=0.5)
    u = 14.0
    ctx = make_context(m, u)
    zr = collect(make_engine(ctx, EstimatorKind("zr")), 400_000, seed=10)
    cmc = collect(make_engine(ctx, EstimatorKind("cmc")), 3_000_000, seed=11)
    se = math.hypot(zr.std(ddof=1) / math.sqrt(zr.size),
                    cmc.std(ddof=1) / math.sqrt(cmc.size))
    assert abs(zr.mean() - cmc.mean()) < 4 * se


def test_rn_weight_factor_d3():
    # for d = 3 the sphere component is uniform (f = 1/2), so the value must
    # scale exactly like 1 / (2 f_IS(a, b, theta)) across (a, b) choices
    m = from_lognormal([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.2)
    ctx = make_context(m, 25.0)
    theta = np.array([0.55])
    rest = np.array([[0.8, -0.6]])
    outs = {}
    for a, b in [(1.0, 1.0), (10.0, 0.5), (3.0, 2.0)]:
        vals, ok = rn_conditional_values(ctx, 0, theta, rest, a, b)
        assert ok.all()
        outs[(a, b)] = vals[0]
    probs = {k: v * float(is_density(k[0], k[1], theta[0]))
             for k, v in outs.items()}
    ref = probs[(1.0, 1.0)]
    for v in probs.values():
        assert v == pytest.approx(ref, rel=1e-12)
    assert float(sphere_density(3, 0.1)) == pytest.approx(0.5, rel=1e-12)


def test_rn_uniform_is_matches_no_is(monkeypatch):
    # f_IS(1,1) with an explicit weight must agree in mean with sampling the
    # true marginal (a = b = (d-1)/2 makes f_IS coincide with f, weight = 1)
    m = two_risk_model(rho=0.3)
    u = 12.0
    ctx = make_context(m, u)
    n = 400_000
    means = []
    ses = []
    for a, b in [(1.0, 1.0), (0.5, 0.5)]:
        monkeypatch.setattr(tails, "is_tuning_b_vector",
                            lambda model, u, a, b=b: np.full(2, b))
        vals = collect(make_engine(ctx, EstimatorKind("rn", a=a)), n, seed=12)
        means.append(vals.mean())
        ses.append(vals.std(ddof=1) / math.sqrt(n))
    assert abs(means[0] - means[1]) < 4 * math.hypot(*ses)


def test_rn_unbiased_vs_cmc():
    m = two_risk_model(rho=0.5, sigma2=(2.0, 1.0))
    u = 50.0
    ctx = make_context(m, u)
    rn = collect(make_engine(ctx, EstimatorKind("rn")), 400_000, seed=13)
    cmc = collect(make_engine(ctx, EstimatorKind("cmc")), 5_000_000, seed=14)
    se = math.hypot(rn.std(ddof=1) / math.sqrt(rn.size),
                    cmc.std(ddof=1) / math.sqrt(cmc.size))
    assert abs(rn.mean() - cmc.mean()) < 4 * se


def test_rn_single_risk_zero_variance():
    ctx = make_context(one_risk_model(), 10.0)
    vals = collect(make_engine(ctx, EstimatorKind("rn")), 200)
    assert np.allclose(vals, phi_bar(math.log(10.0)), rtol=1e-12)
    assert vals.std() < 1e-15


def test_ak_symmetrized_matches_mak_on_independent_bench():
    # independent non-identical marginals: the randomized conditioning index
    # keeps the conditional estimator unbiased, so it must agree with the
    # stratified conditional estimator
    from tailrisk.model import reference_model
    m = reference_model(0.0)
    u = 20000.0
    ak = run(m, u, "ak", 600_000, seed=21)
    mak = run(m, u, "mak", 100_000, seed=22)
    assert "ak-symmetrized-heuristic" not in ak.flags
    assert "ak-biased-dependent-risks" not in ak.flags
    se = math.hypot(ak.se_of_mean, mak.se_of_mean)
    assert abs(ak.mean - mak.mean) < 4 * se


def test_ak_flagged_on_dependent_risks():
    # ak draws independent normals: correlated risks and non-Gaussian radial
    # laws (dependent even at sigma = I) make it biased, so the run says so
    from tailrisk.model import reference_model
    from tailrisk.tails import exp_power_radial
    m0 = two_risk_model()
    elliptical = ModelSpec(lam=m0.lam, beta=m0.beta, gamma=1.0, sigma=m0.sigma,
                           radial=exp_power_radial(1.5))
    # with non-identical marginals the symmetrization is a heuristic too
    assert run(reference_model(0.4), 20.0, "ak", 2, seed=1).flags == (
        "ak-symmetrized-heuristic", "ak-biased-dependent-risks")
    assert run(elliptical, 20.0, "ak", 2, seed=1).flags == ("ak-biased-dependent-risks",)
    assert run(m0, 20.0, "ak", 2, seed=1).flags == ()


def test_zr_single_risk_unbiased():
    # d = 1: theta = +-1, so half the draws see the exceedance tail and the
    # other half see nothing; the mean is still the marginal tail
    ctx = make_context(one_risk_model(), 10.0)
    vals = collect(make_engine(ctx, EstimatorKind("zr")), 200_000, seed=18)
    want = phi_bar(math.log(10.0))
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - want) < 4 * se
    uniq = np.unique(vals)
    assert uniq.size == 2 and uniq[0] == 0.0
    assert uniq[1] == pytest.approx(2 * float(want), rel=1e-12)


def test_generic_radial_rn_matches_cmc():
    from tailrisk.tails import exp_power_radial
    m0 = two_risk_model(rho=0.3)
    m = ModelSpec(lam=m0.lam, beta=m0.beta, gamma=1.0, sigma=m0.sigma,
                  radial=exp_power_radial(1.5))
    u = 30.0
    ctx = make_context(m, u)
    rn_vals = collect(make_engine(ctx, EstimatorKind("rn")), 300_000, seed=19)
    cmc = collect(make_engine(ctx, EstimatorKind("cmc")), 2_000_000, seed=20)
    se = math.hypot(rn_vals.std(ddof=1) / math.sqrt(rn_vals.size),
                    cmc.std(ddof=1) / math.sqrt(cmc.size))
    assert abs(rn_vals.mean() - cmc.mean()) < 4 * se


def test_generic_radial_zr_matches_cmc():
    # exp-power radius: the radial conditional estimator against crude MC
    from tailrisk.tails import exp_power_radial
    m0 = two_risk_model(rho=0.3)
    m = ModelSpec(lam=m0.lam, beta=m0.beta, gamma=1.0, sigma=m0.sigma,
                  radial=exp_power_radial(1.5))
    u = 30.0
    ctx = make_context(m, u)
    zr = collect(make_engine(ctx, EstimatorKind("zr")), 300_000, seed=15)
    cmc = collect(make_engine(ctx, EstimatorKind("cmc")), 2_000_000, seed=16)
    se = math.hypot(zr.std(ddof=1) / math.sqrt(zr.size),
                    cmc.std(ddof=1) / math.sqrt(cmc.size))
    assert abs(zr.mean() - cmc.mean()) < 4 * se
    assert zr.std(ddof=1) < cmc.std(ddof=1)


# ---------------------------------------------------------------------------
# engine plumbing: tuning checks, redraws and clamps
# ---------------------------------------------------------------------------

def test_rn_tunes_its_own_f_is_on_a_shared_context():
    # the context depends only on (model, u): the rn engine tunes f_IS for
    # its own a, so a default context serves rn(a=5) bit for bit
    m = two_risk_model(rho=0.4)
    u = 12.0
    shared = run(m, u, "rn(a=5)", 100, seed=1, ctx=make_context(m, u))
    own = run(m, u, "rn(a=5)", 100, seed=1)
    assert (shared.mean, shared.per_rep_std, shared.flags) == (
        own.mean, own.per_rep_std, own.flags)
    assert shared.mean > 0.0
    assert shared.mean != run(m, u, "rn", 100, seed=1).mean


def test_only_rn_uses_the_is_tuning(monkeypatch):
    def broken(*args):
        raise AssertionError("f_IS tuning called outside the rn engine")

    monkeypatch.setattr(tails, "is_tuning_b_vector", broken)
    m = two_risk_model(rho=0.4)
    ctx = make_context(m, 12.0)
    for name in ("cmc", "ak", "mak", "zr"):
        res = make_engine(ctx, EstimatorKind(name))(RngStream(2, 0).generator(), 64)
        assert res.values.shape == (64,)
    with pytest.raises(AssertionError, match="f_IS tuning"):
        make_engine(ctx, EstimatorKind("rn"))


def test_context_at_huge_threshold_is_silent():
    # the f_IS tuning overflows u * log(u) at u = 1e308; only an rn engine
    # tunes, so building a context stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ctx = make_context(reference_model(0.0), 1e308)
    assert ctx.strat_total == 0.0


@pytest.mark.parametrize("kind", ["mak", "zr", "rn"])
def test_root_failure_redraw_and_abort(monkeypatch, kind):
    m = two_risk_model()
    ctx = make_context(m, 10.0)
    real = est.exceedance_bounds
    calls = {"n": 0}

    def flaky(logc, slopes, level):
        calls["n"] += 1
        lo, hi, ok = real(logc, slopes, level)
        if calls["n"] == 1:
            ok = ok.copy()
            ok[:1] = False          # poison one row once
        return lo, hi, ok

    monkeypatch.setattr(est, "exceedance_bounds", flaky)
    eng = make_engine(ctx, EstimatorKind(kind))
    res = eng(RngStream(5, 0).generator(), 64)
    assert res.root_failures == 1
    assert np.all(res.values >= 0)

    def always_bad(logc, slopes, level):
        lo, hi, ok = real(logc, slopes, level)
        return lo, hi, np.zeros_like(ok)

    monkeypatch.setattr(est, "exceedance_bounds", always_bad)
    with pytest.raises(NumericalAbortError):
        make_engine(ctx, EstimatorKind(kind))(RngStream(5, 0).generator(), 8)


def test_theta_clamps_counted_for_any_thread_count(monkeypatch):
    # b = 0.05 piles the f_IS mass against theta = 1, so draws hit the clamp;
    # every block counts its own clamps, so the total is the same at any
    # worker count
    m = two_risk_model(rho=0.4)
    ctx = make_context(m, 12.0)
    monkeypatch.setattr(tails, "is_tuning_b_vector", lambda model, u, a: np.full(2, 0.05))
    flags = [run(m, 12.0, "rn", 4 * 4096, seed=3, threads=t, ctx=ctx).flags
             for t in (1, 2)]
    clamps = [f for f in flags[0] if f.startswith("theta-clamped:")]
    assert len(clamps) == 1 and int(clamps[0].split(":")[1]) > 0
    assert flags[0] == flags[1]
