"""Acceptance criteria at desk scale.

Each test pins one criterion at its stated tolerance and registers a
PASS/FAIL line that the terminal summary prints.  Desk scale means 1e5
replications per estimator (1e6 for the crude baseline); the whole module
targets a few minutes of wall time.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

import conftest
from tailrisk.estimators import (EstimatorKind, make_context, make_engine,
                                 mak_conditional_values)
from tailrisk.harness import run
from tailrisk.linalg import factorize_all
from tailrisk.model import equicorrelation, reference_model
from tailrisk.randsrc import RngStream
from tailrisk.rootfind import exceedance_bounds
from tailrisk.tails import chi_radial, is_tuning_b
from conftest import (is_density, sphere_density, sphere_expectation,
                      two_risk_model)

SEED = 74205
N_EST = 100_000
N_CMC = 1_000_000
GRID = [(0.0, 2e4), (0.0, 4e4), (0.0, 5e5),
        (0.4, 2e4), (0.4, 4e4), (0.4, 5e5),
        (0.9, 2e4), (0.9, 4e4), (0.9, 5e5)]

# reference values (estimate, mak_cv, rn_cv) per grid point, from the
# benchmark tables this harness reproduces
REFERENCE = {
    (0.0, 2e4): (0.00102, 0.0275, 0.892),
    (0.0, 4e4): (0.000463, 0.0197, 0.897),
    (0.0, 5e5): (1.80e-5, 0.00442, 1.01),
    (0.4, 2e4): (0.00105, 0.139, 0.908),
    (0.4, 4e4): (0.000473, 0.12, 0.906),
    (0.4, 5e5): (1.81e-5, 0.0637, 1.01),
    (0.9, 2e4): (0.00113, 0.437, 1.06),
    (0.9, 4e4): (0.000519, 0.414, 1.04),
    (0.9, 5e5): (2.08e-5, 0.348, 1.11),
}


def record(cid: str, desc: str, passed: bool, detail: str = ""):
    conftest.ACCEPTANCE_RESULTS.append((cid, desc, passed, detail))
    assert passed, f"criterion {cid} ({desc}): {detail}"


@pytest.fixture(scope="module")
def grid_runs():
    """MAK/RN at 1e5 reps and CMC at 1e6 reps on the full benchmark grid,
    plus ZR at the largest threshold."""
    out = {}
    for k, (rho, u) in enumerate(GRID):
        m = reference_model(rho)
        cell = {
            "MAK": run(m, u, "mak", N_EST, seed=SEED + 10 * k + 1),
            "RN": run(m, u, "rn", N_EST, seed=SEED + 10 * k + 2),
            "CMC": run(m, u, "cmc", N_CMC, seed=SEED + 10 * k + 3),
        }
        if u == 5e5:
            cell["ZR"] = run(m, u, "zr", N_EST, seed=SEED + 10 * k + 4)
        out[(rho, u)] = cell
    return out


def _check_table(grid_runs, rho, u, mean_rtol, mak_cv_rtol, rn_cv_rtol,
                 cid, cmc_target=None):
    ref_mean, ref_mak_cv, ref_rn_cv = REFERENCE[(rho, u)]
    cell = grid_runs[(rho, u)]
    mak, rn = cell["MAK"], cell["RN"]
    checks = []
    checks.append(("mak mean 3se",
                   abs(mak.mean - ref_mean) <= 3 * mak.se_of_mean
                   or abs(mak.mean / ref_mean - 1) <= mean_rtol,
                   f"mak mean {mak.mean:.4e} vs {ref_mean:.4e}"))
    checks.append(("mak mean rel",
                   abs(mak.mean / ref_mean - 1) <= mean_rtol,
                   f"rel {mak.mean / ref_mean - 1:+.3%} limit {mean_rtol:.0%}"))
    checks.append(("mak cv",
                   abs(mak.cv / ref_mak_cv - 1) <= mak_cv_rtol,
                   f"mak cv {mak.cv:.4f} vs {ref_mak_cv} "
                   f"({mak.cv / ref_mak_cv - 1:+.1%})"))
    checks.append(("rn cv",
                   abs(rn.cv / ref_rn_cv - 1) <= rn_cv_rtol,
                   f"rn cv {rn.cv:.4f} vs {ref_rn_cv} "
                   f"({rn.cv / ref_rn_cv - 1:+.1%})"))
    if cmc_target is not None:
        cmc = cell["CMC"]
        checks.append(("cmc mean",
                       abs(cmc.mean - cmc_target) <= 3 * cmc.se_of_mean,
                       f"cmc mean {cmc.mean:.4e} vs {cmc_target:.4e} "
                       f"(3se={3 * cmc.se_of_mean:.1e})"))
    detail = "; ".join(c[2] for c in checks)
    record(cid, f"table reproduction rho={rho} u={u:g}",
           all(c[1] for c in checks), detail)


def test_criterion_1_table1(grid_runs):
    _check_table(grid_runs, 0.0, 2e4, mean_rtol=0.02, mak_cv_rtol=0.25,
                 rn_cv_rtol=0.30, cid="1", cmc_target=0.00104)


def test_criterion_2_table5(grid_runs):
    _check_table(grid_runs, 0.4, 4e4, mean_rtol=0.02, mak_cv_rtol=0.25,
                 rn_cv_rtol=0.30, cid="2")


def test_criterion_3_table9(grid_runs):
    _check_table(grid_runs, 0.9, 5e5, mean_rtol=0.03, mak_cv_rtol=0.30,
                 rn_cv_rtol=0.30, cid="3")


def test_criterion_4_cv_trend(grid_runs):
    cvs = [grid_runs[(0.0, u)]["MAK"].cv for u in (2e4, 4e4, 5e5)]
    ok = cvs[0] > cvs[1] > cvs[2] and cvs[2] < 0.01
    record("4", "mak cv strictly decreasing in u at rho=0", ok,
           f"cv path {[f'{c:.4f}' for c in cvs]}, final < 0.01")


# alpha(15) for the two d = 2 unbiasedness models by 30-digit mpmath
# quadrature of the integral in d2_oracle
D2_EXACT = {"indep": 0.0100442851505414, "corr": 0.0154496238334271}


@pytest.fixture(scope="module")
def d2_oracle():
    """Exact alpha(u) at u = 15 for the two d = 2 unbiasedness models.

    With X_i = exp(N_i) and N2 = rho N1 + sqrt(1 - rho^2) Z, conditioning on
    N1 = x leaves P(N2 > log(u - e^x) | x) for x < log u, so alpha(u) is
    P(N1 > log u) plus a 1-D integral, evaluated here by quadrature.
    """
    out = {}
    u = 15.0
    log_u = math.log(u)
    for tag, rho in [("indep", 0.0), ("corr", 0.5)]:
        s = math.sqrt(1.0 - rho * rho)

        def integrand(x, rho=rho, s=s):
            cond = ndtr(-(math.log(u - math.exp(x)) - rho * x) / s)
            return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * cond

        body, _ = integrate.quad(integrand, -np.inf, log_u, epsabs=0.0,
                                 epsrel=1e-13, limit=200)
        alpha = body + ndtr(-log_u)
        assert alpha == pytest.approx(D2_EXACT[tag], rel=1e-13)
        out[tag] = (two_risk_model(rho=rho), u, alpha)
    return out


def test_criterion_5_unbiasedness(d2_oracle):
    n = 400_000
    fails = []
    details = []
    for tag in ("indep", "corr"):
        m, u, alpha = d2_oracle[tag]
        assert 5e-3 <= alpha <= 5e-2, "oracle alpha outside the target band"
        kinds = ["mak", "rn", "zr"] + (["ak"] if tag == "indep" else [])
        for i, kind in enumerate(kinds):
            stats = run(m, u, kind, n, seed=SEED + 30 + i)
            z = (stats.mean - alpha) / stats.se_of_mean
            details.append(f"{tag}/{kind}: z={z:+.2f}")
            if abs(z) > 4.0:
                fails.append(f"{tag}/{kind}")
    record("5", "d=2 unbiasedness vs exact 1-D quadrature", not fails,
           "; ".join(details))


def test_criterion_6_stratification_identity(d2_oracle):
    m, u, _ = d2_oracle["indep"]
    ctx = make_context(m, u)
    n = 400_000
    gen_vals = []
    # forced-stratum second moments of the raw partial estimators
    right = 0.0
    right_var = 0.0
    for j in range(2):
        gen = RngStream(SEED + 50 + j, 0).generator()
        vals, _ = mak_conditional_values(ctx, j, gen.standard_normal((n, 1)))
        sq = vals ** 2
        right += ctx.strat_total * sq.mean() / ctx.strat_weights[j]
        right_var += (ctx.strat_total / ctx.strat_weights[j]) ** 2 \
            * sq.var(ddof=1) / n
    eng = make_engine(ctx, EstimatorKind("mak"))
    vals = eng(RngStream(SEED + 60, 0).generator(), n).values
    left = (vals ** 2).mean()
    left_se = (vals ** 2).std(ddof=1) / math.sqrt(n)
    se = math.hypot(left_se, math.sqrt(right_var))
    z = (left - right) / se
    record("6", "stratified second moment matches z * sum E[Z_j^2]/z_j",
           abs(z) <= 4.0, f"left {left:.4e} right {right:.4e} z={z:+.2f}")


def test_criterion_7_rootfinder_grid_oracle():
    rng = np.random.default_rng(SEED)
    xs = np.arange(-50.0, 50.0, 1e-4)
    # the same grid as 1000 coarse x 1000 fine points: each term's values are
    # the outer product of two 1000-point exponentials
    coarse, fine = xs[::1000], xs[:1000] - xs[0]
    n_inst = 1000
    bad_points = 0
    bad_resid = 0
    for _ in range(n_inst):
        d = int(rng.integers(1, 11))
        coeffs = rng.uniform(1e-3, 10.0, d)
        slopes = rng.uniform(-3.0, 3.0, d)
        level = float(rng.uniform(0.5, 50.0))
        lo, hi, ok = exceedance_bounds(np.log(coeffs)[None, :], slopes[None, :],
                                       np.log(level))
        lo, hi = float(lo[0]), float(hi[0])
        assert ok[0]
        eps = [] if lo >= hi else [e for e in (lo, hi) if np.isfinite(e)]
        for e in eps:
            if abs(np.sum(coeffs * np.exp(slopes * e)) - level) > 1e-8 * level:
                bad_resid += 1
        # the set is (-inf, lo) u [hi, inf); (+inf, -inf) is the whole line
        got = (xs < lo) | (xs >= hi)
        # linear-space evaluation: exponents stay below 160, no overflow possible
        hv = np.zeros((coarse.size, fine.size))
        for c, s in zip(coeffs, slopes):
            hv += np.outer(c * np.exp(s * coarse), np.exp(s * fine))
        want = (hv > level).ravel()
        off = np.where(want != got)[0]
        for k in off:
            if not eps or min(abs(xs[k] - e) for e in eps) >= 1e-6:
                bad_points += 1
    record("7", "1000 random exceedance sets match the 1e-4 grid scan",
           bad_points == 0 and bad_resid == 0,
           f"mismatched points {bad_points}, endpoint residuals over "
           f"1e-8*u: {bad_resid}")


def test_criterion_8_sphere_and_is_measures():
    worst = 0.0
    for d in (2, 3, 5, 10):
        worst = max(worst, abs(sphere_expectation(lambda th: 1.0, d) - 1.0))
    for a in (1.0, 10.0):
        for b in (0.3, 1.0, 4.34):
            val, _ = integrate.quad(lambda x: float(is_density(a, b, x)),
                                    -1.0, 1.0, points=[-1.0, 1.0], limit=200,
                                    epsabs=1e-13, epsrel=1e-12)
            worst = max(worst, abs(val - 1.0))
    norm_ok = worst <= 1e-10

    # importance-weight identity: E_fIS[w * 1{(0.5,1)}] = f-mass of (0.5,1)
    zs = []
    for d, a in [(10, 10.0), (2, 10.0)]:
        b = is_tuning_b(2e4, 1.0, math.sqrt(10.0), chi_radial(d), a=a, d=d)
        gen = RngStream(SEED + 70, 0).generator()
        x = 2.0 * gen.beta(a, b, 1_000_000) - 1.0
        ratio = sphere_density(d, x) / is_density(a, b, x)
        w = np.where(x > 0.5, ratio, 0.0)
        est = w.mean()
        want = sphere_expectation(lambda th: 1.0 if th > 0.5 else 0.0, d)
        se = w.std(ddof=1) / math.sqrt(x.size)
        zs.append((est - want) / se)
    weight_ok = all(abs(z) <= 4.0 for z in zs)
    record("8", "sphere and IS densities integrate to 1; weight identity",
           norm_ok and weight_ok,
           f"worst normalization error {worst:.2e}; weight z-scores "
           f"{[f'{z:+.2f}' for z in zs]}")


def test_criterion_9_component_inequality():
    rng = np.random.default_rng(SEED + 80)
    violations = 0
    for d in (2, 5, 10):
        for rho in (0.0, 0.4, 0.9):
            sigma = equicorrelation(d, rho)
            fs = factorize_all(sigma)
            w = rng.standard_normal((10_000, d))
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            for j in range(d):
                theta = w @ fs[j].T
                tj = theta[:, j]
                # cancellation-free 1 - tj^2 (tj is the driver coordinate)
                rest_sq = np.sum(np.square(w), axis=1) - np.square(w[:, 0])
                for i in range(d):
                    sij = sigma[i, j]
                    lhs = np.abs(theta[:, i] - sij * tj)
                    rhs = np.sqrt(1 - sij * sij) * np.sqrt(rest_sq)
                    violations += int(np.sum(lhs > rhs + 1e-12))
    record("9", "sphere-component inequality on 1e4 unit vectors",
           violations == 0, f"{violations} violations beyond 1e-12")


def test_criterion_10_variance_ordering(grid_runs):
    problems = []
    for (rho, u), cell in grid_runs.items():
        mak, rn, cmc = cell["MAK"], cell["RN"], cell["CMC"]
        if not mak.per_rep_std < rn.per_rep_std < cmc.per_rep_std:
            problems.append(f"ordering broken at rho={rho} u={u:g}")
        if "ZR" in cell and not cell["ZR"].per_rep_std > rn.per_rep_std:
            problems.append(f"zr not above rn at rho={rho} u={u:g}")
    record("10", "per-replication std: MAK < RN < CMC (and ZR > RN at 5e5)",
           not problems, "; ".join(problems) or "all nine grid points ordered")
