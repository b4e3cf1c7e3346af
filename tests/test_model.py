"""Model parametrization, dominating index set and the condition diagnostic."""

import math

import numpy as np
import pytest

from tailrisk.errors import ValidationError
from tailrisk.model import (ModelSpec, check_mak_condition,
                            equicorrelation, from_lognormal, max_index_set,
                            reference_model)
from tailrisk.tails import chi_radial


def test_from_lognormal_identity_case():
    m = from_lognormal([0.0], [1.0])
    assert m.d == 1
    assert m.lam[0] == 1.0 and m.beta[0] == 1.0 and m.gamma == 1.0


def test_from_lognormal_bench_case():
    m = reference_model(0.0)
    assert m.lam[0] == pytest.approx(math.exp(-9.0), rel=1e-14)
    assert m.beta[-1] == pytest.approx(math.sqrt(10.0), rel=1e-14)
    assert np.array_equal(m.sigma, np.eye(10))
    assert m.radial.gaussian_dim == 10


def test_from_lognormal_general_case():
    m = from_lognormal([-1.0, 0.0], [4.0, 1.0], 0.5)
    assert m.lam[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert m.lam[1] == 1.0
    assert m.beta[0] == 2.0 and m.beta[1] == 1.0
    assert m.sigma[0, 1] == 0.5


def test_lognormal_round_trip():
    m = reference_model(0.4)
    m2 = from_lognormal(np.log(m.lam), np.square(m.bg), m.sigma.copy())
    assert np.allclose(m2.lam, m.lam, rtol=1e-14)
    assert np.allclose(m2.beta, m.beta, rtol=1e-14)
    assert np.allclose(m2.sigma, m.sigma, rtol=1e-14)
    assert m2.gamma == m.gamma


def test_validation_errors():
    with pytest.raises(ValidationError, match="eigenvalue"):
        from_lognormal([0.0, 0.0, 0.0], [1.0] * 3, -0.9)
    with pytest.raises(ValidationError):
        from_lognormal([0.0], [-1.0])
    with pytest.raises(ValidationError):
        ModelSpec(lam=[1.0, -2.0], beta=[1.0, 1.0], gamma=1.0,
                  sigma=np.eye(2), radial=chi_radial(2))


def test_gaussian_radial_must_match_dimension():
    # the chi radius of dimension 5 is no Gaussian model of two risks
    with pytest.raises(ValidationError, match="dimension 5"):
        ModelSpec(lam=[1.0, 1.0], beta=[1.0, 1.0], gamma=1.0,
                  sigma=equicorrelation(2, 0.5), radial=chi_radial(5))


def test_max_index_set_full_tie():
    m = ModelSpec(lam=[1.0, 1.0, 1.0], beta=[1.0, 1.0, 1.0], gamma=1.0,
                  sigma=np.eye(3), radial=chi_radial(3))
    mis = max_index_set(m)
    assert mis.indices == mis.dominating == (0, 1, 2)
    assert len(mis.dominating) == 3


def test_max_index_set_bench():
    mis = max_index_set(reference_model(0.0))
    assert mis.indices == mis.dominating == (9,)
    assert len(mis.dominating) == 1


def test_max_index_set_partial_tie():
    m = ModelSpec(lam=[3.0, 5.0, 9.0], beta=[2.0, 2.0, 1.0], gamma=1.0,
                  sigma=np.eye(3), radial=chi_radial(3))
    mis = max_index_set(m)
    assert mis.indices == (0, 1)
    assert len(mis.dominating) == 1   # only lam = 5 attains the max among beta-ties
    assert mis.dominating == (1,)
    # strict dominance outside the set
    for i in range(3):
        if i not in mis.indices:
            assert m.beta[i] < mis.beta_max


def test_condition_bench_all_pairs_pass():
    m = reference_model(0.0)
    report = check_mak_condition(m, [20000.0], c=1.0, eps=0.5)
    assert report.holds_all_indices
    assert report.holds_within_max_set     # vacuous: singleton max set
    assert report.remark_holds
    assert all(p.rhs > 0 and p.lhs < 1.0 for p in report.pairs)
    # numeric spot check of both sides for the pair (j=10, i=1):
    # lhs = c * sqrt(1/log u); rhs = (beta_10/beta_1) log(eps e*_10)/log(u)
    u = 20000.0
    pair = next(p for p in report.pairs if p.i == 0)
    assert pair.lhs == pytest.approx(math.sqrt(1.0 / math.log(u)), rel=1e-12)
    ej = u * math.log(u) * u ** (-2.0 / math.sqrt(10.0))
    want_rhs = math.sqrt(10.0) * math.log(0.5 * ej) / math.log(u)
    assert pair.rhs == pytest.approx(want_rhs, rel=1e-12)


def test_condition_near_singular_pair_fails():
    sigma = equicorrelation(2, 1.0 - 1e-12)
    m = ModelSpec(lam=[1.0, 1.0], beta=[1.0, 1.0], gamma=1.0, sigma=sigma,
                  radial=chi_radial(2))
    report = check_mak_condition(m, [math.exp(10.0)], c=10.0, eps=0.5)
    assert not report.holds_all_indices
    assert not report.holds_within_max_set
    assert {(p.j, p.i) for p in report.pairs} == {(0, 1), (1, 0)}


def test_condition_single_risk_vacuous():
    m = from_lognormal([0.0], [1.0])
    report = check_mak_condition(m, [50.0])
    assert report.pairs == ()
    assert report.holds_all_indices and report.holds_within_max_set


def test_condition_monotone_in_c():
    # failing at some c implies failing at any larger c (same u, eps)
    sigma = equicorrelation(3, 0.75)
    m = ModelSpec(lam=[1.0, 1.0, 1.0], beta=[1.0, 1.0, 1.0], gamma=1.0,
                  sigma=sigma, radial=chi_radial(3))
    u = [60.0]
    results = [check_mak_condition(m, u, c=c).holds_all_indices
               for c in (0.1, 1.0, 5.0, 25.0)]
    for earlier, later in zip(results, results[1:]):
        assert earlier or not later   # once False, stays False


def test_condition_domain_errors():
    m = reference_model(0.0)
    with pytest.raises(ValidationError):
        check_mak_condition(m, [0.5])
    with pytest.raises(ValidationError):
        check_mak_condition(m, [20000.0], c=-1.0)
