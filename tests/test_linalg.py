"""Per-index Cholesky factors and their contracts."""

import numpy as np
import pytest

from tailrisk.errors import ValidationError
from tailrisk.linalg import factorize_all, validate_correlation
from tailrisk.model import equicorrelation


def test_identity_factorizes_to_permutation():
    for d in (1, 2, 5):
        fs = factorize_all(np.eye(d))
        for j in range(d):
            A = fs.factors[j]
            assert np.allclose(np.abs(A) @ np.abs(A).T, np.eye(d))
            row = A[j]
            assert row[0] == 1.0
            assert np.count_nonzero(row) == 1


def test_two_dim_hand_factor():
    sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
    fs = factorize_all(sigma)
    A = fs.factors[1]                    # row for risk 2 is the driver unit
    assert A[1, 0] == pytest.approx(1.0)
    assert A[1, 1] == pytest.approx(0.0, abs=1e-15)
    assert A[0, 0] == pytest.approx(0.9)
    assert A[0, 1] == pytest.approx(np.sqrt(1.0 - 0.81))


@pytest.mark.parametrize("rho", [0.0, 0.4, 0.9, -0.05])
def test_factorization_invariants_d10(rho):
    sigma = equicorrelation(10, rho)
    fs = factorize_all(sigma)
    for j in range(10):
        A = fs.factors[j]
        assert np.max(np.abs(A @ A.T - sigma)) < 1e-10
        # row j is the unit vector in driver column 0
        assert A[j, 0] == pytest.approx(1.0)
        assert np.count_nonzero(np.abs(A[j]) > 1e-14) == 1
        # unit diagonal of sigma forces unit row norms
        assert np.allclose(np.linalg.norm(A, axis=1), 1.0, atol=1e-12)


def test_transform_identity_and_hand_product():
    # driver coordinates map to correlated ones as rows w -> w A^T, the way
    # the estimators apply the factors
    n = np.array([[0.3, -1.2, 2.0]])
    assert np.allclose(n @ factorize_all(np.eye(3)).factors[0].T, n)
    sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
    A = factorize_all(sigma).factors[1]
    y = np.array([[0.5, -1.0]]) @ A.T
    assert y[0, 1] == pytest.approx(0.5)              # row-2 passthrough
    assert y[0, 0] == pytest.approx(0.9 * 0.5 + np.sqrt(0.19) * -1.0)


def test_transform_preserves_marginals_and_covariance():
    rng = np.random.default_rng(99)
    sigma = equicorrelation(4, 0.4)
    fs = factorize_all(sigma)
    n = 1_000_000
    draws = rng.standard_normal((n, 4))
    for j in (0, 2):
        y = draws @ fs.factors[j].T
        # unit row norms make each coordinate standard normal
        assert np.allclose(y.var(axis=0, ddof=1), 1.0, rtol=0.01)
        emp = np.cov(y.T)
        # 3 standard errors for a correlation estimate ~ 3/sqrt(n)
        assert np.max(np.abs(emp - sigma)) < 3.5 / np.sqrt(n) + 1e-3


def test_sphere_component_inequality():
    # |Theta_i - sigma_ij Theta_j| <= sqrt(1-sigma_ij^2) sqrt(1-Theta_j^2)
    # for Theta = A^(j) w on random unit vectors w
    rng = np.random.default_rng(41)
    for d, rho in [(2, 0.0), (5, 0.4), (10, 0.9)]:
        sigma = equicorrelation(d, rho)
        fs = factorize_all(sigma)
        w = rng.standard_normal((2000, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        for j in range(d):
            theta = w @ fs.factors[j].T
            tj = theta[:, j]
            # 1 - tj^2 evaluated as the complement sum: identical in exact
            # arithmetic, no cancellation near |tj| = 1
            rest_sq = np.sum(np.square(w), axis=1) - np.square(w[:, 0])
            for i in range(d):
                sij = sigma[i, j]
                lhs = np.abs(theta[:, i] - sij * tj)
                rhs = np.sqrt(1.0 - sij * sij) * np.sqrt(rest_sq)
                assert np.all(lhs <= rhs + 1e-12)


def test_non_positive_definite_rejected():
    bad = np.array([[1.0, 0.7, 0.7], [0.7, 1.0, -0.7], [0.7, -0.7, 1.0]])
    with pytest.raises(ValidationError, match="eigenvalue"):
        validate_correlation(bad)
    with pytest.raises(ValidationError):
        factorize_all(bad)


def test_validation_messages():
    with pytest.raises(ValidationError, match="diagonal"):
        validate_correlation(np.array([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="symmetric"):
        validate_correlation(np.array([[1.0, 0.2], [0.3, 1.0]]))


def test_near_singular_pivot_named():
    eps = 1e-14
    sigma = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
    with pytest.raises(ValidationError):
        factorize_all(sigma)
