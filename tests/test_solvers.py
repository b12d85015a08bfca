import math

import numpy as np
import pytest

from lassoagg.design import DesignMatrix
from lassoagg.errors import DegenerateVarianceError, InvalidInputError
from lassoagg.solvers import lasso_cd, sqrt_lasso, sqrt_lasso_universal_lambda
from oracles import kkt_check, lasso_cd_unshortened


def random_orthonormal_design(n, p, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return DesignMatrix(math.sqrt(n) * Q[:, :p])


def test_scalar_lasso():
    # minimize (1/2)(3 - b)^2 + |b|: subgradient gives b = 2
    X = DesignMatrix([[1.0]])
    y = np.array([3.0])
    fit = lasso_cd(X, y, 1.0, tol=1e-12)
    assert fit.converged
    assert fit.beta[0] == pytest.approx(2.0, abs=1e-10)
    rep = kkt_check(X, y, 1.0, fit.beta, tol=1e-12)
    assert rep.ok


def test_zero_above_lambda_max():
    rng = np.random.default_rng(0)
    Xm = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    X = DesignMatrix(Xm)
    lam0 = np.max(np.abs(Xm.T @ y)) / 10
    fit = lasso_cd(X, y, lam0 * 1.01, tol=1e-12)
    assert np.all(fit.beta == 0.0)
    assert kkt_check(X, y, lam0 * 1.01, fit.beta).ok


def test_orthonormal_soft_threshold_closed_form():
    X = random_orthonormal_design(5, 5, seed=2)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(5)
    lam = 0.3
    fit = lasso_cd(X, y, lam, tol=1e-14)
    z = X.entries.T @ y / 5
    closed = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
    assert np.allclose(fit.beta, closed, atol=1e-8)


def test_kkt_check_scalar_and_perturbation():
    X = DesignMatrix([[1.0]])
    y = np.array([3.0])
    assert kkt_check(X, y, 1.0, np.array([2.0])).worst_violation <= 1e-12
    assert not kkt_check(X, y, 1.0, np.array([2.1])).ok


def test_kkt_at_lambda_max_with_zero_beta():
    rng = np.random.default_rng(5)
    Xm = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    lam0 = np.max(np.abs(Xm.T @ y)) / 8
    assert kkt_check(DesignMatrix(Xm), y, lam0, np.zeros(3), tol=1e-10).ok


@pytest.mark.parametrize("seed", range(8))
def test_converged_fits_pass_kkt(seed):
    rng = np.random.default_rng(seed)
    n, p = 20, 8
    Xm = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    X = DesignMatrix(Xm)
    lam0 = np.max(np.abs(Xm.T @ y)) / n
    for lam in (0.5 * lam0, 0.1 * lam0, 0.02 * lam0):
        fit = lasso_cd(X, y, lam, tol=1e-9)
        assert fit.converged
        assert fit.duality_gap <= 1e-9
        assert kkt_check(X, y, lam, fit.beta, tol=1e-8).ok


def test_fixed_point_stop_matches_the_unshortened_loop():
    # the duality gap stalls at 1.1e-16 here, so no positive tol below it is
    # reached; a cycle leaves beta and r unchanged from cycle 28 on
    rng = np.random.default_rng(2)
    Xm = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    lam = 0.3 * np.max(np.abs(Xm.T @ y)) / 10
    fit = lasso_cd(DesignMatrix(Xm), y, lam, tol=1e-300, max_iter=2000)
    full = lasso_cd_unshortened(DesignMatrix(Xm), y, lam, tol=1e-300, max_iter=2000)
    assert fit.iterations < full.iterations == 2000
    assert fit.beta.tobytes() == full.beta.tobytes()
    assert fit.duality_gap == full.duality_gap
    assert not fit.converged and not full.converged


def test_zero_column_skipped():
    rng = np.random.default_rng(9)
    Xm = rng.standard_normal((6, 3))
    Xm[:, 1] = 0.0
    y = rng.standard_normal(6)
    fit = lasso_cd(DesignMatrix(Xm), y, 0.05, tol=1e-10)
    assert fit.beta[1] == 0.0


def test_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(11)
    Xm = rng.standard_normal((15, 6))
    y = rng.standard_normal(15)
    X = DesignMatrix(Xm)
    cold = lasso_cd(X, y, 0.05, tol=1e-13)
    warm = lasso_cd(X, y, 0.05, tol=1e-13, beta0=lasso_cd(X, y, 0.2, tol=1e-13).beta)
    assert np.allclose(cold.beta, warm.beta, atol=1e-7)


def test_invalid_lasso_inputs():
    X = DesignMatrix([[1.0]])
    with pytest.raises(InvalidInputError):
        lasso_cd(X, np.array([1.0]), 0.0)
    with pytest.raises(InvalidInputError):
        lasso_cd(X, np.array([1.0]), 1.0, tol=0.0)
    # a NaN or infinite penalty has a NaN duality gap, so it would run every cycle
    for lam in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            lasso_cd(X, np.array([1.0]), lam)
    # a NaN penalty would give beta = 0 and report it converged
    with pytest.raises(InvalidInputError):
        sqrt_lasso(X, np.array([1.0]), math.nan)


def test_sqrt_lasso_null_fit_variance():
    rng = np.random.default_rng(13)
    Xm = rng.standard_normal((12, 5))
    y = rng.standard_normal(12)
    X = DesignMatrix(Xm)
    n = 12
    lam_null = np.max(np.abs(Xm.T @ y)) * math.sqrt(n) / (np.linalg.norm(y) * n)
    fit = sqrt_lasso(X, y, lam_null * 1.05)
    assert fit.converged
    assert np.all(fit.beta == 0.0)
    assert fit.sigma_hat_sq == pytest.approx(np.sum(y ** 2) / n, rel=1e-12)


def test_sqrt_lasso_scalar_interpolation_is_degenerate():
    # |3 - b| + 0.5|b| is minimized at b = 3 with zero residual
    X = DesignMatrix([[1.0]])
    with pytest.raises(DegenerateVarianceError):
        sqrt_lasso(X, np.array([3.0]), 0.5)


def test_sqrt_lasso_zero_response_is_degenerate():
    X = DesignMatrix(np.ones((4, 2)))
    with pytest.raises(DegenerateVarianceError):
        sqrt_lasso(X, np.zeros(4), 1.0)


def test_sqrt_lasso_matches_scaled_family_minimum():
    # oracle: minimize (1/sqrt n)||y - X b(sigma)|| + lam*||b(sigma)||_1 over a
    # dense sigma grid, where b(sigma) is the Lasso fit at penalty lam*sigma
    rng = np.random.default_rng(17)
    n, p = 20, 5
    Xm = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    X = DesignMatrix(Xm)
    lam = 0.4
    fit = sqrt_lasso(X, y, lam)
    obj = np.linalg.norm(y - Xm @ fit.beta) / math.sqrt(n) + lam * np.abs(fit.beta).sum()

    sig_hat = math.sqrt(fit.sigma_hat_sq)
    best = math.inf
    for sig in np.linspace(0.3 * sig_hat, 3.0 * sig_hat, 2500):
        b = lasso_cd(X, y, lam * sig, tol=1e-12).beta
        val = np.linalg.norm(y - Xm @ b) / math.sqrt(n) + lam * np.abs(b).sum()
        best = min(best, val)
    assert obj == pytest.approx(best, abs=1e-6)


def test_sqrt_lasso_sigma_consistency():
    rng = np.random.default_rng(19)
    Xm = rng.standard_normal((25, 6))
    y = rng.standard_normal(25)
    X = DesignMatrix(Xm)
    fit = sqrt_lasso(X, y, 0.3)
    recomputed = np.sum((y - Xm @ fit.beta) ** 2) / 25
    assert fit.sigma_hat_sq == pytest.approx(recomputed, rel=1e-10)


def test_universal_lambda_values_and_scaling():
    assert sqrt_lasso_universal_lambda(100, 100) == pytest.approx(
        2.0 * math.sqrt(math.log(10000.0) / 100.0), rel=1e-14)
    assert sqrt_lasso_universal_lambda(1, 1) == pytest.approx(
        2.0 * math.sqrt(math.log(100.0)), rel=1e-14)
    # lambda scales as n^{-1/2}
    assert sqrt_lasso_universal_lambda(400, 50) == pytest.approx(
        0.5 * sqrt_lasso_universal_lambda(100, 50), rel=1e-14)
