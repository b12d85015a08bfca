import numpy as np
import pytest

from lassoagg.design import (DesignMatrix, ProjectionCache, Support,
                             operator_norm_phi_max, power_iteration, project)
from lassoagg.errors import InvalidInputError


def brute_force_projection(Xm, idx, v):
    """Independent oracle: least squares on the submatrix via lstsq."""
    if not idx:
        return np.zeros(len(v))
    sub = Xm[:, list(idx)]
    coef, *_ = np.linalg.lstsq(sub, v, rcond=None)
    return sub @ coef


def test_empty_support_projects_to_zero():
    X = DesignMatrix(np.arange(6.0).reshape(3, 2) + 1)
    y = np.array([1.0, 2.0, 3.0])
    res = project(X, Support(()), y)
    assert np.all(res.fitted == 0.0)
    assert np.allclose(res.residual, y)
    assert res.rank == 0


def test_full_rank_square_span_reproduces_v():
    X = DesignMatrix(np.sqrt(2.0) * np.eye(2))
    v = np.array([3.0, 4.0])
    res = project(X, Support((0, 1)), v)
    assert np.allclose(res.fitted, v, atol=1e-12)
    assert np.allclose(res.residual, 0.0, atol=1e-12)


def test_single_ones_column_projects_to_mean():
    X = DesignMatrix(np.ones((3, 1)))
    res = project(X, Support((0,)), np.array([1.0, 2.0, 3.0]))
    # normal equations by hand: fitted = mean * ones
    assert np.allclose(res.fitted, [2.0, 2.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_matches_brute_force_least_squares(seed):
    rng = np.random.default_rng(seed)
    Xm = rng.standard_normal((12, 6))
    v = rng.standard_normal(12)
    X = DesignMatrix(Xm)
    for idx in [(0,), (1, 3), (0, 2, 4, 5)]:
        res = project(X, Support(idx), v)
        assert np.allclose(res.fitted, brute_force_projection(Xm, idx, v), atol=1e-10)


def test_fitted_plus_residual_and_orthogonality():
    rng = np.random.default_rng(7)
    Xm = rng.standard_normal((10, 5))
    v = rng.standard_normal(10)
    X = DesignMatrix(Xm)
    T = Support((0, 2, 4))
    res = project(X, T, v)
    assert np.allclose(res.fitted + res.residual, v, rtol=1e-10)
    for j in T:
        ip = abs(res.residual @ Xm[:, j])
        assert ip <= 1e-8 * np.linalg.norm(v) * np.linalg.norm(Xm[:, j])


def test_idempotency():
    rng = np.random.default_rng(3)
    for _ in range(10):
        Xm = rng.standard_normal((8, 4))
        v = rng.standard_normal(8)
        X = DesignMatrix(Xm)
        T = Support(tuple(sorted(rng.choice(4, size=2, replace=False))))
        once = project(X, T, v).fitted
        twice = project(X, T, once).fitted
        assert np.allclose(twice, once, rtol=1e-9, atol=1e-12)


def test_monotone_fit_under_nesting():
    rng = np.random.default_rng(4)
    for _ in range(10):
        Xm = rng.standard_normal((10, 6))
        v = rng.standard_normal(10)
        X = DesignMatrix(Xm)
        small = Support((1, 3))
        big = Support((0, 1, 3, 5))
        r_small = np.linalg.norm(project(X, small, v).residual)
        r_big = np.linalg.norm(project(X, big, v).residual)
        assert r_big <= r_small + 1e-12


def test_rank_drops_with_duplicated_columns():
    rng = np.random.default_rng(5)
    col = rng.standard_normal(6)
    Xm = np.column_stack([col, 2.0 * col, rng.standard_normal(6)])
    X = DesignMatrix(Xm)
    v = rng.standard_normal(6)
    res = project(X, Support((0, 1)), v)
    assert res.rank == 1
    res3 = project(X, Support((0, 1, 2)), v)
    assert res3.rank == 2
    assert res3.rank <= min(3, X.n)


def test_projection_cache_consistency():
    rng = np.random.default_rng(6)
    Xm = rng.standard_normal((9, 4))
    X = DesignMatrix(Xm)
    cache = ProjectionCache(X)
    v = rng.standard_normal(9)
    T = Support((0, 3))
    a = project(X, T, v, cache=cache).fitted
    b = project(X, T, v, cache=cache).fitted
    c = project(X, T, v).fitted
    assert np.array_equal(a, b)
    assert np.allclose(a, c, atol=1e-12)


def test_invalid_inputs():
    X = DesignMatrix(np.ones((3, 2)))
    with pytest.raises(InvalidInputError):
        project(X, Support((0,)), np.ones(4))
    with pytest.raises(InvalidInputError):
        project(X, Support((5,)), np.ones(3))
    with pytest.raises(InvalidInputError):
        project(X, Support((0,)), np.array([1.0, np.nan, 0.0]))
    with pytest.raises(InvalidInputError):
        DesignMatrix(np.array([[np.inf, 0.0]]))
    with pytest.raises(InvalidInputError):
        DesignMatrix(np.ones(3))


def test_column_norms_cached():
    rng = np.random.default_rng(8)
    Xm = rng.standard_normal((7, 3))
    X = DesignMatrix(Xm)
    assert np.allclose(X.column_norms_sq, (Xm ** 2).sum(axis=0), rtol=1e-12)


def test_phi_max_identity_spectrum():
    # X^T X / n = identity
    X = DesignMatrix(np.sqrt(3.0) * np.eye(3))
    res = operator_norm_phi_max(X)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_phi_max_single_ones_column():
    X = DesignMatrix(np.ones((4, 1)))
    res = operator_norm_phi_max(X)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_phi_max_two_column_correlated():
    # Gram/n = [[1, .5], [.5, 1]]: eigenvalues 1 +- rho
    rho = 0.5
    C = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    X = DesignMatrix(np.sqrt(2.0) * C.T)
    res = operator_norm_phi_max(X)
    assert res.value == pytest.approx(1.5, abs=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_power_iteration_matches_eigvalsh(seed):
    # a Gram matrix of fitted vectors, as in q_aggregate's step size
    A = np.random.default_rng(seed).standard_normal((30, 12))
    G = A.T @ A
    res = power_iteration(lambda v: G @ v, G.shape[0])
    assert res.converged
    assert res.value == pytest.approx(np.linalg.eigvalsh(G)[-1], rel=1e-8)
