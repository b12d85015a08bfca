import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lassoagg.design import (RANK_TOL, DesignMatrix, Support, _insert_column, _qr_delete,
                             _qr_insert, project)
from lassoagg.errors import InvalidInputError
from oracles import pivoted_project


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


@st.composite
def supports_of_small_designs(draw):
    """A small design whose columns are fresh (integer entries in -2..2, or
    Gaussian), zero, or a repeated, negated or doubled earlier column; a
    support of it, possibly empty or wider than n; and a vector."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gaussian = draw(st.booleans())
    Xm = np.empty((n, p))
    for j in range(p):
        kind = draw(st.sampled_from(["fresh", "zero", "repeated", "negated", "doubled"]))
        if j == 0 or kind == "fresh":
            Xm[:, j] = rng.standard_normal(n) if gaussian else rng.integers(-2, 3, size=n)
        elif kind == "zero":
            Xm[:, j] = 0.0
        else:
            factor = {"repeated": 1.0, "negated": -1.0, "doubled": 2.0}[kind]
            Xm[:, j] = factor * Xm[:, rng.integers(j)]
    T = Support(tuple(sorted(draw(st.sets(st.integers(0, p - 1))))))
    return Xm, T, rng.standard_normal(n)


@example((np.ones((2, 1)), Support(()), np.array([1.0, -1.0])))
# a zero column after the first, which scipy's qr_insert cannot take
@example((np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), Support((0, 1, 2)), np.array([1.0, 2.0])))
# a support wider than n, with a doubled column
@example((np.array([[1.0, 2.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0]]), Support((0, 1, 2, 3)),
          np.array([3.0, -1.0])))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(supports_of_small_designs())
def test_project_matches_pivoted_qr_and_lstsq(capfd, data):
    Xm, T, v = data
    X = DesignMatrix(Xm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = project(X, T, v)
    # scipy reports a division by a zero norm on stderr, not by raising
    assert capfd.readouterr().err == ""
    sub = Xm[:, list(T.indices)]
    lstsq = sub @ np.linalg.lstsq(sub, v, rcond=None)[0] if T.size else np.zeros(v.size)
    tol = 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(res.fitted - pivoted_project(X, T, v).fitted) <= tol
    assert np.linalg.norm(res.fitted - lstsq) <= tol
    assert res.rank == (np.linalg.matrix_rank(sub) if T.size else 0)


@pytest.mark.parametrize("seed", range(40))
def test_a_block_insert_gives_the_bits_of_one_insert_per_column(seed):
    # project inserts all but the first column of a support in one qr_insert
    # call, where the homotopy inserts one column per call; the two give the
    # same bits, so project factors a support as the homotopy would
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 121))
    k = int(rng.integers(2, min(n, 60) + 1))
    Xm = rng.standard_normal((n, k)) if seed % 2 else rng.integers(-9, 10, (n, k)).astype(float)
    tol = RANK_TOL * np.sqrt((Xm ** 2).sum(axis=0)).max()
    Q, R, _ = _insert_column(np.empty((n, 0)), np.empty((0, 0)), Xm[:, 0], tol)
    Qb, Rb = scipy.linalg.qr_insert(Q, R, Xm[:, 1:], 1, which="col", check_finite=False)
    for j in range(1, k):
        Q, R, independent = _insert_column(Q, R, Xm[:, j], tol)
        assert independent
    assert np.array_equal(Qb, Q) and np.array_equal(Rb, R)


@pytest.mark.parametrize("seed", range(40))
def test_the_direct_qr_kernels_give_the_bits_of_the_public_ones(seed):
    # _insert_column and the homotopy's deletions call scipy's QR updates
    # below their batch wrapper; on the same inputs the public functions
    # give the same bits
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 121))
    k = int(rng.integers(2, min(n, 60) + 1))
    Xm = rng.standard_normal((n, k)) if seed % 2 else rng.integers(-9, 10, (n, k)).astype(float)
    tol = RANK_TOL * np.sqrt((Xm ** 2).sum(axis=0)).max()
    Q, R, _ = _insert_column(np.empty((n, 0)), np.empty((0, 0)), Xm[:, 0], tol)
    Qb, Rb = _qr_insert(Q, R, Xm[:, 1:], 1, which="col", check_finite=False)
    expected = scipy.linalg.qr_insert(Q, R, Xm[:, 1:], 1, which="col", check_finite=False)
    assert np.array_equal(Qb, expected[0]) and np.array_equal(Rb, expected[1])
    for j in range(1, k):
        expected = scipy.linalg.qr_insert(Q, R, Xm[:, j], j, which="col", check_finite=False)
        Q, R, independent = _insert_column(Q, R, Xm[:, j], tol)
        assert independent
        assert np.array_equal(Q, expected[0]) and np.array_equal(R, expected[1])
    # drop columns from the middle, the front and the end, as the homotopy does
    for i in (k // 2, 0, k - 3):
        if i < 0 or i >= R.shape[1]:
            continue
        expected = scipy.linalg.qr_delete(Q, R, i, which="col", check_finite=False)
        Q, R = _qr_delete(Q, R, i, which="col", check_finite=False)
        assert np.array_equal(Q, expected[0]) and np.array_equal(R, expected[1])
        Q, R = Q[:, :R.shape[1]], R[:R.shape[1]]
