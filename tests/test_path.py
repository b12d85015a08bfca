import numpy as np
import pytest

from lassoagg.design import DesignMatrix, Support
from lassoagg.errors import InvalidInputError
from lassoagg.path import (SupportFamily, compute_path, grid_support_family,
                           path_support_family)
from lassoagg.solvers import kkt_check, lasso_cd


def test_scalar_homotopy():
    X = DesignMatrix([[1.0]])
    y = np.array([3.0])
    path = compute_path(X, y)
    assert path.knots.tolist() == [3.0]
    assert [s.indices for s in path.supports] == [(0,)]
    # beta(lam) = 3 - lam on (0, 3), zero above
    assert path.beta_at(1.0)[0] == pytest.approx(2.0, abs=1e-12)
    assert path.beta_at(3.5)[0] == 0.0
    fam = path_support_family(path)
    assert fam.supports == (Support(()), Support((0,)))


def test_zero_response():
    X = DesignMatrix(np.eye(3))
    path = compute_path(X, np.zeros(3))
    assert path.knots.size == 0
    assert np.all(path.beta_at(0.1) == 0.0)
    fam = path_support_family(path)
    assert fam.supports == (Support(()),)


@pytest.mark.parametrize("seed", range(6))
def test_midpoint_coordinate_descent_oracle(seed):
    rng = np.random.default_rng(seed)
    n, p = 15, 6
    Xm = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    X = DesignMatrix(Xm)
    path = compute_path(X, y)
    for seg in path.segments:
        lam = 0.5 * (seg.hi + seg.lo)
        fit = lasso_cd(X, y, lam, tol=1e-15, max_iter=200_000)
        assert np.allclose(fit.beta, path.beta_at(lam), atol=1e-7)
        assert Support.from_beta(fit.beta) == seg.support


def test_piecewise_linearity_between_knots():
    rng = np.random.default_rng(21)
    Xm = rng.standard_normal((12, 5))
    y = rng.standard_normal(12)
    path = compute_path(DesignMatrix(Xm), y)
    for hi, lo in zip(path.knots, path.knots[1:]):
        mid = 0.5 * (hi + lo)
        avg = 0.5 * (path.beta_at(hi) + path.beta_at(lo))
        assert np.allclose(path.beta_at(mid), avg, atol=1e-9)


def test_kkt_along_path():
    rng = np.random.default_rng(23)
    Xm = rng.standard_normal((15, 7))
    y = rng.standard_normal(15)
    X = DesignMatrix(Xm)
    path = compute_path(X, y)
    for seg in path.segments:
        for t in np.linspace(0.1, 0.9, 5):
            lam = seg.lo + t * (seg.hi - seg.lo)
            if lam <= 0:
                continue
            assert kkt_check(X, y, lam, path.beta_at(lam), tol=1e-7).ok


def test_support_constant_within_segment():
    rng = np.random.default_rng(29)
    Xm = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    X = DesignMatrix(Xm)
    path = compute_path(X, y)
    for seg in path.segments:
        lams = [seg.lo + 0.25 * (seg.hi - seg.lo), seg.lo + 0.75 * (seg.hi - seg.lo)]
        supps = [Support.from_beta(lasso_cd(X, y, lam, tol=1e-14).beta) for lam in lams]
        assert supps[0] == supps[1] == seg.support


def test_knot_count_sanity():
    rng = np.random.default_rng(31)
    for _ in range(5):
        Xm = rng.standard_normal((20, 10))
        y = rng.standard_normal(20)
        path = compute_path(DesignMatrix(Xm), y)
        assert not path.truncated
        assert path.knots.size <= 3 * 10 + 5


def _drop_instance():
    # deterministic instance whose path contains a sign-change drop
    rng = np.random.default_rng(0)
    for _ in range(89):
        Xm = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
    return Xm, y


def test_drop_event_and_support_dedup():
    Xm, y = _drop_instance()
    X = DesignMatrix(Xm)
    path = compute_path(X, y)
    sizes = [len(s) for s in path.supports]
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "expected a drop event"
    # midpoint oracle still holds through the drop
    for seg in path.segments:
        lam = 0.5 * (seg.hi + seg.lo)
        fit = lasso_cd(X, y, lam, tol=1e-15, max_iter=200_000)
        assert Support.from_beta(fit.beta) == seg.support
    # a support appearing twice is recorded once
    fam = path_support_family(path)
    assert len(set(fam.supports)) == len(fam.supports)


def test_truncation_flag():
    rng = np.random.default_rng(37)
    Xm = rng.standard_normal((20, 10))
    y = rng.standard_normal(20)
    path = compute_path(DesignMatrix(Xm), y, max_knots=3)
    assert path.truncated
    assert path.knots.size == 3
    fam = path_support_family(path)
    assert Support(()) in fam


def test_duplicated_columns_do_not_crash():
    rng = np.random.default_rng(41)
    col = rng.standard_normal(10)
    Xm = np.column_stack([col, col, rng.standard_normal((10, 2))])
    y = rng.standard_normal(10)
    path = compute_path(DesignMatrix(Xm), y)
    assert path.knots.size >= 1
    # the duplicate pair never appears together in a support
    for T in path.supports:
        assert not {0, 1} <= set(T.indices)


def test_grid_family_above_lambda0():
    rng = np.random.default_rng(43)
    Xm = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    lam0 = np.max(np.abs(Xm.T @ y)) / 10
    fam = grid_support_family(DesignMatrix(Xm), y, [lam0 * 1.5, lam0 * 2.0])
    assert fam.supports == (Support(()),)


def test_grid_family_scalar():
    X = DesignMatrix([[1.0]])
    y = np.array([3.0])
    fam = grid_support_family(X, y, [4.0, 2.0, 1.0])
    assert fam.supports == (Support(()), Support((0,)))
    assert fam.source == "grid"


def test_grid_family_orthonormal_closed_form():
    # orthonormal design: support at lam is exactly {j : |z_j| > lam}
    rng = np.random.default_rng(47)
    n = 6
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Xm = np.sqrt(n) * Q
    y = rng.standard_normal(n)
    X = DesignMatrix(Xm)
    z = Xm.T @ y / n
    lams = [0.8 * np.max(np.abs(z)), 0.5 * np.max(np.abs(z)), 0.2 * np.max(np.abs(z))]
    fam = grid_support_family(X, y, lams)
    expected = [Support(())]
    for lam in sorted(lams, reverse=True):
        T = Support(tuple(np.nonzero(np.abs(z) > lam)[0]))
        if T not in expected:
            expected.append(T)
    assert fam.supports == tuple(expected)


def test_grid_rejects_nonpositive_lambdas():
    X = DesignMatrix([[1.0]])
    with pytest.raises(InvalidInputError):
        grid_support_family(X, np.array([1.0]), [1.0, 0.0])


def test_family_dedup_and_empty_always_present():
    fam = SupportFamily.from_supports([Support((1,)), Support((1,)), Support(())])
    assert fam.supports == (Support(()), Support((1,)))
