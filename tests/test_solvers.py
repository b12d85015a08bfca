import math

import numpy as np
import pytest

import lassoagg.path
from lassoagg.design import DesignMatrix
from lassoagg.errors import DegenerateVarianceError, InvalidInputError
from lassoagg.simulation import generate_instance
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


def test_sqrt_lasso_fits_at_the_floor_when_the_root_lies_below_it():
    # all 20 columns enter with n = 30, so the residual keeps ||y - fit|| = 3.23
    # down to the floor 1.22e-8; the root, about 5.9e-9, lies below it
    inst = generate_instance(30, 20, 3, 1.0, seed=1)
    path = lassoagg.path.compute_path(inst.X, inst.y)
    last = path.segments[-1]
    assert not path.truncated and len(last.active) == 20
    fit = sqrt_lasso(inst.X, inst.y, 1e-8, path=path)
    assert not fit.converged and fit.iterations == len(path.segments)
    assert np.array_equal(fit.beta, last.beta(last.lo, 20))
    resid = float(np.linalg.norm(inst.y - (last.fit - last.lo * last.slope)))
    assert resid == pytest.approx(3.23, abs=0.01)
    assert fit.sigma_hat_sq == pytest.approx(resid ** 2 / 30, rel=1e-12)
    # with p > n the residual collapses at the floor
    wide = generate_instance(15, 40, 3, 1.0, seed=1)
    with pytest.raises(DegenerateVarianceError, match="residual collapsed"):
        sqrt_lasso(wide.X, wide.y, 1e-8)


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


def _capped_instance():
    """A (30, 20) instance whose square-root-Lasso root at lam = 0.3 lies on
    segment k of its path, with k and the fit read off the complete path."""
    rng = np.random.default_rng(5)
    Xm = rng.standard_normal((30, 20))
    beta = np.zeros(20)
    beta[:5] = [3.0, -2.0, 1.5, -1.0, 0.5]
    y = Xm @ beta + 0.5 * rng.standard_normal(30)
    X, lam = DesignMatrix(Xm), 0.3
    full = lassoagg.path.compute_path(X, y)
    expected = sqrt_lasso(X, y, lam, path=full)
    assert expected.converged and 1 < expected.iterations < full.knots.size - 4
    return X, y, lam, expected


def path_bytes(path):
    """A path's knots, flags and segment fields, for comparing paths bit for bit."""
    return (path.knots.tobytes(), path.truncated, path.degenerate,
            [(seg.hi, seg.lo, seg.active, seg.a.tobytes(), seg.b.tobytes(),
              seg.fit.tobytes(), seg.slope.tobytes()) for seg in path.segments])


def test_sqrt_lasso_searches_a_capped_path_before_continuing_it(monkeypatch):
    X, y, lam, expected = _capped_instance()
    k = expected.iterations
    compute_path = lassoagg.path.compute_path
    calls = []
    monkeypatch.setattr(lassoagg.path, "compute_path",
                        lambda *args, **kw: calls.append(kw) or compute_path(*args, **kw))
    # a cap of m knots leaves the uncapped path's first m segments: the root
    # on segment k needs m >= k; at lower caps the path's own loop continues
    # to the root
    for cap in (k + 1, k + 4, k, 1):
        capped = compute_path(X, y, max_knots=cap)
        assert capped.truncated
        before = path_bytes(capped)
        calls.clear()
        for _ in range(2):      # a second fit reads what the first continued
            fit = sqrt_lasso(X, y, lam, path=capped)
            assert calls == []
            assert fit.sigma_hat_sq == expected.sigma_hat_sq
            assert np.array_equal(fit.beta, expected.beta)
            assert fit.iterations == k and fit.converged
        # the family is built from the path, which continuing leaves as it was
        assert path_bytes(capped) == before


def test_sqrt_lasso_searches_no_further_than_its_root(monkeypatch):
    X, y, lam, expected = _capped_instance()
    k = expected.iterations
    compute_path = lassoagg.path.compute_path
    real = lassoagg.path._next_event
    searches = []
    monkeypatch.setattr(lassoagg.path, "_next_event",
                        lambda *args: searches.append(None) or real(*args))
    # the entry at lambda_0, then one search for the lower end of each
    # segment up to the root's
    compute_path(X, y, max_knots=k)
    needed = len(searches)
    assert needed == k + 1
    searches.clear()
    sqrt_lasso(X, y, lam)
    assert len(searches) == needed
    for cap in (1, 2, k, k + 1, k + 4):
        searches.clear()
        capped = compute_path(X, y, max_knots=cap)
        sqrt_lasso(X, y, lam, path=capped)
        assert len(searches) == max(needed, cap + 1)


@pytest.mark.parametrize("default_cap", [3, 4, 5])
def test_sqrt_lasso_reads_no_further_than_the_default_cap(monkeypatch, default_cap):
    X, y, lam, expected = _capped_instance()
    assert expected.iterations > default_cap
    monkeypatch.setattr(lassoagg.path, "_default_max_knots", lambda X: default_cap)
    compute_path = lassoagg.path.compute_path
    # the root lies below the default cap: the fit at the lower end of its
    # last segment, whatever the cap of the path given, longer paths included
    fits = [sqrt_lasso(X, y, lam, path=None if cap is None else compute_path(X, y, max_knots=cap))
            for cap in (None, 1, default_cap - 1, default_cap, default_cap + 1, 50)]
    for fit in fits:
        assert not fit.converged and fit.iterations == default_cap
        assert fit.sigma_hat_sq == fits[0].sigma_hat_sq
        assert np.array_equal(fit.beta, fits[0].beta)
    full = compute_path(X, y)
    last = full.segments[default_cap - 1]
    assert np.array_equal(fits[0].beta, last.beta(last.lo, X.p))


def test_universal_lambda_values_and_scaling():
    assert sqrt_lasso_universal_lambda(100, 100) == pytest.approx(
        2.0 * math.sqrt(math.log(10000.0) / 100.0), rel=1e-14)
    assert sqrt_lasso_universal_lambda(1, 1) == pytest.approx(
        2.0 * math.sqrt(math.log(100.0)), rel=1e-14)
    # lambda scales as n^{-1/2}
    assert sqrt_lasso_universal_lambda(400, 50) == pytest.approx(
        0.5 * sqrt_lasso_universal_lambda(100, 50), rel=1e-14)
