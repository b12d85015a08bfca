import math

import numpy as np
import pytest

from lassoagg.aggregation import CritResult, QAggResult, precompute
from lassoagg.design import Support
from lassoagg.errors import DegenerateVarianceError, InvalidInputError
from lassoagg.path import SupportFamily
from lassoagg.pipelines import (aggregate, geometric_grid, path_aggregate,
                                sqrt_lasso_pipeline)
from lassoagg.simulation import generate_instance
from lassoagg.solvers import sqrt_lasso_universal_lambda
from lassoagg.weights import log_inv_weight


def test_path_aggregate_zero_response():
    # empty family only: objective is the prior-mass penalty at the empty set
    Xm = np.eye(4)
    report = path_aggregate(Xm, np.zeros(4), sigma_hat_sq=2.0, method="q")
    assert report.family.supports == (Support(()),)
    assert np.all(report.result.mu_hat == 0.0)
    assert report.result.objective == pytest.approx(
        26.0 * 2.0 * log_inv_weight(4, 0), rel=1e-12)


def test_path_aggregate_scalar_zero_sigma():
    # with sigma = 0 and a perfect single-column fit, q recovers y exactly
    report = path_aggregate(np.array([[1.0]]), np.array([3.0]),
                            sigma_hat_sq=0.0, method="q")
    assert report.result.mu_hat[0] == pytest.approx(3.0, abs=1e-10)


def test_path_aggregate_crit_method():
    rng = np.random.default_rng(1)
    Xm = rng.standard_normal((15, 5))
    y = rng.standard_normal(15)
    report = path_aggregate(Xm, y, sigma_hat_sq=0.5, method="crit")
    assert isinstance(report.result, CritResult)
    assert report.result.chosen in report.family
    assert report.path_meta["knot_count"] >= 1


def test_path_aggregate_truncated_prefix():
    rng = np.random.default_rng(2)
    Xm = rng.standard_normal((20, 8))
    y = rng.standard_normal(20)
    full = path_aggregate(Xm, y, 0.5, path_opts={})
    short = path_aggregate(Xm, y, 0.5, path_opts={"max_knots": 2})
    assert short.path_meta["truncated"]
    # the prefix family is contained in the full family
    assert set(short.family.supports) <= set(full.family.supports)
    # more candidates can only improve the minimized objective
    assert full.result.objective <= short.result.objective + 1e-8


def test_path_aggregate_rejects_bad_method():
    with pytest.raises(InvalidInputError):
        path_aggregate(np.eye(2), np.ones(2), 1.0, method="mean")


def test_aggregate_dispatch_rejects_bad_method_and_crit_options():
    pre = precompute(np.eye(2), np.ones(2),
                     SupportFamily.from_supports([Support((0,))]))
    with pytest.raises(InvalidInputError, match="unknown aggregation method"):
        aggregate(pre, 1.0, "mean")
    with pytest.raises(InvalidInputError, match="no solver options"):
        aggregate(pre, 1.0, "crit", {"tol_gap": 1e-6})
    assert isinstance(aggregate(pre, 1.0, "crit"), CritResult)
    assert isinstance(aggregate(pre, 1.0, "q", {"tol_gap": 1e-6}), QAggResult)


def test_geometric_grid_spanning_values():
    grid = geometric_grid(0.1, 10.0, 3)
    assert grid == pytest.approx([0.1, 1.0, 10.0], rel=1e-12)
    grid5 = geometric_grid(1.0, 16.0, 5)
    assert grid5 == pytest.approx([1.0, 2.0, 4.0, 8.0, 16.0], rel=1e-12)


def test_geometric_grid_paper_literal_values():
    # exponent (j-1)/M - 1 with lmin = 0.1, lmax = 10, M = 3
    grid = geometric_grid(0.1, 10.0, 3, mode="paper-literal")
    expected = [0.1 * 100.0 ** ((j - 1) / 3 - 1.0) for j in (1, 2, 3)]
    assert grid == pytest.approx(expected, rel=1e-12)
    assert max(grid) < 0.1 + 1e-12  # stays at or below lambda_min


def test_geometric_grid_invalid():
    with pytest.raises(InvalidInputError):
        geometric_grid(1.0, 0.5, 4)
    with pytest.raises(InvalidInputError):
        geometric_grid(0.1, 1.0, 1)


def test_sqrt_pipeline_null_regime():
    # response exactly orthogonal to every column: all grid fits are null and
    # the variance estimate is the raw second moment ||y||^2 / n
    rng = np.random.default_rng(3)
    n, p = 40, 4
    Xm = rng.standard_normal((n, p))
    Xm /= np.sqrt((Xm ** 2).sum(axis=0) / n)
    y = rng.standard_normal(n)
    Q, _ = np.linalg.qr(Xm)
    y -= Q @ (Q.T @ y)
    report = sqrt_lasso_pipeline(Xm, y, M=5)
    assert report.family.supports == (Support(()),)
    assert report.sigma_hat_sq == pytest.approx(np.sum(y ** 2) / n, rel=1e-10)


def test_sqrt_pipeline_recovers_strong_signal_support():
    rng = np.random.default_rng(4)
    n, p, s = 60, 10, 2
    Xm = rng.standard_normal((n, p))
    Xm /= np.sqrt((Xm ** 2).sum(axis=0) / n)
    beta = np.zeros(p)
    beta[:s] = 5.0
    y = Xm @ beta + 0.3 * rng.standard_normal(n)
    report = sqrt_lasso_pipeline(Xm, y, M=10, method="crit")
    assert report.result.chosen == Support((0, 1))
    assert 0.0 < report.sigma_hat_sq < np.sum(y ** 2) / n


def test_sqrt_pipeline_interpolation_is_degenerate():
    with pytest.raises(DegenerateVarianceError):
        sqrt_lasso_pipeline(np.array([[1.0], [0.0]]), np.array([3.0, 0.0]))


def test_sqrt_pipeline_q_and_grid_meta():
    rng = np.random.default_rng(5)
    n, p = 30, 6
    Xm = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    report = sqrt_lasso_pipeline(Xm, y, M=6)
    assert isinstance(report.result, QAggResult)
    assert len(report.grid_meta["grid"]) == 6
    assert report.grid_meta["lambda_max"] == pytest.approx(
        2.0 * math.sqrt(math.log(p / 0.01) / n), rel=1e-14)
    assert all(report.grid_meta["converged"])


def test_pipeline_determinism():
    rng = np.random.default_rng(6)
    Xm = rng.standard_normal((25, 7))
    y = rng.standard_normal(25)
    r1 = path_aggregate(Xm, y, 0.4, method="q")
    r2 = path_aggregate(Xm, y, 0.4, method="q")
    assert r1.result.objective == r2.result.objective
    assert np.array_equal(r1.result.mu_hat, r2.result.mu_hat)
    assert r1.family.supports == r2.family.supports


def test_sqrt_pipeline_ends_when_p_exceeds_n():
    # the default grid reaches an interpolating fit; a higher floor does not
    inst = generate_instance(100, 200, 5, 1.0, seed=3)
    with pytest.raises(DegenerateVarianceError):
        sqrt_lasso_pipeline(inst.X, inst.y)
    lam_u = sqrt_lasso_universal_lambda(100, 200)
    report = sqrt_lasso_pipeline(inst.X, inst.y, lambda_min=0.2 * lam_u)
    assert report.fits_converged
    assert 0.0 < report.sigma_hat_sq < float(inst.y @ inst.y) / 100
