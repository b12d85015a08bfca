import math

import numpy as np
import pytest

from lassoagg.aggregation import (CritResult, QAggResult, crit_select, crit_value,
                                  precompute, q_aggregate)
from lassoagg.design import DesignMatrix, Support, project
from lassoagg.errors import InvalidInputError
from lassoagg.path import SupportFamily
from lassoagg.pipelines import aggregate_estimators, path_aggregate
from lassoagg.simulation import generate_instance
from lassoagg.weights import log_inv_weight
from oracles import grid_support_family, q_objective


def make_family(*index_tuples, include_empty=False):
    return SupportFamily.from_supports([Support(t) for t in index_tuples],
                                       include_empty=include_empty)


def simplex_grid_min(pre, s2, step=1e-3):
    """The point of the simplex grid {(t1, t2, 1 - t1 - t2)} with the given
    step that has the smallest Q-aggregation objective, found in one
    vectorised pass, and q_objective there."""
    t1 = np.arange(0.0, 1.0 + step / 2, step)
    t2 = [np.arange(0.0, 1.0 - t + step / 2, step) for t in t1]
    T1, T2 = np.repeat(t1, [t.size for t in t2]), np.concatenate(t2)
    theta = np.column_stack((T1, T2, 1.0 - T1 - T2))
    c = -2.0 * pre.y_dot + 0.5 * np.diag(pre.gram) + 26.0 * s2 * pre.log_inv_weights
    values = 0.5 * np.einsum("ij,jk,ik->i", theta, pre.gram, theta) + theta @ c
    return q_objective(theta[np.argmin(values)], pre, s2)


def test_precompute_empty_family_only():
    X = DesignMatrix(np.ones((4, 2)))
    y = np.arange(4.0)
    pre = precompute(X, y, make_family((), include_empty=False))
    assert pre.gram.tolist() == [[0.0]]
    assert pre.y_dot.tolist() == [0.0]
    assert np.all(pre.fitted_vectors == 0.0)


def test_precompute_full_span_reproduces_y():
    rng = np.random.default_rng(1)
    Xm = rng.standard_normal((3, 3))
    y = rng.standard_normal(3)
    pre = precompute(DesignMatrix(Xm), y, make_family((), (0, 1, 2)))
    assert np.allclose(pre.fitted_vectors[:, 1], y, atol=1e-10)
    assert pre.gram[1, 1] == pytest.approx(float(y @ y), rel=1e-10)


def test_precompute_gram_matches_independent_projections():
    rng = np.random.default_rng(2)
    Xm = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    X = DesignMatrix(Xm)
    tuples = [(0,), (1, 2), (0, 2, 3)]
    pre = precompute(X, y, make_family(*tuples))
    fits = []
    for t in tuples:
        sub = Xm[:, list(t)]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        fits.append(sub @ coef)
    for i in range(3):
        for j in range(3):
            assert pre.gram[i, j] == pytest.approx(float(fits[i] @ fits[j]), abs=1e-10)
    # positive semidefinite up to round-off
    assert np.min(np.linalg.eigvalsh(pre.gram)) >= -1e-8 * np.trace(pre.gram)
    for j, t in enumerate(tuples):
        assert pre.log_inv_weights[j] == log_inv_weight(4, len(t))


def test_crit_value_examples():
    assert crit_value(7.0, 3.0, 0.0) == 7.0
    assert crit_value(0.0, 1.0, 1.0) == 18.0
    # p=4, |T|=2: penalty composes with the weight table
    w = log_inv_weight(4, 2)
    assert crit_value(5.0, w, 0.5) == pytest.approx(5.0 + 9.0 * w, rel=1e-14)
    with pytest.raises(InvalidInputError):
        crit_value(-1.0, 0.0, 0.0)
    # elementwise over arrays, rejecting any negative entry
    ws = np.array([log_inv_weight(4, k) for k in range(3)])
    vals = crit_value(np.array([5.0, 2.0, 0.0]), ws, 0.5)
    assert vals.tolist() == [crit_value(r, wk, 0.5) for r, wk in zip([5.0, 2.0, 0.0], ws)]
    for resid, log_inv_w in ((np.array([1.0, -1e-300]), ws[:2]),
                             (np.ones(2), np.array([1.0, -1.0]))):
        with pytest.raises(InvalidInputError):
            crit_value(resid, log_inv_w, 1.0)


def test_crit_select_family_of_empty():
    X = DesignMatrix(np.ones((4, 2)))
    y = np.arange(4.0)
    res = crit_select(precompute(X, y, make_family(())), 1.0)
    assert res.chosen == Support(())
    assert np.all(res.mu_hat == 0.0)


def test_crit_select_zero_sigma_prefers_better_fit():
    rng = np.random.default_rng(3)
    Xm = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    res = crit_select(precompute(DesignMatrix(Xm), y, make_family((), (0, 1))), 0.0)
    assert res.chosen == Support((0, 1))


def test_crit_select_matches_brute_force_and_permutation():
    rng = np.random.default_rng(4)
    Xm = rng.standard_normal((12, 6))
    y = rng.standard_normal(12)
    X = DesignMatrix(Xm)
    tuples = [(), (0,), (1, 4), (0, 2, 5), (3,)]
    s2 = 0.8
    # independent re-evaluation via lstsq residuals
    best_val, best_T = math.inf, None
    for t in tuples:
        if t:
            sub = Xm[:, list(t)]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            resid_sq = float(np.sum((y - sub @ coef) ** 2))
        else:
            resid_sq = float(y @ y)
        val = resid_sq + 18.0 * s2 * log_inv_weight(6, len(t))
        if val < best_val:
            best_val, best_T = val, Support(t)
    for order in (tuples, tuples[::-1]):
        res = crit_select(precompute(X, y, make_family(*order)), s2)
        assert res.chosen == best_T
        assert res.crit_value == pytest.approx(best_val, rel=1e-9)
        recomputed = float(np.sum((y - res.mu_hat) ** 2)) + \
            18.0 * s2 * log_inv_weight(6, res.chosen.size)
        assert res.crit_value == pytest.approx(recomputed, rel=1e-9)


def test_q_objective_single_atom_and_vertices():
    rng = np.random.default_rng(5)
    Xm = rng.standard_normal((9, 4))
    y = rng.standard_normal(9)
    X = DesignMatrix(Xm)
    pre = precompute(X, y, make_family((0, 1)))
    s2 = 0.6
    fit = project(X, Support((0, 1)), y).fitted
    expected = float(np.sum((fit - y) ** 2)) + 26.0 * s2 * log_inv_weight(4, 2)
    assert q_objective(np.array([1.0]), pre, s2) == pytest.approx(expected, rel=1e-10)

    pre3 = precompute(X, y, make_family((), (0,), (1, 3)))
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        T = pre3.family.supports[k]
        fit = project(X, T, y).fitted
        expected = float(np.sum((fit - y) ** 2)) + 26.0 * s2 * log_inv_weight(4, T.size)
        assert q_objective(e, pre3, s2) == pytest.approx(expected, rel=1e-10)


def test_q_objective_gram_form_matches_direct_definition():
    rng = np.random.default_rng(6)
    Xm = rng.standard_normal((11, 5))
    y = rng.standard_normal(11)
    pre = precompute(DesignMatrix(Xm), y, make_family((0,), (1, 2), (0, 3, 4)))
    theta = np.array([0.2, 0.5, 0.3])
    s2 = 0.9
    F = pre.fitted_vectors
    mu_t = F @ theta
    pen = sum(theta[j] * np.sum((F[:, j] - mu_t) ** 2) for j in range(3))
    K = float(theta @ pre.log_inv_weights)
    direct = float(np.sum((mu_t - y) ** 2)) + 0.5 * pen + 26.0 * s2 * K
    assert q_objective(theta, pre, s2) == pytest.approx(direct, rel=1e-9)


def test_q_objective_rejects_off_simplex():
    X = DesignMatrix(np.ones((3, 1)))
    pre = precompute(X, np.ones(3), make_family((0,)))
    with pytest.raises(InvalidInputError):
        q_objective(np.array([1.5]), pre, 0.0)


def test_q_aggregate_single_atom():
    rng = np.random.default_rng(8)
    Xm = rng.standard_normal((7, 3))
    y = rng.standard_normal(7)
    X = DesignMatrix(Xm)
    pre = precompute(X, y, make_family((0, 2)))
    res = q_aggregate(pre, 0.5)
    assert res.converged
    assert res.theta_hat.theta.tolist() == [1.0]
    assert np.allclose(res.mu_hat, project(X, Support((0, 2)), y).fitted, atol=1e-12)


def test_q_aggregate_two_atoms_matches_1d_closed_form():
    rng = np.random.default_rng(9)
    Xm = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    pre = precompute(DesignMatrix(Xm), y, make_family((0,), (1, 2, 3)))
    s2 = 0.4
    res = q_aggregate(pre, s2)
    # H((t, 1-t)) = A t^2 + B t + C; minimize over [0, 1] in closed form
    G, c = pre.gram, (-2.0 * pre.y_dot + 0.5 * np.diag(pre.gram)
                      + 26.0 * s2 * pre.log_inv_weights)
    A = 0.5 * (G[0, 0] - 2 * G[0, 1] + G[1, 1])
    B = G[0, 1] - G[1, 1] + c[0] - c[1]
    C = 0.5 * G[1, 1] + c[1] + pre.y_norm_sq
    t_star = 0.5 if A == 0 else min(1.0, max(0.0, -B / (2 * A)))
    h_star = A * t_star ** 2 + B * t_star + C
    assert res.objective == pytest.approx(h_star, abs=1e-8)


def test_q_aggregate_three_atoms_vs_dense_grid():
    rng = np.random.default_rng(10)
    Xm = rng.standard_normal((12, 5))
    y = rng.standard_normal(12)
    pre = precompute(DesignMatrix(Xm), y, make_family((0,), (1, 2), (3,)))
    s2 = 0.2
    res = q_aggregate(pre, s2)
    assert res.converged and res.fw_gap <= 1e-10
    best = simplex_grid_min(pre, s2)
    assert res.objective <= best + 1e-10
    assert abs(res.objective - best) <= 1e-6


def test_q_aggregate_vertex_domination():
    rng = np.random.default_rng(11)
    Xm = rng.standard_normal((15, 6))
    y = rng.standard_normal(15)
    pre = precompute(DesignMatrix(Xm), y, make_family((), (0,), (1, 2), (0, 3, 4)))
    res = q_aggregate(pre, 0.7)
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        assert res.objective <= q_objective(e, pre, 0.7) + 1e-9


def test_q_aggregate_is_exact_on_the_equicorrelated_seed_2_path():
    # projected gradient stopped at a Frank-Wolfe gap of 1.5e-5 here
    inst = generate_instance(200, 1000, 10, 1.0, design_kind="equicorrelated", seed=2)
    res = path_aggregate(inst.X, inst.y, 1.0, method="q").result
    assert res.converged
    assert res.fw_gap <= 1e-9 * (1.0 + abs(res.objective))


def test_q_aggregate_zero_sigma_single_support_is_projection():
    rng = np.random.default_rng(12)
    Xm = rng.standard_normal((9, 4))
    y = rng.standard_normal(9)
    X = DesignMatrix(Xm)
    pre = precompute(X, y, make_family((1, 3)))
    res = q_aggregate(pre, 0.0)
    assert np.allclose(res.mu_hat, project(X, Support((1, 3)), y).fitted, atol=1e-12)


def test_q_aggregate_negative_sigma_clamped():
    X = DesignMatrix(np.ones((3, 1)))
    pre = precompute(X, np.ones(3), make_family((0,)))
    with pytest.warns(RuntimeWarning):
        res = q_aggregate(pre, -1.0)
    assert res.sigma_hat_sq_used == 0.0


@pytest.mark.parametrize("sigma_hat_sq", [math.nan, math.inf, -math.inf])
def test_nonfinite_sigma_rejected(sigma_hat_sq):
    X = DesignMatrix(np.ones((3, 1)))
    pre = precompute(X, np.ones(3), make_family((), (0,)))
    with pytest.raises(InvalidInputError):
        q_aggregate(pre, sigma_hat_sq)
    with pytest.raises(InvalidInputError):
        crit_select(pre, sigma_hat_sq)
    with pytest.raises(InvalidInputError):
        q_objective(np.array([0.5, 0.5]), pre, sigma_hat_sq)
    # NaN used to give an unconverged QP or, with crit, the empty support
    inst = generate_instance(20, 6, 2, 0.5, seed=3)
    for method in ("q", "crit"):
        with pytest.raises(InvalidInputError):
            path_aggregate(inst.X, inst.y, sigma_hat_sq, method=method)


def test_aggregate_estimators_trivial_and_dedup():
    rng = np.random.default_rng(13)
    Xm = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    res = aggregate_estimators(Xm, y, [np.zeros(3)], 1.0, method="q")
    assert isinstance(res, QAggResult)
    assert np.all(res.mu_hat == 0.0)

    b1 = np.array([1.0, 0.0, -2.0])
    b2 = np.array([0.5, 0.0, 3.0])  # same support
    res = aggregate_estimators(Xm, y, [b1, b2], 1.0, method="crit")
    assert isinstance(res, CritResult)
    assert res.chosen == Support((0, 2))


def test_aggregate_estimators_matches_grid_pipeline():
    rng = np.random.default_rng(14)
    Xm = rng.standard_normal((20, 6))
    y = rng.standard_normal(20)
    X = DesignMatrix(Xm)
    lam0 = np.max(np.abs(Xm.T @ y)) / 20
    lams = [lam0 * f for f in (1.5, 0.6, 0.25, 0.1)]
    from lassoagg.solvers import lasso_cd
    betas = [lasso_cd(X, y, lam, tol=1e-12).beta for lam in sorted(lams, reverse=True)]
    via_betas = aggregate_estimators(X, y, betas, 0.5, method="q")
    fam = grid_support_family(X, y, lams)
    via_family = q_aggregate(precompute(X, y, fam), 0.5)
    assert via_betas.objective == pytest.approx(via_family.objective, abs=1e-8)
    assert np.allclose(via_betas.mu_hat, via_family.mu_hat, atol=1e-6)


def test_aggregate_estimators_rejects_empty_list():
    with pytest.raises(InvalidInputError):
        aggregate_estimators(np.ones((3, 1)), np.ones(3), [], 1.0)


def test_least_squares_domination_surrogate():
    rng = np.random.default_rng(15)
    Xm = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    X = DesignMatrix(Xm)
    T = Support((0, 2, 4))
    fit = project(X, T, y).fitted
    for _ in range(20):
        b = np.zeros(5)
        b[list(T.indices)] = rng.standard_normal(3)
        assert np.linalg.norm(fit - y) <= np.linalg.norm(Xm @ b - y) + 1e-10
