"""Property tests: the square-root Lasso and the grid family read off the
Lasso path, checked against their optimality conditions and against the
coordinate-descent reference."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lassoagg.design import Support
from lassoagg.errors import DegenerateVarianceError
from lassoagg.path import SupportFamily, compute_path, grid_support_family
from lassoagg.simulation import generate_instance
from lassoagg.solvers import (SUPPORT_THRESH, lasso_cd, sqrt_lasso,
                              sqrt_lasso_universal_lambda)


@st.composite
def instances(draw, max_n=40, max_p=60):
    n = draw(st.integers(5, max_n))
    p = draw(st.integers(2, max_p))
    s = draw(st.integers(0, min(p, 4)))
    kind = draw(st.sampled_from(["iid_gaussian", "equicorrelated"]))
    seed = draw(st.integers(0, 10_000))
    sigma = draw(st.sampled_from([0.1, 0.3, 1.0]))
    inst = generate_instance(n, p, s, sigma, design_kind=kind, seed=seed)
    return inst.X.entries, inst.y


def sqrt_kkt_violation(X, y, lam, beta):
    """Worst violation of the square-root-Lasso optimality conditions."""
    n = X.shape[0]
    r = y - X @ beta
    g = X.T @ r / (math.sqrt(n) * float(np.linalg.norm(r)))
    on = np.abs(beta) > SUPPORT_THRESH
    worst = float(np.max(np.abs(g[on] - lam * np.sign(beta[on])), initial=0.0))
    return max(worst, float(np.max(np.abs(g[~on]), initial=0.0)) - lam)


@settings(max_examples=100, deadline=None)
@given(instances(), st.floats(0.2, 1.5))
def test_sqrt_lasso_meets_its_kkt_conditions(data, factor):
    X, y = data
    n, p = X.shape
    lam = factor * sqrt_lasso_universal_lambda(n, p)
    try:
        fit = sqrt_lasso(X, y, lam)
    except DegenerateVarianceError:
        return
    assert fit.converged
    assert sqrt_kkt_violation(X, y, lam, fit.beta) <= 1e-9 * lam
    r = y - X @ fit.beta
    assert math.isclose(fit.sigma_hat_sq, float(r @ r) / n, rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(instances(), st.floats(0.2, 1.5), st.integers(1, 6))
def test_sqrt_lasso_does_not_depend_on_the_path_given(data, factor, max_knots):
    X, y = data
    lam = factor * sqrt_lasso_universal_lambda(*X.shape)
    fits = []
    for path in (None, compute_path(X, y), compute_path(X, y, max_knots=max_knots)):
        try:
            fits.append(sqrt_lasso(X, y, lam, path=path))
        except DegenerateVarianceError:
            fits.append(None)
    if fits[0] is None:
        assert fits == [None, None, None]
        return
    for fit in fits[1:]:
        assert np.array_equal(fit.beta, fits[0].beta)
        assert (fit.sigma_hat_sq, fit.iterations, fit.converged) == \
            (fits[0].sigma_hat_sq, fits[0].iterations, fits[0].converged)


@settings(max_examples=25, deadline=None)
@given(instances(max_n=25, max_p=30),
       st.lists(st.floats(0.05, 1.2), min_size=1, max_size=4))
def test_grid_family_matches_coordinate_descent(data, factors):
    X, y = data
    path = compute_path(X, y)
    assume(path.lambda0 > 0.0)
    # penalties at least 1% away from every knot, so no coefficient is tiny
    lams = [f * path.lambda0 for f in factors
            if np.min(np.abs(path.knots - f * path.lambda0)) > 1e-2 * f * path.lambda0]
    assume(lams)
    fits = [lasso_cd(X, y, lam, tol=1e-13, max_iter=20_000) for lam in sorted(lams, reverse=True)]
    assume(all(fit.converged for fit in fits))
    expected = SupportFamily.from_supports(
        [Support.from_beta(fit.beta, SUPPORT_THRESH) for fit in fits], source="grid")
    assert grid_support_family(X, y, lams).supports == expected.supports
