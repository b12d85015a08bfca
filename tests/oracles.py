"""Independent references that only the tests use: the Lasso's KKT check,
coordinate descent run to its cycle cap, the coefficient vector and the
grid support family read off a Lasso path, the Q-aggregation objective at
a given theta, and Q-aggregation over every support of a small design.

pytest puts this directory on sys.path, so a test imports them with
``from oracles import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from lassoagg.aggregation import (PrecomputedFits, QAggResult, SimplexWeights, _clamp_sigma,
                                  _linear_coeffs, precompute, q_aggregate)
from lassoagg.design import SUPPORT_THRESH, Support, as_design, as_response
from lassoagg.errors import InvalidInputError
from lassoagg.path import LassoPath, SupportFamily, compute_path
from lassoagg.solvers import LassoFit, _duality_gap


@dataclass
class KKTReport:
    ok: bool
    worst_violation: float


def kkt_check(X, y, lam: float, beta, tol: float = 1e-7) -> KKTReport:
    """First-order optimality report for the Lasso objective.

    Requires |X_j^T (y - Xb)/n| <= lam + tol everywhere and the gradient to
    equal lam*sign(b_j) up to tol on active coordinates.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    beta = np.asarray(beta, dtype=float).ravel()
    g = X.entries.T @ (y - X.entries @ beta) / X.n
    worst = 0.0
    for j in range(X.p):
        if abs(beta[j]) > SUPPORT_THRESH:
            worst = max(worst, abs(g[j] - lam * math.copysign(1.0, beta[j])))
        else:
            worst = max(worst, max(0.0, abs(g[j]) - lam))
    return KKTReport(ok=worst <= tol, worst_violation=worst)


def lasso_cd_unshortened(X, y, lam: float, tol: float, max_iter: int) -> LassoFit:
    """lasso_cd from beta = 0 without its stop at a fixed point: the same
    cycle, repeated until the duality gap is at most tol or max_iter cycles
    have run."""
    X = as_design(X)
    y = as_response(y, X.n)
    n, p = X.n, X.p
    Xm = X.entries
    norms_n = X.column_norms_sq / n
    beta = np.zeros(p)
    r = y - Xm @ beta

    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        for j in range(p):
            if norms_n[j] <= 0.0:
                continue
            bj = beta[j]
            col = Xm[:, j]
            if bj != 0.0:
                r += bj * col
            rho = float(col @ r) / n
            bj_new = math.copysign(max(abs(rho) - lam, 0.0), rho) / norms_n[j]
            beta[j] = bj_new
            if bj_new != 0.0:
                r -= bj_new * col
        gap = _duality_gap(n, lam, beta, r, Xm.T @ r)
        if gap <= tol:
            return LassoFit(beta=beta, lam=lam, duality_gap=gap, iterations=it, converged=True)
    return LassoFit(beta=beta, lam=lam, duality_gap=gap, iterations=it, converged=False)


def beta_at(path: LassoPath, lam: float) -> np.ndarray:
    """Coefficient vector of the path at penalty level lam (zero above
    lambda_0)."""
    if lam < 0:
        raise InvalidInputError("lam must be nonnegative")
    if not path.segments or lam >= path.lambda0:
        return np.zeros(path.p)
    for seg in path.segments:
        if lam >= seg.lo:
            return seg.beta(lam, path.p)
    # below the stopping lambda: clamp to the last segment's endpoint
    last = path.segments[-1]
    return last.beta(last.lo, path.p)


def grid_support_family(X, y, lambdas) -> SupportFamily:
    """Supports of the Lasso fits on a penalty grid, read off the path,
    which also supplies their least-squares fits.  Penalties below the last
    knot of a truncated path are unconverged and excluded from the family.
    The empty support is always included.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    lambdas = sorted(float(l) for l in np.atleast_1d(np.asarray(lambdas, dtype=float)))
    if not lambdas or lambdas[0] <= 0.0:
        raise InvalidInputError("all grid penalties must be positive")

    path = compute_path(X, y)
    supports = [Support.from_beta(beta_at(path, lam))
                for lam in reversed(lambdas) if not path.truncated or lam >= path.knots[-1]]
    fam = SupportFamily.from_supports(supports, source="grid")
    fam.path = path
    return fam


def q_objective(theta, pre: PrecomputedFits, sigma_hat_sq: float) -> float:
    """Q-aggregation objective in Gram form:

        0.5 * theta^T G theta
        + sum_j theta_j (-2 y.mu_j + 0.5 ||mu_j||^2 + 26 s2 log(1/w_j))
        + ||y||^2

    which equals ||mu_theta - y||^2 + 0.5*pen(theta) + 26*s2*K(theta) with
    pen(theta) = sum_j theta_j ||mu_j - mu_theta||^2 and
    K(theta) = sum_j theta_j log(1/w_j).
    """
    theta = theta.theta if isinstance(theta, SimplexWeights) else np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != pre.size:
        raise InvalidInputError("theta length does not match the family size")
    if np.any(theta < -1e-8) or abs(theta.sum() - 1.0) > 1e-8:
        raise InvalidInputError("theta is off the probability simplex")
    sigma_hat_sq = _clamp_sigma(sigma_hat_sq)
    c = _linear_coeffs(pre, sigma_hat_sq)
    return float(0.5 * theta @ (pre.gram @ theta) + theta @ c + pre.y_norm_sq)


def exhaustive_spa(X, y, sigma_hat_sq: float) -> QAggResult:
    """Q-aggregation over all 2^p supports (brute force; p <= 10 only)."""
    X = as_design(X)
    if X.p > 10:
        raise InvalidInputError("exhaustive aggregation is capped at p <= 10")
    all_supports = [Support(tuple(c))
                    for k in range(X.p + 1)
                    for c in combinations(range(X.p), k)]
    family = SupportFamily.from_supports(all_supports, source="external")
    pre = precompute(X, y, family)
    return q_aggregate(pre, sigma_hat_sq)
