"""Aggregation of a family of supports: the penalized-criterion selector and
the Q-aggregation convex program over the probability simplex.

Both estimators operate on the least-squares fits P_T y for T in the family.
The Q-aggregation objective is a convex quadratic in Gram form, minimized
exactly by a primal active-set method.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .design import Support, as_design, as_response, project
from .errors import InvalidInputError
from .path import SupportFamily
from .weights import log_inv_weights

# Constants of the two penalized objectives.
CRIT_PENALTY = 18.0
Q_PENALTY = 26.0
# q_aggregate makes at most this many working-set changes per support.
WORKING_SET_CHANGES_PER_SUPPORT = 10
Q_OVERFLOWS = "the Q-aggregation objective overflows"


@dataclass
class PrecomputedFits:
    family: SupportFamily
    fitted_vectors: np.ndarray     # n x M, column j = P_{T_j} y
    gram: np.ndarray               # M x M, fitted_vectors^T fitted_vectors
    y_dot: np.ndarray              # length M, fitted_vectors^T y
    log_inv_weights: np.ndarray    # log(1/weight) per support
    y_norm_sq: float

    @property
    def size(self) -> int:
        return len(self.family)


@dataclass
class SimplexWeights:
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).ravel()
        if np.any(theta < -1e-12) or abs(theta.sum() - 1.0) > 1e-10:
            raise InvalidInputError("theta is not on the probability simplex")
        self.theta = np.clip(theta, 0.0, None)


@dataclass
class QAggResult:
    theta_hat: SimplexWeights
    mu_hat: np.ndarray
    objective: float
    fw_gap: float
    sigma_hat_sq_used: float
    converged: bool
    iterations: int


@dataclass
class CritResult:
    chosen: Support
    crit_value: float
    mu_hat: np.ndarray
    sigma_hat_sq_used: float


def precompute(X, y, family: SupportFamily) -> PrecomputedFits:
    """Materialize the per-support least-squares fits and their Gram matrix.

    A support uses the fit on the family's path when that is the path of
    (X, y); any other support is projected by design.project.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    if len(family) == 0:
        raise InvalidInputError("support family is empty")
    carried = family.path.fits if family.path is not None and family.path.of(X, y) else {}
    F = np.column_stack([carried[T.indices] if T.indices in carried
                         else project(X, T, y).fitted for T in family])
    return PrecomputedFits(
        family=family,
        fitted_vectors=F,
        gram=F.T @ F,
        y_dot=F.T @ y,
        log_inv_weights=log_inv_weights(X.p, [T.size for T in family]),
        y_norm_sq=float(y @ y),
    )


def crit_value(resid_sq, log_inv_w, sigma_hat_sq: float):
    """Penalized selection criterion resid_sq + 18 * sigma_hat_sq * log_inv_w,
    elementwise over arrays of residuals and weights."""
    if np.any(resid_sq < 0) or np.any(log_inv_w < 0) or sigma_hat_sq < 0:
        raise InvalidInputError("criterion arguments must be nonnegative")
    return resid_sq + CRIT_PENALTY * sigma_hat_sq * log_inv_w


def _clamp_sigma(pre: PrecomputedFits, sigma_hat_sq: float) -> float:
    if not math.isfinite(sigma_hat_sq):
        raise InvalidInputError("variance estimate must be finite")
    if sigma_hat_sq < 0:
        warnings.warn("negative variance estimate clamped to 0", RuntimeWarning)
        return 0.0
    if not math.isfinite(Q_PENALTY * float(sigma_hat_sq) * float(pre.log_inv_weights.max())):
        raise InvalidInputError("the penalty 26 * sigma_hat_sq * log(1/weight) overflows")
    return float(sigma_hat_sq)


def crit_select(pre: PrecomputedFits, sigma_hat_sq: float) -> CritResult:
    """Minimize the criterion over the family.

    Ties are broken by smaller support size, then lexicographic indices.
    """
    sigma_hat_sq = _clamp_sigma(pre, sigma_hat_sq)
    supports = pre.family.supports
    vals = crit_value(np.maximum(pre.y_norm_sq - np.diag(pre.gram), 0.0),
                      pre.log_inv_weights, sigma_hat_sq)
    j = min(range(pre.size), key=lambda j: (vals[j], supports[j].size, supports[j].indices))
    return CritResult(chosen=supports[j], crit_value=vals[j],
                      mu_hat=pre.fitted_vectors[:, j].copy(),
                      sigma_hat_sq_used=sigma_hat_sq)


def _linear_coeffs(pre: PrecomputedFits, sigma_hat_sq: float) -> np.ndarray:
    """-2 y^T P_T y + 0.5 ||P_T y||^2 + 26 sigma_hat_sq log(1/w_T) for each
    support T; they overflow when ||y||^2 nears the largest float."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = (-2.0 * pre.y_dot + 0.5 * np.diag(pre.gram)
             + Q_PENALTY * sigma_hat_sq * pre.log_inv_weights)
    if not np.all(np.isfinite(c)):
        raise InvalidInputError(Q_OVERFLOWS)
    return c


def q_aggregate(pre: PrecomputedFits, sigma_hat_sq: float) -> QAggResult:
    """Minimize the Q-aggregation objective over the simplex exactly.

    A primal active-set method (Nocedal & Wright 2006, section 16.5) whose
    working set P is the support of theta, started at the vertex with the
    smallest objective, so the result never exceeds the best vertex
    objective.  On P the step is d = Z w with Z = [I; -1^T], so sum(d) = 0
    holds exactly, and w minimizes the objective on the face by lstsq on the
    reduced Hessian Z^T G_PP Z, which may be singular; its singular values
    below 1e-9 times the largest count as zero.  When lstsq reports a
    rank-deficient system whose residual exceeds 1e-8 times the reduced
    gradient, the residual is a zero-curvature descent ray instead.  A ray,
    or a step that leaves the simplex, stops at the first blocking
    coordinate, which leaves P.  At the face minimizer, the coordinate
    outside P with the smallest gradient enters when it lies below
    theta^T grad by more than 1e-12 * (1 + |theta^T grad|); otherwise theta
    is optimal.  At most WORKING_SET_CHANGES_PER_SUPPORT * M entries and
    exits are made; "iterations" counts them, "converged" is false when the
    bound is hit, and the Frank-Wolfe gap max_k grad^T (theta - e_k) is the
    reported certificate.
    """
    sigma_hat_sq = _clamp_sigma(pre, sigma_hat_sq)
    M = pre.size
    G = pre.gram
    c = _linear_coeffs(pre, sigma_hat_sq)

    # vertex objectives: H(e_k) = 0.5*G_kk + c_k + ||y||^2, which overflow
    # when ||y - P_T y||^2 + 26 sigma_hat_sq log(1/w_T) does
    with np.errstate(over="ignore"):
        vertex_vals = 0.5 * np.diag(G) + c + pre.y_norm_sq
    theta = np.zeros(M)
    working = [int(np.argmin(vertex_vals))]
    theta[working] = 1.0
    changes = 0
    converged = False
    while changes < WORKING_SET_CHANGES_PER_SUPPORT * M:
        grad = G[:, working] @ theta[working] + c
        m = len(working)
        if m > 1:
            Z = np.vstack([np.eye(m - 1), -np.ones((1, m - 1))])
            hess = Z.T @ G[np.ix_(working, working)] @ Z
            red_grad = Z.T @ grad[working]
            # round-off in G leaves a singular face singular values of a few
            # eps times the largest; counted as curvature, they make the
            # Newton step drop the entrant at once, and the method cycles
            w, _, rank, _ = np.linalg.lstsq(hess, -red_grad, rcond=1e-9)
            resid = hess @ w + red_grad
            ray = (rank < m - 1
                   and np.linalg.norm(resid) > 1e-8 * np.linalg.norm(red_grad))
            # the residual of lstsq lies in the null space of hess: moving
            # along -resid lowers the objective linearly without bound
            d = Z @ (-resid if ray else w)
            shrinking = d < 0.0
            ratios = np.full(m, math.inf)
            ratios[shrinking] = theta[working][shrinking] / -d[shrinking]
            block = int(np.argmin(ratios))
            if ray or ratios[block] < 1.0:
                theta[working] = np.maximum(theta[working] + ratios[block] * d, 0.0)
                theta[working[block]] = 0.0
                del working[block]
                changes += 1
                continue
            theta[working] = theta[working] + d
            grad = G[:, working] @ theta[working] + c
        level = float(theta @ grad)
        outside = grad.copy()
        outside[working] = math.inf
        k = int(np.argmin(outside))
        if outside[k] >= level - 1e-12 * (1.0 + abs(level)):
            converged = True
            break
        working.append(k)
        changes += 1

    grad = G @ theta + c
    with np.errstate(over="ignore", invalid="ignore"):
        objective = float(0.5 * theta @ (G @ theta) + theta @ c + pre.y_norm_sq)
    if not math.isfinite(objective):
        raise InvalidInputError(Q_OVERFLOWS)
    return QAggResult(theta_hat=SimplexWeights(theta), mu_hat=pre.fitted_vectors @ theta,
                      objective=objective,
                      fw_gap=float(grad @ theta - np.min(grad)),
                      sigma_hat_sq_used=sigma_hat_sq, converged=converged,
                      iterations=changes)
