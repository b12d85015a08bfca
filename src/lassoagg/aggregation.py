"""Aggregation of a family of supports: the penalized-criterion selector and
the Q-aggregation convex program over the probability simplex.

Both estimators operate on the least-squares fits P_T y for T in the family.
The Q-aggregation objective is a convex quadratic evaluated in Gram form,
which is exact and O(M^2) per gradient for a family of size M.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import (ProjectionCache, Support, as_design, as_response, power_iteration,
                     project)
from .errors import InvalidInputError
from .path import SupportFamily
from .weights import log_inv_weight

# Constants of the two penalized objectives.
CRIT_PENALTY = 18.0
Q_PENALTY = 26.0


@dataclass
class PrecomputedFits:
    family: SupportFamily
    fitted_vectors: np.ndarray     # n x M, column j = P_{T_j} y
    gram: np.ndarray               # M x M, fitted_vectors^T fitted_vectors
    y_dot: np.ndarray              # length M, fitted_vectors^T y
    fit_norms_sq: np.ndarray       # diag of gram
    log_inv_weights: np.ndarray    # log(1/weight) per support
    y_norm_sq: float
    n: int
    p: int

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


def precompute(X, y, family: SupportFamily,
               cache: Optional[ProjectionCache] = None) -> PrecomputedFits:
    """Materialize the per-support least-squares fits and their Gram matrix.

    A family that carries fits of y on X (a path family) uses them; the
    supports of any other family are projected by pivoted QR.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    if len(family) == 0:
        raise InvalidInputError("support family is empty")
    if family.fits is not None and family.fits.of(X, y):
        F = family.fits.fitted
    else:
        if cache is None:
            cache = ProjectionCache(X)
        F = np.empty((X.n, len(family)))
        for j, T in enumerate(family):
            F[:, j] = project(X, T, y, cache=cache).fitted
    gram = F.T @ F
    return PrecomputedFits(
        family=family,
        fitted_vectors=F,
        gram=gram,
        y_dot=F.T @ y,
        fit_norms_sq=np.diag(gram).copy(),
        log_inv_weights=np.array([log_inv_weight(X.p, T.size) for T in family]),
        y_norm_sq=float(y @ y),
        n=X.n,
        p=X.p,
    )


def crit_value(resid_sq: float, log_inv_w: float, sigma_hat_sq: float) -> float:
    """Penalized selection criterion: resid_sq + 18 * sigma_hat_sq * log_inv_w."""
    if resid_sq < 0 or log_inv_w < 0 or sigma_hat_sq < 0:
        raise InvalidInputError("criterion arguments must be nonnegative")
    return resid_sq + CRIT_PENALTY * sigma_hat_sq * log_inv_w


def _clamp_sigma(sigma_hat_sq: float) -> float:
    if sigma_hat_sq < 0:
        warnings.warn("negative variance estimate clamped to 0", RuntimeWarning)
        return 0.0
    return float(sigma_hat_sq)


def crit_select(pre: PrecomputedFits, sigma_hat_sq: float) -> CritResult:
    """Minimize the criterion over the family.

    Ties are broken by smaller support size, then lexicographic indices.
    """
    sigma_hat_sq = _clamp_sigma(sigma_hat_sq)
    best = None
    for j, T in enumerate(pre.family):
        resid_sq = max(pre.y_norm_sq - pre.fit_norms_sq[j], 0.0)
        val = crit_value(resid_sq, pre.log_inv_weights[j], sigma_hat_sq)
        key = (val, T.size, T.indices)
        if best is None or key < best[0]:
            best = (key, j, T, val)
    _, j, T, val = best
    return CritResult(chosen=T, crit_value=val,
                      mu_hat=pre.fitted_vectors[:, j].copy(),
                      sigma_hat_sq_used=sigma_hat_sq)


def _linear_coeffs(pre: PrecomputedFits, sigma_hat_sq: float) -> np.ndarray:
    return (-2.0 * pre.y_dot + 0.5 * pre.fit_norms_sq
            + Q_PENALTY * sigma_hat_sq * pre.log_inv_weights)


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


def simplex_project(v) -> SimplexWeights:
    """Euclidean projection onto the probability simplex (sort-threshold)."""
    v = np.asarray(v, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("cannot project a non-finite vector")
    s = np.sort(v)[::-1]
    css = np.cumsum(s) - 1.0
    ks = np.arange(1, v.size + 1)
    cond = s - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = css[rho] / (rho + 1)
    theta = np.clip(v - tau, 0.0, None)
    theta /= theta.sum()
    return SimplexWeights(theta)


def q_aggregate(pre: PrecomputedFits, sigma_hat_sq: float,
                tol_gap: Optional[float] = None,
                max_iter: int = 50_000) -> QAggResult:
    """Minimize the Q-aggregation objective over the simplex.

    Projected gradient with fixed step 1/L and Nesterov momentum (restarted
    whenever the objective increases), initialized at the vertex with the
    smallest objective.  The returned point never exceeds the best vertex
    objective, and termination is certified by the Frank-Wolfe gap
    g(theta) = max_k grad^T (theta - e_k).
    """
    sigma_hat_sq = _clamp_sigma(sigma_hat_sq)
    if tol_gap is not None and not 0 < tol_gap < math.inf:
        raise InvalidInputError("tol_gap must be positive and finite")
    M = pre.size
    G = pre.gram
    c = _linear_coeffs(pre, sigma_hat_sq)

    def objective(theta):
        return float(0.5 * theta @ (G @ theta) + theta @ c + pre.y_norm_sq)

    # vertex objectives: H(e_k) = 0.5*G_kk + c_k + ||y||^2
    vertex_vals = 0.5 * np.diag(G) + c + pre.y_norm_sq
    theta = np.zeros(M)
    theta[int(np.argmin(vertex_vals))] = 1.0
    obj = objective(theta)

    L = max(power_iteration(lambda v: G @ v, M).value, 1e-12)
    step = 1.0 / L

    z = theta
    t_mom = 1.0
    fw_gap = math.inf
    converged = False
    it = 0
    for it in range(max_iter + 1):
        grad = G @ theta + c
        fw_gap = float(grad @ theta - np.min(grad))
        tol = tol_gap if tol_gap is not None else 1e-8 * (1.0 + abs(obj))
        if fw_gap <= tol:
            converged = True
            break
        if it == max_iter:
            break
        theta_new = simplex_project(z - step * (G @ z + c)).theta
        obj_new = objective(theta_new)
        if obj_new > obj:
            # momentum overshoot: restart from the current (monotone) iterate
            z = theta
            t_mom = 1.0
            theta_new = simplex_project(theta - step * grad).theta
            obj_new = objective(theta_new)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = theta_new + ((t_mom - 1.0) / t_next) * (theta_new - theta)
        t_mom = t_next
        theta, obj = theta_new, obj_new

    tw = SimplexWeights(theta)
    return QAggResult(theta_hat=tw, mu_hat=pre.fitted_vectors @ theta,
                      objective=objective(theta), fw_gap=fw_gap,
                      sigma_hat_sq_used=sigma_hat_sq, converged=converged,
                      iterations=it)
