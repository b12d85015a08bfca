"""Correctness checks made apart from the toolkit.

Nothing here imports ``lassoagg``: every quantity is recomputed with numpy
(``numpy.linalg.lstsq`` for least-squares fits) and ``math.lgamma`` (for the
prior weights), from the inputs the toolkit was given and the outputs it
reported.  Each check raises ``CheckError`` with a message naming what is
wrong.  Supports are 0-based tuples here; reports are 1-based.
"""

from __future__ import annotations

import math

import numpy as np

# Constants of the paper's estimators and bounds.
CRIT_PENALTY = 18.0
Q_PENALTY = 26.0
SUPPORT_THRESH = 1e-10
# The Q-aggregation solver stops when its Frank-Wolfe gap is at most
# 1e-8 * (1 + |objective|) unless a tolerance is given.
Q_DEFAULT_REL_TOL = 1e-8
# Segments from the first one whose active set reaches this share of
# min(n, p) columns on are not KKT-checked: the homotopy is known to break
# KKT there (see the FOUND lines of CHANGES.md).
SATURATED_SHARE = 0.95

# Tolerances for comparing recomputed with reported values.  Fits from
# lstsq and from the toolkit's pivoted QR agree to about 1e-13 relative.
REL_TOL = 1e-9
FIT_TOL = 1e-8
KKT_TOL = 1e-9          # relative to lambda_0 (Lasso) or lambda (sqrt-Lasso)
SQRT_KKT_TOL = 1e-6     # the sqrt-Lasso alternation stops at 1e-8 on sigma
# The recomputed FW gap may exceed the solver's own by rounding only.
GAP_SLACK = 1e-3


class CheckError(AssertionError):
    """An output of the toolkit disagrees with its independent recomputation."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * (1.0 + max(abs(a), abs(b)))


def load_csv(path: str) -> np.ndarray:
    """Read a headerless numeric CSV with numpy's own parser."""
    return np.loadtxt(path, delimiter=",", ndmin=2)


def log_inv_weight(p: int, k: int) -> float:
    """log(1/w_T) for |T| = k: log H_p + log C(p, k) + k."""
    log_hp = math.log((math.e - math.exp(-p)) / (math.e - 1.0))
    log_binom = math.lgamma(p + 1) - math.lgamma(k + 1) - math.lgamma(p - k + 1)
    return log_hp + log_binom + k


def zero_based(supports) -> list:
    return [tuple(int(i) - 1 for i in T) for T in supports]


def lstsq_fit(X: np.ndarray, y: np.ndarray, T: tuple) -> np.ndarray:
    """P_T y: the least-squares fit of y on the columns T of X."""
    if not T:
        return np.zeros(X.shape[0])
    XT = X[:, list(T)]
    coef = np.linalg.lstsq(XT, y, rcond=None)[0]
    return XT @ coef


def fit_matrix(X: np.ndarray, y: np.ndarray, family: list) -> np.ndarray:
    """n x M matrix whose column j is P_{T_j} y."""
    F = np.empty((X.shape[0], len(family)))
    for j, T in enumerate(family):
        F[:, j] = lstsq_fit(X, y, T)
    return F


def check_family(family: list):
    """The family is a list of distinct supports containing the empty one."""
    require(() in family, "the support family does not contain the empty support")
    require(len(set(family)) == len(family), "the support family has duplicates")
    for T in family:
        require(list(T) == sorted(set(T)) and (not T or T[0] >= 0),
                f"malformed support {T}")


def path_family(segments) -> list:
    """Distinct supports of the path segments, empty support first."""
    family = [()]
    for seg in segments:
        T = tuple(sorted(int(i) for i in seg[2]))
        if T not in family:
            family.append(T)
    return family


def check_path_kkt(X: np.ndarray, y: np.ndarray, segments, lambda0: float) -> int:
    """Lasso KKT conditions at the midpoint of each path segment.

    ``segments`` holds (hi, lo, active, a, b) with beta_active(lam) =
    a - lam * b.  At penalty lam the gradient g = X^T (y - X beta) / n must
    equal lam * sign(beta_j) on the support and stay within [-lam, lam]
    elsewhere.  The near-saturated tail is skipped.  Returns the number of
    segments checked.
    """
    n, p = X.shape
    require(close(lambda0, float(np.max(np.abs(X.T @ y))) / n),
            "lambda_0 is not max_j |X_j^T y| / n")
    saturated = math.ceil(SATURATED_SHARE * min(n, p))
    checked = 0
    for k, (hi, lo, active, a, b) in enumerate(segments):
        if len(active) >= saturated:
            break
        lam = 0.5 * (hi + lo)
        beta = np.zeros(p)
        beta[list(active)] = np.asarray(a) - lam * np.asarray(b)
        g = X.T @ (y - X @ beta) / n
        on = np.abs(beta) > SUPPORT_THRESH
        worst = 0.0
        if on.any():
            worst = float(np.max(np.abs(g[on] - lam * np.sign(beta[on]))))
        if (~on).any():
            worst = max(worst, float(np.max(np.abs(g[~on]))) - lam)
        require(worst <= KKT_TOL * lambda0,
                f"segment {k} (|A| = {len(active)}, lambda = {lam:.6g}) "
                f"violates the Lasso KKT conditions by {worst / lambda0:.3g} * lambda_0")
        checked += 1
    return checked


def q_objective(F: np.ndarray, y: np.ndarray, theta: np.ndarray,
                log_inv_w: np.ndarray, sigma_sq: float) -> float:
    """||F theta - y||^2 + 0.5 sum_j theta_j ||F_j - F theta||^2
    + 26 sigma^2 sum_j theta_j log(1/w_j), from its definition."""
    mu = F @ theta
    spread = np.sum((F - mu[:, None]) ** 2, axis=0)
    return float(np.sum((mu - y) ** 2) + 0.5 * theta @ spread
                 + Q_PENALTY * sigma_sq * theta @ log_inv_w)


def check_q_result(F: np.ndarray, y: np.ndarray, log_inv_w: np.ndarray,
                   result: dict, sigma_sq: float, tol_gap=None):
    """Check a reported Q-aggregate against fits F of the full family."""
    theta = np.asarray(result["theta_hat"], dtype=float)
    require(theta.shape == (F.shape[1],), "theta_hat has the wrong length")
    require(bool(np.all(theta >= 0.0)) and abs(theta.sum() - 1.0) <= 1e-10,
            "theta_hat is not on the probability simplex")
    mu_hat = np.asarray(result["mu_hat"], dtype=float)
    scale = 1.0 + float(np.max(np.abs(y)))
    require(float(np.max(np.abs(mu_hat - F @ theta))) <= FIT_TOL * scale,
            "mu_hat is not F theta_hat")
    obj = q_objective(F, y, theta, log_inv_w, sigma_sq)
    require(close(obj, result["objective"]),
            f"reported objective {result['objective']!r} != recomputed {obj!r}")
    # gradient of the objective in its Gram form
    G = F.T @ F
    c = -2.0 * (F.T @ y) + 0.5 * np.diag(G) + Q_PENALTY * sigma_sq * log_inv_w
    grad = G @ theta + c
    gap = float(grad @ theta - np.min(grad))
    tol = tol_gap if tol_gap is not None else Q_DEFAULT_REL_TOL * (1.0 + abs(obj))
    require(gap <= tol * (1.0 + GAP_SLACK),
            f"Frank-Wolfe gap {gap:.3g} over the family exceeds the tolerance {tol:.3g}")
    best_vertex = float(np.min(0.5 * np.diag(G) + c)) + float(y @ y)
    require(obj <= best_vertex + REL_TOL * (1.0 + abs(best_vertex)),
            f"objective {obj!r} exceeds the best vertex {best_vertex!r}")
    return obj


def check_crit_result(F: np.ndarray, y: np.ndarray, family: list, log_inv_w: np.ndarray,
                      result: dict, sigma_sq: float):
    """The chosen support minimises ||y - P_T y||^2 + 18 sigma^2 log(1/w_T)
    and mu_hat = P_T y."""
    resid = np.sum((y[:, None] - F) ** 2, axis=0)
    crit = resid + CRIT_PENALTY * sigma_sq * log_inv_w
    chosen = tuple(int(i) - 1 for i in result["chosen"])
    require(chosen in family, "the chosen support is not in the family")
    j = family.index(chosen)
    best = float(np.min(crit))
    require(crit[j] <= best + REL_TOL * (1.0 + abs(best)),
            f"chosen support has criterion {crit[j]!r} above the minimum {best!r}")
    require(close(crit[j], result["crit_value"]),
            f"reported criterion {result['crit_value']!r} != recomputed {crit[j]!r}")
    mu_hat = np.asarray(result["mu_hat"], dtype=float)
    require(float(np.max(np.abs(mu_hat - F[:, j]))) <= FIT_TOL * (1.0 + float(np.max(np.abs(y)))),
            "mu_hat is not the least-squares fit on the chosen support")


def check_sqrt_lasso(X: np.ndarray, y: np.ndarray, lam: float, beta: np.ndarray,
                     sigma_sq: float):
    """Optimality of beta for ||y - X b|| / sqrt(n) + lam ||b||_1, and
    ||y - X beta||^2 / n = sigma_sq."""
    n = X.shape[0]
    r = y - X @ beta
    rnorm = float(np.linalg.norm(r))
    require(rnorm > 0.0, "the sqrt-Lasso residual is zero")
    g = X.T @ r / (math.sqrt(n) * rnorm)
    on = np.abs(beta) > SUPPORT_THRESH
    worst = 0.0
    if on.any():
        worst = float(np.max(np.abs(g[on] - lam * np.sign(beta[on]))))
    if (~on).any():
        worst = max(worst, float(np.max(np.abs(g[~on]))) - lam)
    require(worst <= SQRT_KKT_TOL * lam,
            f"sqrt-Lasso optimality violated by {worst / lam:.3g} * lambda")
    require(close(rnorm * rnorm / n, sigma_sq),
            f"||y - X beta||^2 / n = {rnorm * rnorm / n!r} != reported sigma^2 {sigma_sq!r}")


def soi_path_rhs(X: np.ndarray, mu: np.ndarray, segments, knots, sigma_hat_sq: float,
                 sigma_sq: float, x: float) -> float:
    """Right-hand side of the sharp oracle inequality against the Lasso
    path: the minimum over beta = 0, the knots and the segment midpoints of
    ||X beta - mu||^2 / n + (s2 / n) (24 + 96 k log(e p / (k v 1))), plus
    22 sigma^2 x / n."""
    n, p = X.shape

    def term(beta):
        k = int(np.sum(np.abs(beta) > SUPPORT_THRESH))
        complexity = k * math.log(math.e * p / max(k, 1))
        return (float(np.sum((X @ beta - mu) ** 2)) / n
                + (sigma_hat_sq / n) * (24.0 + 96.0 * complexity))

    def beta_on(seg, lam):
        beta = np.zeros(p)
        beta[list(seg[2])] = np.asarray(seg[3]) - lam * np.asarray(seg[4])
        return beta

    terms = [float(np.sum(mu ** 2)) / n + 24.0 * sigma_hat_sq / n, term(np.zeros(p))]
    # knot k > 0 closes segment k - 1; beta is continuous there
    terms += [term(beta_on(segments[k - 1], knots[k])) for k in range(1, len(knots))]
    terms += [term(beta_on(seg, 0.5 * (seg[0] + seg[1]))) for seg in segments]
    return min(terms) + 22.0 * sigma_sq * x / n


def check_oracle_bounds(lhs, rhs, sigma_sq: float, x: float, n: int):
    """Every loss is nonnegative and every bound carries its 22 s^2 x / n."""
    floor = 22.0 * sigma_sq * x / n
    require(all(v >= 0.0 for v in lhs), "a replication reports a negative loss")
    require(all(v >= floor * (1.0 - REL_TOL) for v in rhs),
            f"a replication reports a bound below 22 sigma^2 x / n = {floor!r}")
