"""Fixed-lambda Lasso by cyclic coordinate descent, which serves as an
independent reference for the homotopy, and the square-root Lasso read
exactly off the Lasso path."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import RANK_TOL, as_design, as_response
from .errors import DegenerateVarianceError, InvalidInputError


@dataclass
class LassoFit:
    beta: np.ndarray
    duality_gap: float
    iterations: int
    converged: bool


@dataclass
class SqrtLassoFit:
    beta: np.ndarray
    sigma_hat_sq: float
    iterations: int
    converged: bool


def _duality_gap(n, lam, beta, r, Xt_r):
    """Fenchel duality gap for (1/2n)||y - Xb||^2 + lam*||b||_1.

    The dual point is the residual/n scaled into the dual-feasible box
    ||X^T theta||_inf <= lam.
    """
    r_sq = float(r @ r)
    primal = r_sq / (2.0 * n) + lam * float(np.abs(beta).sum())
    dual_inf = float(np.max(np.abs(Xt_r))) / n if Xt_r.size else 0.0
    scale = 1.0 if dual_inf <= lam or dual_inf == 0.0 else lam / dual_inf
    # dual objective at theta = scale * r / n
    y_dot_r = r_sq + float(beta @ Xt_r)  # r.(y) = r.(r + Xb)
    dual = scale * y_dot_r / n - scale * scale * r_sq / (2.0 * n)
    return primal - dual


def lasso_cd(X, y, lam: float, tol: float = 1e-9, max_iter: int = 100_000) -> LassoFit:
    """Minimize (1/2n)||y - X b||^2 + lam*||b||_1 by cyclic coordinate descent.

    Terminates when the duality gap drops below tol, after max_iter full
    cycles, or once a cycle leaves beta and the residual bitwise unchanged:
    a cycle is a function of them, so every later one would repeat it and
    the fit, its gap and converged=False are those of the full run.
    Zero-norm columns are skipped (their optimal coefficient is 0).
    """
    X = as_design(X)
    y = as_response(y, X.n)
    if not 0 < lam < math.inf:
        raise InvalidInputError("lam must be positive and finite")
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    n, p = X.n, X.p
    Xm = X.entries
    norms_n = X.column_norms_sq / n
    beta = np.zeros(p)
    r = y - Xm @ beta

    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        before = beta.tobytes(), r.tobytes()
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
            return LassoFit(beta=beta, duality_gap=gap, iterations=it, converged=True)
        if (beta.tobytes(), r.tobytes()) == before:
            break
    return LassoFit(beta=beta, duality_gap=gap, iterations=it, converged=False)


def sqrt_lasso(X, y, lam: float, path=None) -> SqrtLassoFit:
    """Minimize (1/sqrt(n))||y - Xb|| + lam*||b||_1, read off the Lasso path.

    The solution is the Lasso fit at the penalty t = c*||r(t)||, c = lam/sqrt(n).
    On a path segment r(t) = r0 + t*s with r0 orthogonal to s, so ||r(t)||/t
    grows as t falls: the root is unique and in closed form.  The segments
    are read by LassoPath.exact_runs: those of the given path first, then,
    past a knot cap, those of its continued homotopy, up to the root and
    within the default cap; a missing path, or one of other data
    (LassoPath.of), is started with one knot.  So the fit does not depend on
    the path, and it is unconverged only when the default knot cap or the
    floor stops the path above the root, at its last segment's lo.  Raises
    DegenerateVarianceError when the residual collapses: the path ends above
    the root with ||y - fit||^2 at most (RANK_TOL * ||y||)^2.
    """
    from .path import compute_path  # path imports this module

    X = as_design(X)
    y = as_response(y, X.n)
    if not lam > 0:
        raise InvalidInputError("lam must be positive")
    if not np.any(y):
        raise DegenerateVarianceError("degenerate variance estimate: zero response")
    if path is None or not path.of(X, y):
        path = compute_path(X, y, max_knots=1)
    c = lam / math.sqrt(X.n)
    beta, r, k, converged = np.zeros(X.p), y, 0, True
    if c * float(np.linalg.norm(y)) < path.lambda0:
        # the root lies on the first segment whose lower end is at or below
        # c * ||r(lo)||; k counts the segments searched
        for run, rr, ss, more in path.exact_runs():
            lo = np.array([seg.lo for seg in run])
            roots = np.flatnonzero(lo <= c * np.sqrt(rr + lo * lo * ss))
            if roots.size:
                i = int(roots[0])
                k += i + 1
                seg, denom = run[i], 1.0 - c * c * float(ss[i])   # > 0 unless the root is at hi
                t = c * math.sqrt(float(rr[i]) / denom) if denom > 0.0 else seg.hi
                break
            k += len(run)
        else:
            if not more and rr[-1] <= (RANK_TOL * np.linalg.norm(y)) ** 2:
                raise DegenerateVarianceError(
                    "degenerate variance estimate: residual collapsed (interpolation regime)")
            # the knot cap or the floor stops the path above the root: the fit at its end
            seg, t, converged = run[-1], run[-1].lo, False
        t = min(max(t, seg.lo), seg.hi)
        beta, r = seg.beta(t, X.p), y - (seg.fit - t * seg.slope)
    sigma = float(np.linalg.norm(r)) / math.sqrt(X.n)
    return SqrtLassoFit(beta=beta, sigma_hat_sq=sigma * sigma, iterations=k,
                        converged=converged)


def sqrt_lasso_universal_lambda(n: int, p: int) -> float:
    """Universal square-root-Lasso parameter 2*sqrt(log(p/0.01)/n)
    (confidence level 0.01)."""
    if n < 1 or p < 1:
        raise InvalidInputError("n and p must be >= 1")
    return 2.0 * math.sqrt(math.log(p / 0.01) / n)
