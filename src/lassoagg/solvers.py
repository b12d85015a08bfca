"""Fixed-lambda Lasso by cyclic coordinate descent, which serves as an
independent reference for the homotopy, and the square-root Lasso read
exactly off the Lasso path."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# SUPPORT_THRESH is unused here; solvers.SUPPORT_THRESH is a public name for it
from .design import SUPPORT_THRESH, as_design, as_response  # noqa: F401
from .errors import DegenerateVarianceError, InvalidInputError


@dataclass
class LassoFit:
    beta: np.ndarray
    lam: float
    duality_gap: float
    iterations: int
    converged: bool


@dataclass
class SqrtLassoFit:
    beta: np.ndarray
    lam: float
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


def lasso_cd(X, y, lam: float, tol: float = 1e-9, max_iter: int = 100_000,
             beta0: Optional[np.ndarray] = None) -> LassoFit:
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
    if beta0 is None:
        beta = np.zeros(p)
    else:
        beta = np.array(beta0, dtype=float).ravel()
        if beta.shape[0] != p:
            raise InvalidInputError("warm-start beta has wrong length")
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
            return LassoFit(beta=beta, lam=lam, duality_gap=gap, iterations=it, converged=True)
        if (beta.tobytes(), r.tobytes()) == before:
            break
    return LassoFit(beta=beta, lam=lam, duality_gap=gap, iterations=it, converged=False)


def sqrt_lasso(X, y, lam: float, path=None) -> SqrtLassoFit:
    """Minimize (1/sqrt(n))||y - Xb|| + lam*||b||_1, read off the Lasso path.

    The solution is the Lasso fit at the penalty t = c*||r(t)||, c = lam/sqrt(n).
    On a path segment r(t) = r0 + t*s with r0 orthogonal to s, so ||r(t)||/t
    grows as t falls: the root is unique and in closed form.  A missing or
    truncated path, or one of other data (LassoPath.of), is recomputed, so
    the fit does not depend on it; it is unconverged only when the knot cap
    stops the path above the root.  Raises DegenerateVarianceError when the
    residual collapses.
    """
    from .path import compute_path  # path imports this module

    X = as_design(X)
    y = as_response(y, X.n)
    if not lam > 0:
        raise InvalidInputError("lam must be positive")
    if not np.any(y):
        raise DegenerateVarianceError("degenerate variance estimate: zero response")
    if path is None or path.truncated or not path.of(X, y):
        path = compute_path(X, y)
    c = lam / math.sqrt(X.n)
    beta, r, k, converged = np.zeros(X.p), y, 0, True
    # the last segment of a truncated path runs past its unknown next event
    exact = path.segments[:-1] if path.truncated else path.segments
    if c * float(np.linalg.norm(y)) < path.lambda0:
        # the root lies on the first segment whose lower end is at or below
        # c * ||r(lo)||; k counts the segments searched
        rr, ss = (v[:len(exact)] for v in path.segment_norms_sq)
        lo = np.array([seg.lo for seg in exact])
        roots = np.flatnonzero(lo <= c * np.sqrt(rr + lo * lo * ss))
        if roots.size:
            k = int(roots[0]) + 1
            seg, rr_k, ss_k = exact[k - 1], float(rr[k - 1]), float(ss[k - 1])
            denom = 1.0 - c * c * ss_k   # > 0 unless the root is at hi
            t = c * math.sqrt(rr_k / denom) if denom > 0.0 else seg.hi
        else:
            k = len(exact)
            if not path.truncated:
                raise DegenerateVarianceError(
                    "degenerate variance estimate: residual collapsed (interpolation regime)")
            (t, seg), converged = path.knot_segments()[-1], False
        t = min(max(t, seg.lo), seg.hi)
        beta, r = seg.beta(t, X.p), y - (seg.fit - t * seg.slope)
    sigma = float(np.linalg.norm(r)) / math.sqrt(X.n)
    return SqrtLassoFit(beta=beta, lam=lam, sigma_hat_sq=sigma * sigma,
                        iterations=k, converged=converged)


def sqrt_lasso_universal_lambda(n: int, p: int) -> float:
    """Universal square-root-Lasso parameter 2*sqrt(log(p/0.01)/n)
    (confidence level 0.01)."""
    if n < 1 or p < 1:
        raise InvalidInputError("n and p must be >= 1")
    return 2.0 * math.sqrt(math.log(p / 0.01) / n)
