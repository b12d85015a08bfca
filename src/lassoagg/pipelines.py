"""End-to-end procedures: aggregation of the Lasso-path support family and
the fully data-driven square-root-Lasso pipeline.  Each procedure computes
one Lasso path, which supplies the support family, the variance estimate of
the square-root Lasso, its grid fits and their least-squares fits."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .aggregation import (CritResult, PrecomputedFits, QAggResult, crit_select, precompute,
                          q_aggregate)
from .design import Support, as_design, as_response
from .errors import InvalidInputError
from .path import LassoPath, SupportFamily, compute_path, path_support_family
from .solvers import sqrt_lasso, sqrt_lasso_universal_lambda


@dataclass
class PipelineReport:
    family: SupportFamily
    method: str
    result: Union[QAggResult, CritResult]
    path_meta: dict = field(default_factory=dict)
    grid_meta: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    fits_converged: bool = True     # every square-root-Lasso fit converged


def aggregate(pre: PrecomputedFits, sigma_hat_sq: float,
              method: str) -> Union[QAggResult, CritResult]:
    """Aggregate a precomputed family: method "q" runs q_aggregate, method
    "crit" runs crit_select."""
    if method == "q":
        return q_aggregate(pre, sigma_hat_sq)
    if method == "crit":
        return crit_select(pre, sigma_hat_sq)
    raise InvalidInputError(f"unknown aggregation method {method!r}")


def aggregate_estimators(X, y, betas: Sequence[np.ndarray], sigma_hat_sq: float,
                         method: str = "q"):
    """Aggregate a family of coefficient estimates through their supports.

    Builds the support family {supp(beta_j)} (deduplicated; the empty support
    appears when some beta_j is zero) and aggregates it with the given method.
    The aggregate uses the least-squares fits P_T y on those supports, not
    X beta_j.
    """
    X = as_design(X)
    betas = list(betas)
    if not betas:
        raise InvalidInputError("empty list of coefficient estimates")
    supports = []
    for beta in betas:
        beta = np.asarray(beta, dtype=float).ravel()
        if beta.shape[0] != X.p:
            raise InvalidInputError("coefficient vector has wrong length")
        supports.append(Support.from_beta(beta))
    family = SupportFamily.from_supports(supports, source="external", include_empty=False)
    return aggregate(precompute(X, y, family), sigma_hat_sq, method)


def path_aggregate(X, y, sigma_hat_sq: Optional[float] = None, method: str = "q",
                   max_knots: Optional[int] = None) -> PipelineReport:
    """Two-step procedure: Lasso path, then aggregation of its supports.

    sigma_hat_sq=None estimates the variance by the square-root Lasso at its
    universal penalty, read off the same path; fits_converged reports that
    fit.  Truncated paths are aggregated as-is; the oracle guarantees hold
    for any data-driven family, including a prefix of the path.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    t0 = time.perf_counter()
    path, sigma_hat_sq, sigma_converged = _path_and_variance(X, y, sigma_hat_sq, max_knots)
    path_meta = {
        "knot_count": int(path.knots.size),
        "truncated": path.truncated,
        "degenerate": path.degenerate,
        "lambda0": path.lambda0,
    }
    return _aggregate_report(X, y, path_support_family(path), sigma_hat_sq, method,
                             sigma_converged, "path_s", t0, path_meta=path_meta)


def _path_and_variance(X, y, sigma_hat_sq: Optional[float],
                       max_knots: Optional[int] = None) -> Tuple[LassoPath, float, bool]:
    """The Lasso path of (X, y), the variance to aggregate with and whether
    its fit converged: sigma_hat_sq if given, else the estimate of the
    square-root Lasso at its universal penalty, read off the path."""
    path = compute_path(X, y, max_knots=max_knots)
    if sigma_hat_sq is not None:
        return path, sigma_hat_sq, True
    fit = sqrt_lasso(X, y, sqrt_lasso_universal_lambda(X.n, X.p), path=path)
    return path, fit.sigma_hat_sq, fit.converged


def _aggregate_report(X, y, family: SupportFamily, sigma_hat_sq: float, method: str,
                      fits_converged: bool, stage: str, t0: float, **meta) -> PipelineReport:
    """Aggregate the family and report it; timing holds the time since t0
    under stage and the aggregation time under "aggregate_s"."""
    t1 = time.perf_counter()
    result = aggregate(precompute(X, y, family), sigma_hat_sq, method)
    t2 = time.perf_counter()
    return PipelineReport(family=family, method=method, result=result,
                          timing={stage: t1 - t0, "aggregate_s": t2 - t1},
                          fits_converged=fits_converged, **meta)


def geometric_grid(lambda_min: float, lambda_max: float, M: int,
                   mode: str = "spanning") -> List[float]:
    """Geometric penalty grid.

    "spanning" places lambda_j = lmin*(lmax/lmin)^((j-1)/(M-1)), covering
    [lambda_min, lambda_max] endpoint to endpoint.  "paper-literal" uses the
    exponent ((j-1)/M - 1), provided as a compatibility mode; it produces
    values at or below lambda_min.  The ratio lambda_max / lambda_min must
    be finite.
    """
    if not 0 < lambda_min < lambda_max:
        raise InvalidInputError("need 0 < lambda_min < lambda_max")
    if M < 2:
        raise InvalidInputError("grid size M must be >= 2")
    ratio = lambda_max / lambda_min
    if not math.isfinite(ratio):
        raise InvalidInputError("lambda_max / lambda_min is not finite")
    if mode == "spanning":
        return [lambda_min * ratio ** ((j - 1) / (M - 1)) for j in range(1, M + 1)]
    if mode == "paper-literal":
        return [lambda_min * ratio ** ((j - 1) / M - 1.0) for j in range(1, M + 1)]
    raise InvalidInputError(f"unknown grid mode {mode!r}")


def sqrt_lasso_pipeline(X, y, lambda_min: Optional[float] = None, M: int = 20,
                        method: str = "q", grid_mode: str = "spanning") -> PipelineReport:
    """Fully data-driven pipeline based on the square-root Lasso.

    Fits the square-root Lasso on a geometric grid below its universal
    penalty, aggregates the resulting supports, and uses the variance
    estimate at the universal penalty.  Every fit is read off one Lasso
    path, and so are the least-squares fits of the grid supports.  Raises
    DegenerateVarianceError when any fit has no variance estimate (residual
    collapse).
    """
    X = as_design(X)
    y = as_response(y, X.n)
    lambda_max = sqrt_lasso_universal_lambda(X.n, X.p)
    if lambda_min is None:
        lambda_min = lambda_max / 100.0
    grid = geometric_grid(lambda_min, lambda_max, M, mode=grid_mode)

    t0 = time.perf_counter()
    # variance estimate at the universal penalty (largest grid value or above)
    path, sigma_hat_sq, sigma_converged = _path_and_variance(X, y, None)
    # fitted from the largest penalty down, the order of the family
    fits = {lam: sqrt_lasso(X, y, lam, path=path) for lam in sorted(grid, reverse=True)}
    converged = [fits[lam].converged for lam in grid]
    family = SupportFamily.from_supports([Support.from_beta(fit.beta) for fit in fits.values()],
                                         source="grid")
    family.path = path
    grid_meta = {
        "lambda_min": lambda_min,
        "lambda_max": lambda_max,
        "grid": grid,
        "grid_mode": grid_mode,
        "converged": converged,
    }
    return _aggregate_report(X, y, family, sigma_hat_sq, method,
                             sigma_converged and all(converged), "fits_s", t0,
                             grid_meta=grid_meta)
