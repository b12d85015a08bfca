"""Synthetic sparse-regression instances and Monte Carlo verification of the
oracle inequalities, plus the exhaustive sparsity-pattern aggregate for
tiny p."""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

# crit_select is unused here, but perfbench/tracing.py wraps it at this module
from .aggregation import QAggResult, crit_select, precompute, q_aggregate  # noqa: F401
from .design import DesignMatrix, ProjectionCache, Support, as_design, project
from .errors import InvalidInputError
from .path import SupportFamily, compute_path, path_support_family
from .pipelines import aggregate
from .solvers import SUPPORT_THRESH, sqrt_lasso, sqrt_lasso_universal_lambda


@dataclass
class SimInstance:
    X: DesignMatrix
    beta_star: np.ndarray
    mu: np.ndarray
    y: np.ndarray
    sigma: float
    seed: int
    design_kind: str
    rho: float = 0.0
    noise_kind: str = "gaussian"

    @property
    def n(self):
        return self.X.n

    @property
    def p(self):
        return self.X.p


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator: identical streams regardless of platform/order
    return np.random.Generator(np.random.Philox(key=seed))


def generate_instance(n: int, p: int, s: int, sigma: float,
                      design_kind: str = "iid_gaussian", seed: int = 0,
                      rho: float = 0.5, noise_kind: str = "gaussian") -> SimInstance:
    """Random sparse instance with columns scaled to diag(X^T X / n) = 1.

    beta_star has s entries equal to +-1 at random positions; noise is iid
    Gaussian(0, sigma^2) by default, Rademacher*sigma as a subgaussian
    alternative.
    """
    if not 0 <= s <= p:
        raise InvalidInputError("need 0 <= s <= p")
    rng = _rng(seed)
    if design_kind == "iid_gaussian":
        Xm = rng.standard_normal((n, p))
    elif design_kind == "equicorrelated":
        if not 0.0 <= rho < 1.0:
            raise InvalidInputError("need 0 <= rho < 1")
        common = rng.standard_normal((n, 1))
        Xm = math.sqrt(rho) * common + math.sqrt(1.0 - rho) * rng.standard_normal((n, p))
    elif design_kind == "orthonormal":
        if p > n:
            raise InvalidInputError("orthonormal design requires p <= n")
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Xm = Q[:, :p]
    else:
        raise InvalidInputError(f"unknown design kind {design_kind!r}")
    norms = np.linalg.norm(Xm, axis=0)
    if np.any(norms == 0.0):
        raise InvalidInputError("degenerate random design with a zero column")
    Xm = Xm * (math.sqrt(n) / norms)

    beta_star = np.zeros(p)
    if s > 0:
        pos = rng.choice(p, size=s, replace=False)
        beta_star[pos] = rng.choice([-1.0, 1.0], size=s)
    mu = Xm @ beta_star
    if noise_kind == "gaussian":
        xi = sigma * rng.standard_normal(n)
    elif noise_kind == "rademacher":
        xi = sigma * rng.choice([-1.0, 1.0], size=n)
    else:
        raise InvalidInputError(f"unknown noise kind {noise_kind!r}")
    return SimInstance(X=DesignMatrix(Xm), beta_star=beta_star, mu=mu,
                       y=mu + xi, sigma=float(sigma), seed=int(seed),
                       design_kind=design_kind, rho=float(rho),
                       noise_kind=noise_kind)


# Constants (f, c0, c1, tail) of an oracle bound: min over candidates T of
# f*bias(T) + (s2/n)(c0 + c1|T|log(ep/(|T| v 1))), plus tail*sigma^2*x/n.
SOI = (1.0, 24.0, 96.0, 22.0)   # sharp oracle inequality, simplex aggregate
OI = (3.0, 26.0, 104.0, 28.0)   # oracle inequality, criterion selector


def _bound_terms(consts, biases, sizes, sigma_hat_sq: float, n: int, p: int) -> List[float]:
    """Per-candidate terms of an oracle bound, one per (bias, support size)."""
    f, c0, c1, _ = consts
    return [f * bias + (sigma_hat_sq / n) * (c0 + c1 * (k * math.log(math.e * p / max(k, 1))))
            for bias, k in zip(biases, sizes)]


def _rhs_supports(consts, family: SupportFamily, mu, X,
                  sigma_hat_sq: float, sigma_sq: float, x: float,
                  cache: Optional[ProjectionCache]) -> Tuple[float, List[float], Support]:
    if x <= 0:
        raise InvalidInputError("x must be positive")
    X = as_design(X)
    n = X.n
    biases = [float(np.sum(project(X, T, mu, cache=cache).residual ** 2)) / n
              for T in family]
    terms = _bound_terms(consts, biases, [T.size for T in family], sigma_hat_sq, n, X.p)
    j = int(np.argmin(terms))
    return terms[j] + consts[3] * sigma_sq * x / n, terms, family.supports[j]


def soi_rhs_supports(family: SupportFamily, mu, X, sigma_hat_sq: float,
                     sigma_sq: float, x: float,
                     cache: Optional[ProjectionCache] = None
                     ) -> Tuple[float, List[float], Support]:
    """Right-hand side of the sharp oracle inequality for the simplex
    aggregate: min over T of bias + (s2/n)(24 + 96|T|log(ep/(|T| v 1)))
    plus 22*sigma^2*x/n.  Returns (value, per-support terms, argmin)."""
    return _rhs_supports(SOI, family, mu, X, sigma_hat_sq, sigma_sq, x, cache)


def oi_rhs_crit(family: SupportFamily, mu, X, sigma_hat_sq: float,
                sigma_sq: float, x: float,
                cache: Optional[ProjectionCache] = None
                ) -> Tuple[float, List[float], Support]:
    """Right-hand side of the oracle inequality for the criterion selector:
    min over T of 3*bias + (s2/n)(26 + 104|T|log(ep/(|T| v 1)))
    plus 28*sigma^2*x/n."""
    return _rhs_supports(OI, family, mu, X, sigma_hat_sq, sigma_sq, x, cache)


@dataclass
class OracleCheck:
    lhs: float
    rhs: float
    x_level: float
    held: bool
    minimizing_term: str
    sigma_hat_sq: float


@dataclass
class TrialConfig:
    n: int = 100
    p: int = 200
    s: int = 5
    sigma: float = 1.0
    x: float = 3.0
    method: str = "q"                # "q" or "crit"
    bound: str = "soi_path"          # "soi_path", "soi_supports", "oi_supports"
    sigma_mode: str = "known"        # "known" or "sqrt_lasso"
    seed: int = 0
    design_kind: str = "iid_gaussian"
    rho: float = 0.5


def run_oracle_trial(config: TrialConfig) -> OracleCheck:
    """One replication: generate data, run the path pipeline, compare the
    realized loss with the matching oracle-inequality bound."""
    if config.x <= 0:
        raise InvalidInputError("x must be positive")
    inst = generate_instance(config.n, config.p, config.s, config.sigma,
                             design_kind=config.design_kind, seed=config.seed,
                             rho=config.rho)
    X, y, mu = inst.X, inst.y, inst.mu
    n, p = X.n, X.p

    path = compute_path(X, y)
    if config.sigma_mode == "known":
        sigma_hat_sq = config.sigma ** 2
    elif config.sigma_mode == "sqrt_lasso":
        sigma_hat_sq = sqrt_lasso(X, y, sqrt_lasso_universal_lambda(n, p),
                                  path=path).sigma_hat_sq
    else:
        raise InvalidInputError(f"unknown sigma mode {config.sigma_mode!r}")

    family = path_support_family(path)
    cache = ProjectionCache(X)
    pre = precompute(X, y, family, cache=cache)
    mu_hat = aggregate(pre, sigma_hat_sq, config.method).mu_hat
    lhs = float(np.sum((mu_hat - mu) ** 2)) / n

    sigma_sq = config.sigma ** 2
    if config.bound == "soi_path":
        # min over lambda approximated at knots and segment midpoints;
        # the support size is constant within each segment
        lams = list(path.knots) + path.segment_midpoints()
        betas = [path.beta_at(lam) for lam in lams]
        losses = [float(np.sum((X.entries @ beta - mu) ** 2)) / n for beta in betas]
        sizes = [int(np.sum(np.abs(beta) > SUPPORT_THRESH)) for beta in betas]
        # lambda above lambda_0, where beta = 0; this term keeps its own
        # 24*s2/n, which rounds differently from the (s2/n)*24 of the loop
        terms = ([float(np.sum(mu ** 2)) / n + SOI[1] * sigma_hat_sq / n]
                 + _bound_terms(SOI, losses, sizes, sigma_hat_sq, n, p))
        j = int(np.argmin(terms))
        rhs = terms[j] + SOI[3] * sigma_sq * config.x / n
        minimizing = "beta=0" if j == 0 else f"lambda={lams[j - 1]:.6g}"
    elif config.bound in ("soi_supports", "oi_supports"):
        consts = SOI if config.bound == "soi_supports" else OI
        rhs, _, T = _rhs_supports(consts, family, mu, X, sigma_hat_sq, sigma_sq,
                                  config.x, cache)
        minimizing = f"T={T.one_based()}"
    else:
        raise InvalidInputError(f"unknown bound {config.bound!r}")

    return OracleCheck(lhs=lhs, rhs=rhs, x_level=config.x, held=lhs <= rhs,
                       minimizing_term=minimizing, sigma_hat_sq=sigma_hat_sq)


def exhaustive_spa(X, y, sigma_hat_sq: float, tol_gap: Optional[float] = None,
                   max_iter: int = 50_000) -> QAggResult:
    """Q-aggregation over all 2^p supports (brute force; p <= 10 only)."""
    X = as_design(X)
    if X.p > 10:
        raise InvalidInputError("exhaustive aggregation is capped at p <= 10")
    all_supports = [Support(tuple(c))
                    for k in range(X.p + 1)
                    for c in combinations(range(X.p), k)]
    family = SupportFamily.from_supports(all_supports, source="external")
    pre = precompute(X, y, family, cache=ProjectionCache(X))
    return q_aggregate(pre, sigma_hat_sq, tol_gap=tol_gap, max_iter=max_iter)


def monte_carlo(config: TrialConfig, reps: int, parallelism: int = 1) -> dict:
    """Run seeded replications of run_oracle_trial and aggregate coverage.

    Replication i uses seed config.seed + i; the report is identical for any
    parallelism level.
    """
    if reps < 1:
        raise InvalidInputError("reps must be >= 1")
    configs = [dataclasses.replace(config, seed=config.seed + i) for i in range(reps)]
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            checks = list(pool.map(run_oracle_trial, configs, chunksize=max(1, reps // (4 * parallelism))))
    else:
        checks = [run_oracle_trial(c) for c in configs]

    lhs = [c.lhs for c in checks]
    rhs = [c.rhs for c in checks]
    held = [c.held for c in checks]
    qs = [0.1, 0.5, 0.9]
    return {
        "reps": reps,
        "held_rate": math.fsum(held) / reps,
        "mean_lhs": math.fsum(lhs) / reps,
        "mean_rhs": math.fsum(rhs) / reps,
        "lhs_quantiles": {str(q): float(np.quantile(lhs, q)) for q in qs},
        "rhs_quantiles": {str(q): float(np.quantile(rhs, q)) for q in qs},
        "x_level": config.x,
        "checks": checks,
    }
