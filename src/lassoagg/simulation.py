"""Synthetic sparse-regression instances and Monte Carlo verification of the
oracle inequalities."""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# crit_select, precompute, q_aggregate, compute_path and sqrt_lasso are
# unused here, but perfbench/tracing.py wraps them
from .aggregation import crit_select, precompute, q_aggregate  # noqa: F401
from .design import DesignMatrix, project
from .errors import InvalidInputError
from .path import _one_blas_thread, compute_path  # noqa: F401
from .pipelines import path_aggregate
from .solvers import sqrt_lasso  # noqa: F401


@dataclass
class SimInstance:
    X: DesignMatrix
    beta_star: np.ndarray
    mu: np.ndarray
    y: np.ndarray


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator: identical streams regardless of platform/order
    if not 0 <= seed < 2 ** 128:
        raise InvalidInputError("seed must be in [0, 2**128)")
    return np.random.Generator(np.random.Philox(key=seed))


def generate_instance(n: int, p: int, s: int, sigma: float,
                      design_kind: str = "iid_gaussian", seed: int = 0,
                      rho: float = 0.5) -> SimInstance:
    """Random sparse instance with columns scaled to diag(X^T X / n) = 1.

    beta_star has s entries equal to +-1 at random positions; noise is iid
    Gaussian(0, sigma^2).  The seed, a key of the Philox generator, must lie
    in [0, 2**128).
    """
    if n < 1 or p < 1:
        raise InvalidInputError("design matrix must have n >= 1 and p >= 1")
    if not 0 <= s <= p:
        raise InvalidInputError("need 0 <= s <= p")
    if not (sigma >= 0 and sigma * sigma < math.inf):
        raise InvalidInputError("sigma must be nonnegative and finite, with a finite square")
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
    xi = sigma * rng.standard_normal(n)
    return SimInstance(X=DesignMatrix(Xm), beta_star=beta_star, mu=mu, y=mu + xi)


# Constants (f, c0, c1, tail) of an oracle bound: min over candidates T of
# f*bias(T) + (s2/n)(c0 + c1|T|log(ep/(|T| v 1))), plus tail*sigma^2*x/n.
SOI = (1.0, 24.0, 96.0, 22.0)   # sharp oracle inequality, simplex aggregate
OI = (3.0, 26.0, 104.0, 28.0)   # oracle inequality, criterion selector


def oracle_bound(consts, biases, sizes, sigma_hat_sq: float, sigma_sq: float,
                 x: float, n: int, p: int) -> Tuple[float, int]:
    """Right-hand side of an oracle inequality with the constants consts
    (SOI or OI): the smallest candidate term plus tail*sigma_sq*x/n, where
    candidate j has the bias biases[j] (||P_T mu - mu||^2/n for a support T,
    or the loss of a fit) and the support size sizes[j].  Returns (value,
    index of the minimizing candidate)."""
    if not 0 < x < math.inf:
        raise InvalidInputError("x must be positive and finite")
    f, c0, c1, tail = consts
    terms = [f * bias + (sigma_hat_sq / n) * (c0 + c1 * (k * math.log(math.e * p / max(k, 1))))
             for bias, k in zip(biases, sizes)]
    j = int(np.argmin(terms))
    return terms[j] + tail * sigma_sq * x / n, j


@dataclass
class OracleCheck:
    lhs: float
    rhs: float
    minimizing_term: str
    sigma_hat_sq: float

    @property
    def held(self) -> bool:
        return self.lhs <= self.rhs


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
    """One replication, with one BLAS thread: generate data, aggregate the
    supports of its Lasso path, compare the realized loss with the matching
    oracle-inequality bound."""
    if config.sigma_mode not in ("known", "sqrt_lasso"):
        raise InvalidInputError(f"unknown sigma mode {config.sigma_mode!r}")
    if config.bound not in ("soi_path", "soi_supports", "oi_supports"):
        raise InvalidInputError(f"unknown bound {config.bound!r}")
    if not 0 < config.x < math.inf:
        raise InvalidInputError("x must be positive and finite")
    consts = OI if config.bound == "oi_supports" else SOI
    if math.isfinite(config.sigma * config.sigma) and not math.isfinite(
            consts[3] * config.sigma ** 2 * config.x):
        raise InvalidInputError("the bound's tail term tail * sigma^2 * x / n overflows")
    with _one_blas_thread():
        inst = generate_instance(config.n, config.p, config.s, config.sigma,
                                 design_kind=config.design_kind, seed=config.seed,
                                 rho=config.rho)
        X, mu = inst.X, inst.mu
        n, p = X.n, X.p
        sigma_sq = config.sigma ** 2
        report = path_aggregate(X, inst.y, sigma_sq if config.sigma_mode == "known" else None,
                                method=config.method)
        sigma_hat_sq = report.result.sigma_hat_sq_used
        lhs = float(np.sum((report.result.mu_hat - mu) ** 2)) / n

        if config.bound == "soi_path":
            # min over lambda: beta = 0 at lambda_0 (and above), then the knots
            # below lambda_0 and the segment midpoints
            path = report.family.path
            lams = ([path.lambda0] + path.knots[1:].tolist()
                    + [0.5 * (seg.hi + seg.lo) for seg in path.segments])
            losses, sizes = path.losses_and_sizes(lams, mu)
            rhs, j = oracle_bound(consts, losses.tolist(), sizes.tolist(), sigma_hat_sq,
                                  sigma_sq, config.x, n, p)
            minimizing = "beta=0" if j == 0 else f"lambda={lams[j]:.6g}"
        else:
            family = report.family
            biases = [float(np.sum(project(X, T, mu).residual ** 2)) / n for T in family]
            rhs, j = oracle_bound(consts, biases, [T.size for T in family],
                                  sigma_hat_sq, sigma_sq, config.x, n, p)
            minimizing = f"T={family.supports[j].one_based()}"

    return OracleCheck(lhs=lhs, rhs=rhs, minimizing_term=minimizing, sigma_hat_sq=sigma_hat_sq)


def worker_processes(parallelism: int, reps: int) -> int:
    """The number of worker processes monte_carlo starts: one per
    replication, but no more than parallelism and the CPUs this process may
    use; 0, the replications running in this process, when that is 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # not on Linux
        cpus = os.cpu_count() or 1
    count = min(parallelism, reps, cpus)
    return count if count > 1 else 0


def monte_carlo(config: TrialConfig, reps: int, parallelism: int = 1) -> dict:
    """Run seeded replications of run_oracle_trial and aggregate coverage.

    Replication i uses seed config.seed + i, in worker_processes(parallelism,
    reps) worker processes, or in this process when that is 0.  Every
    replication runs with one BLAS thread, so that workers do not
    oversubscribe the cores and the report is identical for any parallelism
    level.
    """
    if reps < 1:
        raise InvalidInputError("reps must be >= 1")
    if parallelism < 1:
        raise InvalidInputError("parallelism (--threads) must be >= 1")
    if not 0 <= config.seed <= 2 ** 128 - reps:
        raise InvalidInputError("the seeds seed, ..., seed + reps - 1 must be in [0, 2**128)")
    configs = [dataclasses.replace(config, seed=config.seed + i) for i in range(reps)]
    workers = worker_processes(parallelism, reps)
    if workers:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            checks = list(pool.map(run_oracle_trial, configs, chunksize=max(1, reps // (4 * workers))))
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
