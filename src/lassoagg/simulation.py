"""Synthetic sparse-regression instances and Monte Carlo verification of the
oracle inequalities, plus the exhaustive sparsity-pattern aggregate for
tiny p."""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from typing import List, Tuple

import numpy as np

# crit_select is unused here, but perfbench/tracing.py wraps it at this module
from .aggregation import QAggResult, crit_select, precompute, q_aggregate  # noqa: F401
from .design import DesignMatrix, Support, as_design, project
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
                      rho: float = 0.5) -> SimInstance:
    """Random sparse instance with columns scaled to diag(X^T X / n) = 1.

    beta_star has s entries equal to +-1 at random positions; noise is iid
    Gaussian(0, sigma^2).
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
    return SimInstance(X=DesignMatrix(Xm), beta_star=beta_star, mu=mu,
                       y=mu + xi, sigma=float(sigma), seed=int(seed),
                       design_kind=design_kind, rho=float(rho))


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
                  sigma_hat_sq: float, sigma_sq: float, x: float
                  ) -> Tuple[float, List[float], Support]:
    if not 0 < x < math.inf:
        raise InvalidInputError("x must be positive and finite")
    X = as_design(X)
    n = X.n
    biases = [float(np.sum(project(X, T, mu).residual ** 2)) / n
              for T in family]
    terms = _bound_terms(consts, biases, [T.size for T in family], sigma_hat_sq, n, X.p)
    j = int(np.argmin(terms))
    return terms[j] + consts[3] * sigma_sq * x / n, terms, family.supports[j]


def soi_rhs_supports(family: SupportFamily, mu, X, sigma_hat_sq: float,
                     sigma_sq: float, x: float) -> Tuple[float, List[float], Support]:
    """Right-hand side of the sharp oracle inequality for the simplex
    aggregate: min over T of bias + (s2/n)(24 + 96|T|log(ep/(|T| v 1)))
    plus 22*sigma^2*x/n.  Returns (value, per-support terms, argmin)."""
    return _rhs_supports(SOI, family, mu, X, sigma_hat_sq, sigma_sq, x)


def oi_rhs_crit(family: SupportFamily, mu, X, sigma_hat_sq: float,
                sigma_sq: float, x: float) -> Tuple[float, List[float], Support]:
    """Right-hand side of the oracle inequality for the criterion selector:
    min over T of 3*bias + (s2/n)(26 + 104|T|log(ep/(|T| v 1)))
    plus 28*sigma^2*x/n."""
    return _rhs_supports(OI, family, mu, X, sigma_hat_sq, sigma_sq, x)


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


def _losses_and_sizes(points, mu: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """||X beta(lam) - mu||^2 / n and the support size of beta(lam) at each
    (lam, covering segment) of points, evaluated a block of points at a time."""
    n = mu.size
    # a block's arrays take at most 64 KiB each, below malloc's mmap
    # threshold, so that peak memory does not grow with the number of points
    rows = max(1, 8192 // n)
    losses = np.empty(len(points))
    sizes = np.empty(len(points), dtype=np.intp)
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        lams = np.array([lam for lam, _ in block])
        # X beta(lam) - mu = fit - lam * slope - mu, squared in place
        resid = np.array([seg.fit for _, seg in block])
        step = np.array([seg.slope for _, seg in block])
        step *= lams[:, None]
        resid -= step
        resid -= mu
        resid *= resid
        losses[start:start + rows] = resid.sum(axis=1)
        # beta(lam) = a - lam * b on the active set of each point's segment
        counts = [seg.a.size for _, seg in block]
        beta = (np.concatenate([seg.a for _, seg in block])
                - np.repeat(lams, counts) * np.concatenate([seg.b for _, seg in block]))
        owner = np.repeat(np.arange(len(block)), counts)
        sizes[start:start + rows] = np.bincount(owner[np.abs(beta) > SUPPORT_THRESH],
                                                minlength=len(block))
    return losses / n, sizes


def run_oracle_trial(config: TrialConfig) -> OracleCheck:
    """One replication: generate data, run the path pipeline, compare the
    realized loss with the matching oracle-inequality bound."""
    if not 0 < config.x < math.inf:
        raise InvalidInputError("x must be positive and finite")
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
    mu_hat = aggregate(precompute(X, y, family), sigma_hat_sq, config.method).mu_hat
    lhs = float(np.sum((mu_hat - mu) ** 2)) / n

    sigma_sq = config.sigma ** 2
    if config.bound == "soi_path":
        # min over lambda approximated at knots and segment midpoints, each
        # read off the segment that covers it
        points = (path.knot_segments()
                  + [(0.5 * (seg.hi + seg.lo), seg) for seg in path.segments])
        losses, sizes = _losses_and_sizes(points, mu)
        # lambda above lambda_0, where beta = 0; this term keeps its own
        # 24*s2/n, which rounds differently from the (s2/n)*24 of the loop
        terms = ([float(np.sum(mu ** 2)) / n + SOI[1] * sigma_hat_sq / n]
                 + _bound_terms(SOI, losses.tolist(), sizes.tolist(), sigma_hat_sq, n, p))
        j = int(np.argmin(terms))
        rhs = terms[j] + SOI[3] * sigma_sq * config.x / n
        minimizing = "beta=0" if j == 0 else f"lambda={points[j - 1][0]:.6g}"
    elif config.bound in ("soi_supports", "oi_supports"):
        consts = SOI if config.bound == "soi_supports" else OI
        rhs, _, T = _rhs_supports(consts, family, mu, X, sigma_hat_sq, sigma_sq, config.x)
        minimizing = f"T={T.one_based()}"
    else:
        raise InvalidInputError(f"unknown bound {config.bound!r}")

    return OracleCheck(lhs=lhs, rhs=rhs, x_level=config.x, held=lhs <= rhs,
                       minimizing_term=minimizing, sigma_hat_sq=sigma_hat_sq)


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


@functools.lru_cache(maxsize=None)
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS library
    mapped into this process (numpy and scipy each bundle one), looked up
    once per process; forked workers map the same libraries."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    names = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
             for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        found = next((pair for pair in names if all(hasattr(lib, fn) for fn in pair)), None)
        if found is not None:
            get, set_ = getattr(lib, found[0]), getattr(lib, found[1])
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            controls.append((get, set_))
    return tuple(controls)


def _pin_blas_threads() -> None:
    """Pool initializer: one BLAS thread in this worker process; does
    nothing where no OpenBLAS library is found."""
    for _, set_threads in _openblas_thread_controls():
        set_threads(1)


@contextmanager
def _one_blas_thread():
    """One BLAS thread in this process for the duration of the block, the
    previous counts restored after; yields the number of OpenBLAS libraries
    pinned."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield len(controls)
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def monte_carlo(config: TrialConfig, reps: int, parallelism: int = 1) -> dict:
    """Run seeded replications of run_oracle_trial and aggregate coverage.

    Replication i uses seed config.seed + i.  Every replication runs with
    one BLAS thread, in the worker processes for parallelism > 1 and in
    this process otherwise, so that workers do not oversubscribe the cores
    and the report is identical for any parallelism level;
    "pinned_blas_libraries" counts the OpenBLAS libraries so pinned.
    """
    if reps < 1:
        raise InvalidInputError("reps must be >= 1")
    configs = [dataclasses.replace(config, seed=config.seed + i) for i in range(reps)]
    if parallelism > 1:
        # forked workers map the same libraries as this process
        pinned = len(_openblas_thread_controls())
        with ProcessPoolExecutor(max_workers=parallelism,
                                 initializer=_pin_blas_threads) as pool:
            checks = list(pool.map(run_oracle_trial, configs, chunksize=max(1, reps // (4 * parallelism))))
    else:
        with _one_blas_thread() as pinned:
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
        "pinned_blas_libraries": pinned,
    }
