"""Combinatorial prior weights over supports, computed in log-space.

A support of size k receives weight 1 / (H_p * C(p, k) * e^k) with
H_p = (e - e^{-p}) / (e - 1).  Only log(1/weight) is ever consumed
downstream; the weights themselves underflow for moderate p.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import InvalidInputError


def log_hp(p: int) -> float:
    return math.log((math.e - math.exp(-p)) / (math.e - 1.0))


def log_binomial(p: int, k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    return gammaln(p + 1) - gammaln(k + 1) - gammaln(p - k + 1)


def log_inv_weights(p: int, sizes) -> np.ndarray:
    """log(1/weight) for supports of the given sizes k: log H_p + log C(p,k) + k."""
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    sizes = np.asarray(sizes)
    out_of_range = (sizes < 0) | (sizes > p)
    if np.any(out_of_range):
        raise InvalidInputError(f"support size k={sizes[out_of_range].flat[0]} "
                                f"out of range [0, {p}]")
    return log_hp(p) + log_binomial(p, sizes) + sizes


def log_inv_weight(p: int, k: int) -> float:
    """log(1/weight) for any support of size k: log H_p + log C(p,k) + k."""
    return float(log_inv_weights(p, k))


def weight_table(p: int) -> np.ndarray:
    """Read-only array whose entry k is log(1/weight) for |T| = k, k = 0..p."""
    table = log_inv_weights(p, np.arange(p + 1))
    table.setflags(write=False)
    return table


def verify_weight_bounds(p: int) -> bool:
    """Check k <= log(1/weight) <= 1/2 + 2k*log(ep/(k v 1)) for k = 0..p."""
    tbl = weight_table(p)
    ks = np.arange(p + 1)
    upper = 0.5 + 2.0 * ks * np.log(math.e * p / np.maximum(ks, 1))
    return bool(np.all((ks <= tbl) & (tbl <= upper)))


def total_mass(p: int) -> float:
    """Sum over all supports of their weights; equals 1 by construction."""
    tbl = weight_table(p)
    # C(p,k) supports of size k, each of weight exp(-log_inv_weight).
    return float(np.exp(logsumexp(log_binomial(p, np.arange(p + 1)) - tbl)))
