"""Problem data containers and least-squares projections onto column spans."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np
import scipy.linalg

from .errors import InvalidInputError

# A pivot of the rank-revealing QR is dropped when its magnitude is at most
# RANK_TOL times the largest pivot.
RANK_TOL = 1e-10


class DesignMatrix:
    """Immutable n x p design matrix with cached squared column norms."""

    __slots__ = ("entries", "n", "p", "column_norms_sq")

    def __init__(self, entries):
        entries = np.array(entries, dtype=float, order="C")
        if entries.ndim != 2:
            raise InvalidInputError("design matrix must be 2-dimensional")
        n, p = entries.shape
        if n < 1 or p < 1:
            raise InvalidInputError("design matrix must have n >= 1 and p >= 1")
        if not np.all(np.isfinite(entries)):
            raise InvalidInputError("design matrix contains non-finite entries")
        entries.setflags(write=False)
        self.entries = entries
        self.n = n
        self.p = p
        norms = np.einsum("ij,ij->j", entries, entries)
        norms.setflags(write=False)
        self.column_norms_sq = norms

    def __repr__(self):
        return f"DesignMatrix(n={self.n}, p={self.p})"


def as_design(X) -> DesignMatrix:
    if isinstance(X, DesignMatrix):
        return X
    return DesignMatrix(X)


def as_response(y, n: int) -> np.ndarray:
    """Validate a response vector against the design's row count."""
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != n:
        raise InvalidInputError(f"response has length {y.shape[0]}, expected {n}")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("response contains non-finite entries")
    return y


@dataclass(frozen=True, order=True)
class Support:
    """A subset of column indices, stored 0-based and strictly increasing.

    User-facing I/O (CSV/JSON) is 1-based; the conversion happens at the
    CLI boundary only.
    """

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidInputError("support indices must be strictly increasing")
        if idx and idx[0] < 0:
            raise InvalidInputError("support indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_iterable(cls, it: Iterable[int], p: Optional[int] = None) -> "Support":
        idx = tuple(sorted(set(int(i) for i in it)))
        if p is not None and idx and idx[-1] >= p:
            raise InvalidInputError(f"support index {idx[-1]} out of range for p={p}")
        return cls(idx)

    @classmethod
    def from_beta(cls, beta, thresh: float = 1e-10) -> "Support":
        beta = np.asarray(beta, dtype=float).ravel()
        return cls(tuple(int(j) for j in np.nonzero(np.abs(beta) > thresh)[0]))

    @property
    def size(self) -> int:
        return len(self.indices)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def one_based(self):
        return [i + 1 for i in self.indices]


EMPTY_SUPPORT = Support(())


@dataclass
class ProjectionResult:
    fitted: np.ndarray
    residual: np.ndarray
    rank: int


def _orthonormal_basis(X: DesignMatrix, T: Support) -> np.ndarray:
    """Orthonormal basis (n x rank) of the span of the columns indexed by T,
    via column-pivoted QR with the RANK_TOL pivot threshold."""
    if T.size == 0:
        return np.zeros((X.n, 0))
    if T.indices[-1] >= X.p:
        raise InvalidInputError(f"support index {T.indices[-1]} out of range for p={X.p}")
    sub = X.entries[:, list(T.indices)]
    Q, R, _ = scipy.linalg.qr(sub, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return np.zeros((X.n, 0))
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    return Q[:, :rank]


class ProjectionCache:
    """Per-support cache of orthonormal bases, safe for concurrent use."""

    def __init__(self, X: DesignMatrix):
        self.X = X
        self._bases: dict = {}
        self._lock = threading.Lock()

    def basis(self, T: Support) -> np.ndarray:
        with self._lock:
            Q = self._bases.get(T.indices)
        if Q is None:
            Q = _orthonormal_basis(self.X, T)
            with self._lock:
                self._bases.setdefault(T.indices, Q)
        return Q


def project(X: DesignMatrix, T: Support, v, cache: Optional[ProjectionCache] = None) -> ProjectionResult:
    """Orthogonal projection of v onto the span of the columns of X indexed by T.

    Rank-deficient (e.g. duplicated-column) submatrices are handled by the
    rank-revealing factorization; the empty support projects to zero.
    """
    X = as_design(X)
    v = as_response(v, X.n)
    Q = cache.basis(T) if cache is not None else _orthonormal_basis(X, T)
    if Q.shape[1] == 0:
        fitted = np.zeros(X.n)
    else:
        fitted = Q @ (Q.T @ v)
    return ProjectionResult(fitted=fitted, residual=v - fitted, rank=Q.shape[1])


class PowerIterResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


def power_iteration(matvec, dim: int, tol: float = 1e-10,
                    max_iter: int = 10000) -> PowerIterResult:
    """Largest eigenvalue of the symmetric PSD operator v -> matvec(v) on
    R^dim; stops when the Rayleigh quotient changes by at most
    tol * max(1, |value|)."""
    # Deterministic start; the small ramp avoids starting orthogonal to the
    # top eigenvector on symmetric operators.
    v = np.ones(dim) + 1e-3 * np.arange(dim)
    v /= np.linalg.norm(v)
    val = 0.0
    for it in range(1, max_iter + 1):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return PowerIterResult(0.0, True, it)
        new_val = float(v @ w)
        v = w / norm
        if abs(new_val - val) <= tol * max(1.0, abs(new_val)):
            return PowerIterResult(new_val, True, it)
        val = new_val
    return PowerIterResult(val, False, max_iter)


def operator_norm_phi_max(X: DesignMatrix, tol: float = 1e-10, max_iter: int = 10000) -> PowerIterResult:
    """Largest eigenvalue of X^T X / n by power iteration (diagnostic only)."""
    X = as_design(X)
    return power_iteration(lambda v: X.entries.T @ (X.entries @ v) / X.n, X.p, tol, max_iter)
