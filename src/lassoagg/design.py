"""Problem data, the QR column insertion and projections onto column spans."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError

# A column is left out of a QR factorisation when its new diagonal entry
# |R_kk| is at most RANK_TOL times the largest norm of the columns factored.
RANK_TOL = 1e-10
# Coefficients with magnitude above this count as part of the support.
# Coordinate descent and the path produce zeros up to round-off, which this guards.
SUPPORT_THRESH = 1e-10
# scipy's QR update kernels, called below their batch wrapper (functools'
# __wrapped__), which costs several microseconds a call
_qr_insert = getattr(scipy.linalg.qr_insert, "__wrapped__", scipy.linalg.qr_insert)
_qr_delete = getattr(scipy.linalg.qr_delete, "__wrapped__", scipy.linalg.qr_delete)


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
        if not np.all(np.isfinite(norms)):
            raise InvalidInputError("design matrix has a column whose squared norm overflows")
        norms.setflags(write=False)
        self.column_norms_sq = norms

    def __repr__(self):
        return f"DesignMatrix(n={self.n}, p={self.p})"


def as_design(X) -> DesignMatrix:
    if isinstance(X, DesignMatrix):
        return X
    return DesignMatrix(X)


def as_response(y, n: int) -> np.ndarray:
    """Validate a response vector against the design's row count: finite
    entries and a finite squared norm."""
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != n:
        raise InvalidInputError(f"response has length {y.shape[0]}, expected {n}")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("response contains non-finite entries")
    with np.errstate(over="ignore"):
        if not np.isfinite(y @ y):
            raise InvalidInputError("response's squared norm overflows")
    return y


@dataclass(frozen=True, order=True)
class Support:
    """A subset of column indices, stored 0-based and strictly increasing.

    User-facing I/O (CSV/JSON) is 1-based; the conversion happens at the
    CLI boundary only.
    """

    indices: tuple

    def __post_init__(self):
        idx = tuple(map(int, self.indices))
        if not all(map(operator.lt, idx, idx[1:])):
            raise InvalidInputError("support indices must be strictly increasing")
        if idx and idx[0] < 0:
            raise InvalidInputError("support indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of_sorted(cls, indices: tuple) -> "Support":
        """The support of indices that are already a strictly increasing
        tuple of nonnegative Python ints, built without validating them
        again; outside input goes through the constructor."""
        T = object.__new__(cls)
        object.__setattr__(T, "indices", indices)
        return T

    @classmethod
    def from_beta(cls, beta) -> "Support":
        """The coefficients of beta above SUPPORT_THRESH in magnitude."""
        beta = np.asarray(beta, dtype=float).ravel()
        return cls(tuple(int(j) for j in np.nonzero(np.abs(beta) > SUPPORT_THRESH)[0]))

    @property
    def size(self) -> int:
        return len(self.indices)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def one_based(self):
        return [i + 1 for i in self.indices]


@dataclass
class ProjectionResult:
    fitted: np.ndarray
    residual: np.ndarray
    rank: int


def _insert_column(Q: np.ndarray, R: np.ndarray, x: np.ndarray,
                   tol: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Append column x to X_A = Q R.  Returns (Q, R, True), or the given
    factors and False when the new diagonal entry |R_kk| is at most tol."""
    k = R.shape[1]
    if k == 0:
        norm = float(np.sqrt(x @ x))
        return (x / norm)[:, None], np.array([[norm]]), True
    if k >= Q.shape[0]:
        return Q, R, False
    try:
        Q1, R1 = _qr_insert(Q, R, x, k, which="col", check_finite=False)
    except np.linalg.LinAlgError:   # x is numerically in the span of Q
        return Q, R, False
    if abs(R1[k, k]) <= tol:
        return Q, R, False
    return Q1, R1, True


def project(X: DesignMatrix, T: Support, v) -> ProjectionResult:
    """Orthogonal projection of v onto the span of the columns of X indexed by T.

    The columns are factored as the homotopy factors its active set
    (_insert_column): one is left out when its |R_kk| is at most RANK_TOL
    times the largest column norm of T, so that a rank-deficient (e.g.
    duplicated-column) submatrix counts each direction once; the empty
    support projects to zero.
    """
    X = as_design(X)
    v = as_response(v, X.n)
    if T.size and T.indices[-1] >= X.p:
        raise InvalidInputError(f"support index {T.indices[-1]} out of range for p={X.p}")
    norms = np.sqrt(X.column_norms_sq[list(T.indices)])
    tol = RANK_TOL * norms.max(initial=0.0)
    # columns of norm at most tol are left out before any qr_insert, which
    # divides by the norm of a zero column and returns a non-orthonormal Q
    cols = X.entries[:, [j for j, norm in zip(T.indices, norms) if norm > tol]]
    Q, R = np.empty((X.n, 0)), np.empty((0, 0))
    for k, x in enumerate(cols.T):
        if k == 1:
            # one block call gives the bits of one _insert_column per column
            # when it keeps them all; otherwise they go in one at a time
            try:
                Q1, R1 = _qr_insert(Q, R, cols[:, 1:], 1, which="col", check_finite=False)
                if R1.shape[0] == R1.shape[1] and np.all(np.abs(np.diag(R1)) > tol):
                    Q, R = Q1, R1
                    break
            except np.linalg.LinAlgError:   # a column is numerically in the span of Q
                pass
        Q, R, _ = _insert_column(Q, R, x, tol)
    fitted = Q @ (Q.T @ v)
    return ProjectionResult(fitted=fitted, residual=v - fitted, rank=R.shape[1])
