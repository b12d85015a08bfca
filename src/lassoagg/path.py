"""Exact Lasso homotopy (entries and sign-change drops) and support families.

The path is piecewise linear in the penalty: on each segment the active
coefficients are beta_A(lam) = a - lam * b where a, b solve the active-set
normal equations.  Knots are recorded where a variable enters (an inactive
correlation reaches the penalty level) or drops (an active coefficient
crosses zero).  One event loop computes the whole path: it starts at
lambda_0 with an empty active set, so the first entry is its first event,
and events tied with the current knot update the active set in place.

The normal equations are solved through one QR factorisation X_A = Q R,
updated column by column as variables enter and drop, so each segment also
yields its least-squares fit P_A y = Q Q^T y and its slope X_A b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .design import RANK_TOL, DesignMatrix, Support, as_design, as_response
from .errors import InvalidInputError
# lasso_cd is unused here, but perfbench/tracing.py wraps it at this module
from .solvers import SUPPORT_THRESH, lasso_cd  # noqa: F401

# Relative tolerance under which simultaneous events count as a tie;
# ties are broken by the lowest column index for determinism.
TIE_TOL = 1e-10


@dataclass
class PathSegment:
    hi: float                 # upper end of the lambda interval (a knot)
    lo: float                 # lower end (next knot, or the stopping lambda)
    active: Tuple[int, ...]   # active columns, in order of entry
    a: np.ndarray             # beta_active(lam) = a - lam * b
    b: np.ndarray
    fit: np.ndarray           # least-squares fit P_A y = X_A a
    slope: np.ndarray         # X_A b, so that X beta(lam) = fit - lam * slope

    @property
    def support(self) -> Support:
        return Support(tuple(sorted(self.active)))

    def beta(self, lam: float, p: int) -> np.ndarray:
        beta = np.zeros(p)
        if self.active:
            beta[list(self.active)] = self.a - lam * self.b
        return beta

    def support_size(self, lam: float) -> int:
        """Number of coefficients of beta(lam) above SUPPORT_THRESH in magnitude."""
        return int(np.count_nonzero(np.abs(self.a - lam * self.b) > SUPPORT_THRESH))


@dataclass
class LassoPath:
    p: int
    knots: np.ndarray                  # strictly decreasing, knots[0] = lambda_0
    segments: List[PathSegment]        # segment k covers (knots[k+1], knots[k])
    lambda_floor: float
    design: DesignMatrix = field(repr=False)      # the data the path was computed from
    response: np.ndarray = field(repr=False)
    truncated: bool = False
    degenerate: bool = False

    @property
    def lambda0(self) -> float:
        return float(self.knots[0]) if self.knots.size else 0.0

    @property
    def supports(self) -> List[Support]:
        return [seg.support for seg in self.segments]

    def beta_at(self, lam: float) -> np.ndarray:
        """Coefficient vector at penalty level lam (zero above lambda_0)."""
        if lam < 0:
            raise InvalidInputError("lam must be nonnegative")
        if not self.segments or lam >= self.lambda0:
            return np.zeros(self.p)
        for seg in self.segments:
            if lam >= seg.lo:
                return seg.beta(lam, self.p)
        # below the stopping lambda: clamp to the last segment's endpoint
        last = self.segments[-1]
        return last.beta(last.lo, self.p)

    def knot_segments(self) -> List[Tuple[float, PathSegment]]:
        """Each knot with the segment that ends at it; lambda_0 with the
        zero piece above it, where beta = 0."""
        zero = np.zeros(self.design.n)
        above = PathSegment(hi=np.inf, lo=self.lambda0, active=(), a=np.zeros(0),
                            b=np.zeros(0), fit=zero, slope=zero)
        return list(zip(self.knots.tolist(), [above] + self.segments[:-1]))

    def family_fits(self) -> "FamilyFits":
        """The fit of every path support, in order of first appearance."""
        fitted = {(): np.zeros(self.design.n)}
        for seg in self.segments:
            fitted.setdefault(tuple(sorted(seg.active)), seg.fit)
        return FamilyFits(self.design, self.response, fitted)


class FamilyFits(NamedTuple):
    """Least-squares fits of y on X: support indices -> P_T y."""
    X: DesignMatrix
    y: np.ndarray
    fitted: Dict[tuple, np.ndarray]

    def of(self, X: DesignMatrix, y: np.ndarray) -> bool:
        """Whether these are fits of the response y on the design X."""
        return ((X is self.X or np.array_equal(X.entries, self.X.entries))
                and np.array_equal(y, self.y))


@dataclass
class SupportFamily:
    supports: Tuple[Support, ...]
    source: str = "external"
    # fits carried from the homotopy by path and grid families; precompute
    # projects the supports that have none
    fits: Optional[FamilyFits] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self._keys = {T.indices for T in self.supports}

    @classmethod
    def from_supports(cls, supports: Sequence[Support], source: str = "external",
                      include_empty: bool = True) -> "SupportFamily":
        first = {(): Support(())} if include_empty else {}
        for T in supports:
            first.setdefault(T.indices, T)
        return cls(supports=tuple(first.values()), source=source)

    def __len__(self):
        return len(self.supports)

    def __iter__(self):
        return iter(self.supports)

    def __contains__(self, T):
        return isinstance(T, Support) and T.indices in self._keys


def compute_path(X, y, max_knots: Optional[int] = None) -> LassoPath:
    """Full Lasso homotopy from lambda_0 = max_j |X_j^T y|/n down to the floor.

    One event loop starts at lambda_0 with an empty active set; its first
    event is the entry of the column with the largest absolute correlation.
    Events tied with the current knot within TIE_TOL are applied in place,
    without a knot of their own, and ties are resolved by the lowest column
    index, an entry with sign +1 before one with sign -1; any event at a
    knot after the first flags the path degenerate.  A column whose entry
    would make X_A rank deficient (|R_kk| at most RANK_TOL times the largest
    active column norm) is not added, which also flags the path degenerate.
    The loop stops at the floor 1e-8 * lambda_0, when no event remains, or
    once max_knots knots (lambda_0 included) are recorded; truncated=True
    means that events remained at the cap.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    n, p = X.n, X.p
    Xm = X.entries

    lam0 = float(np.max(np.abs(Xm.T @ y / n)))
    if max_knots is None:
        max_knots = 10 * min(n, p) + 10
    if max_knots < 1:
        raise InvalidInputError("max_knots must be >= 1")
    if lam0 <= 0.0:
        return LassoPath(p=p, knots=np.empty(0), segments=[], lambda_floor=0.0,
                         design=X, response=y)
    lambda_floor = 1e-8 * lam0

    degenerate = False
    truncated = False
    active: List[int] = []
    signs: List[float] = []
    knots: List[float] = [lam0]
    segments: List[PathSegment] = []
    lam_cur = lam0
    col_norms = np.sqrt(X.column_norms_sq)
    enterable = col_norms > 0.0       # nonzero columns that are not active
    # X_A = Q R with the columns in order of entry (economic form)
    Q = np.empty((n, 0))
    R = np.empty((0, 0))
    # columns whose event fired at the current knot; they may not fire again
    # at the same lambda (prevents add/drop cycling on simultaneous events)
    fired = np.zeros(p, dtype=bool)
    fired_at_knot: List[int] = []
    trtrs = scipy.linalg.lapack.dtrtrs

    while True:
        z = Q.T @ y
        fit = Q @ z                       # P_A y: X beta at lam = 0 on this segment
        if active:
            # a = R^-1 Q^T y and b = n R^-1 R^-T s, by LAPACK triangular solves
            v = trtrs(R, np.asarray(signs), trans=1)[0]
            ab = trtrs(R, np.column_stack((z, v)))[0]
            a, b = ab[:, 0], n * ab[:, 1]
            slope = n * (Q @ v)           # X_A b
        else:
            a = b = np.zeros(0)
            slope = np.zeros(n)
        u, w = (np.stack((y - fit, slope)) @ Xm) / n

        # candidate events at or below lam_cur; events tied with the current
        # knot are allowed unless that column already fired there
        upper = lam_cur * (1.0 + TIE_TOL)
        at_knot = lam_cur * (1.0 - TIE_TOL)
        act = np.asarray(active, dtype=np.intp)
        denom = np.stack((1.0 - w, -1.0 - w))     # entry with sign +1, -1
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_add = u / denom
            lam_drop = a / b
        ok_add = _allowed(lam_add, enterable & (np.abs(denom) >= 1e-14), fired,
                          upper, at_knot)
        ok_drop = _allowed(lam_drop, b != 0.0, fired[act], upper, at_knot)
        # row-major order lists every +1 entry before any -1 entry
        sign_row, add_cols = np.nonzero(ok_add)
        lams = np.minimum(np.concatenate((lam_add[ok_add], lam_drop[ok_drop])), lam_cur)
        cols = np.concatenate((add_cols, act[ok_drop]))
        sgns = np.concatenate((1.0 - 2.0 * sign_row, np.zeros(np.count_nonzero(ok_drop))))
        keep = lams >= lambda_floor
        lams, cols, sgns = lams[keep], cols[keep], sgns[keep]

        # the cap is checked once the first event at the last knot has fired
        if not lams.size or (fired_at_knot and len(knots) >= max_knots):
            truncated = bool(lams.size)
            segments.append(PathSegment(hi=lam_cur, lo=lambda_floor, active=tuple(active),
                                        a=a, b=b, fit=fit, slope=slope))
            break

        tied = lams >= lams.max() * (1.0 - TIE_TOL)
        if np.count_nonzero(tied) > 1:
            degenerate = True
        # lowest column first; an entry with sign +1 precedes its -1 twin
        ev = int(np.flatnonzero(tied & (cols == cols[tied].min()))[0])
        lam_next, j_ev, sgn = float(lams[ev]), int(cols[ev]), float(sgns[ev])

        if lam_next < at_knot:
            segments.append(PathSegment(hi=lam_cur, lo=lam_next, active=tuple(active),
                                        a=a, b=b, fit=fit, slope=slope))
            knots.append(lam_next)
            lam_cur = lam_next
            fired[fired_at_knot] = False
            fired_at_knot = []
        elif fired_at_knot:
            # another event at the current knot: a zero-length segment, so
            # the active set is updated in place without recording a knot
            degenerate = True
        if sgn != 0.0:
            Q, R, independent = _insert_column(Q, R, Xm[:, j_ev],
                                               RANK_TOL * col_norms[active + [j_ev]].max())
            if independent:
                active.append(j_ev)
                signs.append(sgn)
                enterable[j_ev] = False
            else:
                # X_j lies in the span of the active columns
                degenerate = True
        else:
            k = active.index(j_ev)
            Q, R = scipy.linalg.qr_delete(Q, R, k, which="col", check_finite=False)
            Q, R = Q[:, :R.shape[1]], R[:R.shape[1]]
            active.pop(k)
            signs.pop(k)
            enterable[j_ev] = True
        fired[j_ev] = True
        fired_at_knot.append(j_ev)

    return LassoPath(p=p, knots=np.asarray(knots), segments=segments,
                     lambda_floor=lambda_floor, truncated=truncated,
                     degenerate=degenerate, design=X, response=y)


def _allowed(lam: np.ndarray, ok: np.ndarray, fired: np.ndarray, upper: float,
             at_knot: float) -> np.ndarray:
    """Events in (0, upper) among ok, except those of columns that already
    fired at the current knot (lam >= at_knot)."""
    return ok & (0.0 < lam) & (lam < upper) & ~((lam >= at_knot) & fired)


def _insert_column(Q: np.ndarray, R: np.ndarray, x: np.ndarray,
                   tol: float) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Append column x to X_A = Q R.  Returns (Q, R, True), or the given
    factors and False when the new diagonal entry |R_kk| is at most tol."""
    k = R.shape[1]
    if k == 0:
        norm = float(np.sqrt(x @ x))
        return (x / norm)[:, None], np.array([[norm]]), True
    if k >= Q.shape[0]:
        return Q, R, False
    try:
        Q1, R1 = scipy.linalg.qr_insert(Q, R, x, k, which="col", check_finite=False)
    except np.linalg.LinAlgError:   # x is numerically in the span of Q
        return Q, R, False
    if abs(R1[k, k]) <= tol:
        return Q, R, False
    return Q1, R1, True


def path_support_family(path: LassoPath) -> SupportFamily:
    """Deduplicated supports appearing on the path, empty support included,
    in order of first appearance, carrying their least-squares fits."""
    fits = path.family_fits()
    return SupportFamily(supports=tuple(Support(T) for T in fits.fitted), source="path",
                         fits=fits)


def grid_support_family(X, y, lambdas) -> SupportFamily:
    """Supports of the Lasso fits on a penalty grid, read off the path,
    which also supplies their least-squares fits.  Penalties below the last
    knot of a truncated path are unconverged and excluded from the family.
    The empty support is always included.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    lambdas = sorted(float(l) for l in np.atleast_1d(np.asarray(lambdas, dtype=float)))
    if not lambdas or lambdas[0] <= 0.0:
        raise InvalidInputError("all grid penalties must be positive")

    path = compute_path(X, y)
    supports = [Support.from_beta(path.beta_at(lam), SUPPORT_THRESH)
                for lam in reversed(lambdas) if not path.truncated or lam >= path.knots[-1]]
    fam = SupportFamily.from_supports(supports, source="grid")
    fam.fits = path.family_fits()
    return fam
