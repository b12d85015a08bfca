"""Exact Lasso homotopy (entries and sign-change drops) and support families.

The path is piecewise linear in the penalty: on each segment the active
coefficients are beta_A(lam) = a - lam * b where a, b solve the active-set
normal equations.  Knots are recorded where a variable enters (an inactive
correlation reaches the penalty level) or drops (an active coefficient
crosses zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .design import Support, as_design, as_response
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

    @property
    def support(self) -> Support:
        return Support.from_iterable(self.active)

    def beta(self, lam: float, p: int) -> np.ndarray:
        beta = np.zeros(p)
        if self.active:
            beta[list(self.active)] = self.a - lam * self.b
        return beta


@dataclass
class LassoPath:
    p: int
    knots: np.ndarray                  # strictly decreasing, knots[0] = lambda_0
    segments: List[PathSegment]        # segment k covers (knots[k+1], knots[k])
    lambda_floor: float
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

    def segment_midpoints(self) -> List[float]:
        return [0.5 * (seg.hi + seg.lo) for seg in self.segments]


@dataclass
class SupportFamily:
    supports: Tuple[Support, ...]
    source: str = "external"
    meta: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_supports(cls, supports: Sequence[Support], source: str = "external",
                      include_empty: bool = True) -> "SupportFamily":
        seen = []
        if include_empty:
            seen.append(Support(()))
        for T in supports:
            if T not in seen:
                seen.append(T)
        return cls(supports=tuple(seen), source=source)

    def __len__(self):
        return len(self.supports)

    def __iter__(self):
        return iter(self.supports)

    def __contains__(self, T):
        return T in self.supports


def _active_solve(Xm: np.ndarray, y: np.ndarray, active: List[int],
                  signs: List[float]) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Solve the active-set system: a = G^-1 X_A^T y, b = n G^-1 s.

    Returns (a, b, singular).  The caller handles singular systems by
    dropping the most recently added dependent column.
    """
    n = y.shape[0]
    A = Xm[:, active]
    G = A.T @ A
    s = np.asarray(signs)
    try:
        c, low = scipy.linalg.cho_factor(G)
        a = scipy.linalg.cho_solve((c, low), A.T @ y)
        b = n * scipy.linalg.cho_solve((c, low), s)
        return a, b, False
    except np.linalg.LinAlgError:
        return np.zeros(len(active)), np.zeros(len(active)), True


def compute_path(X, y, max_knots: Optional[int] = None) -> LassoPath:
    """Full Lasso homotopy from lambda_0 = max_j |X_j^T y|/n down to the floor.

    Stops at the floor 1e-8 * lambda_0, when the residual correlation
    vanishes, or after max_knots events (then truncated=True).  Event ties
    within TIE_TOL are resolved by the lowest column index and flagged
    degenerate.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    n, p = X.n, X.p
    Xm = X.entries

    c0 = Xm.T @ y / n
    lam0 = float(np.max(np.abs(c0)))
    if max_knots is None:
        max_knots = 10 * min(n, p) + 10
    if max_knots < 1:
        raise InvalidInputError("max_knots must be >= 1")
    if lam0 <= 0.0:
        return LassoPath(p=p, knots=np.empty(0), segments=[], lambda_floor=0.0)
    lambda_floor = 1e-8 * lam0

    degenerate = False
    truncated = False

    # first entry: column with the largest absolute correlation
    top = np.abs(c0) >= lam0 * (1.0 - TIE_TOL)
    first = int(np.argmax(top))  # lowest index among ties
    if int(np.sum(top)) > 1:
        degenerate = True
    active: List[int] = [first]
    signs: List[float] = [math.copysign(1.0, c0[first])]

    knots: List[float] = [lam0]
    segments: List[PathSegment] = []
    lam_cur = lam0
    nonzero_cols = X.column_norms_sq > 0.0
    # columns whose event fired at the current knot; they may not fire again
    # at the same lambda (prevents add/drop cycling on simultaneous events)
    fired_at_knot = {first}

    while True:
        a, b, singular = _active_solve(Xm, y, active, signs)
        while singular and len(active) > 1:
            # drop the most recently added column; it is dependent on the rest
            degenerate = True
            active.pop()
            signs.pop()
            a, b, singular = _active_solve(Xm, y, active, signs)
        if singular:
            # single zero-norm column cannot occur (lam0 > 0 selected it)
            break

        A = Xm[:, active]
        fit0 = A @ a          # X beta at lam = 0 along this segment
        slope = A @ b
        u = Xm.T @ (y - fit0) / n
        w = Xm.T @ slope / n

        # candidate events at or below lam_cur; events tied with the current
        # knot are allowed unless that column already fired there
        upper = lam_cur * (1.0 + TIE_TOL)
        at_knot = lam_cur * (1.0 - TIE_TOL)
        cand: List[Tuple[float, int, str, float]] = []
        active_set = set(active)
        for j in range(p):
            if j in active_set or not nonzero_cols[j]:
                continue
            for sgn in (1.0, -1.0):
                denom = sgn - w[j]
                if abs(denom) < 1e-14:
                    continue
                lam_e = u[j] / denom
                if 0.0 < lam_e < upper and not (lam_e >= at_knot and j in fired_at_knot):
                    cand.append((min(lam_e, lam_cur), j, "add", sgn))
        for idx, i in enumerate(active):
            if b[idx] != 0.0:
                lam_d = a[idx] / b[idx]
                if 0.0 < lam_d < upper and not (lam_d >= at_knot and i in fired_at_knot):
                    cand.append((min(lam_d, lam_cur), i, "drop", 0.0))

        cand = [c for c in cand if c[0] >= lambda_floor]
        if not cand:
            segments.append(PathSegment(hi=lam_cur, lo=lambda_floor,
                                        active=tuple(active), a=a, b=b))
            break

        lam_next = max(c[0] for c in cand)
        tied = [c for c in cand if c[0] >= lam_next * (1.0 - TIE_TOL)]
        if len(tied) > 1:
            degenerate = True
        lam_next, j_ev, kind, sgn = min(tied, key=lambda c: c[1])

        if lam_next >= at_knot and len(active) > (1 if kind == "drop" else 0):
            # simultaneous event at the current knot: a zero-length segment;
            # update the active set in place without recording a new knot
            degenerate = True
            if kind == "add":
                active.append(j_ev)
                signs.append(sgn)
            else:
                k = active.index(j_ev)
                active.pop(k)
                signs.pop(k)
            fired_at_knot.add(j_ev)
            continue

        segments.append(PathSegment(hi=lam_cur, lo=lam_next,
                                    active=tuple(active), a=a, b=b))
        knots.append(lam_next)
        if kind == "add":
            active.append(j_ev)
            signs.append(sgn)
        else:
            k = active.index(j_ev)
            active.pop(k)
            signs.pop(k)
        lam_cur = lam_next
        fired_at_knot = {j_ev}

        if not active:
            # all variables dropped; path is zero below unless something re-enters
            r = y  # beta = 0
            c = Xm.T @ r / n
            lam_re = float(np.max(np.abs(c)))
            if lam_re < lam_cur * (1.0 - TIE_TOL) and lam_re >= lambda_floor:
                top = np.abs(c) >= lam_re * (1.0 - TIE_TOL)
                nxt = int(np.argmax(top))
                segments.append(PathSegment(hi=lam_cur, lo=lam_re, active=(),
                                            a=np.empty(0), b=np.empty(0)))
                knots.append(lam_re)
                active = [nxt]
                signs = [math.copysign(1.0, c[nxt])]
                lam_cur = lam_re
                fired_at_knot = {nxt}
            else:
                segments.append(PathSegment(hi=lam_cur, lo=lambda_floor, active=(),
                                            a=np.empty(0), b=np.empty(0)))
                break

        if len(knots) >= max_knots:
            truncated = True
            a, b, singular = _active_solve(Xm, y, active, signs)
            if not singular:
                segments.append(PathSegment(hi=lam_cur, lo=lambda_floor,
                                            active=tuple(active), a=a, b=b))
            break

    return LassoPath(p=p, knots=np.asarray(knots), segments=segments,
                     lambda_floor=lambda_floor, truncated=truncated,
                     degenerate=degenerate)


def path_support_family(path: LassoPath) -> SupportFamily:
    """Deduplicated supports appearing on the path, empty support included,
    in order of first appearance."""
    fam = SupportFamily.from_supports(path.supports, source="path")
    fam.meta["knot_count"] = int(path.knots.size)
    fam.meta["truncated"] = path.truncated
    fam.meta["degenerate"] = path.degenerate
    return fam


def grid_support_family(X, y, lambdas) -> SupportFamily:
    """Supports of the Lasso fits on a penalty grid, read off the path.

    Penalties below the last knot of a truncated path are recorded as
    unconverged in meta and excluded from the family.  The empty support is
    always included.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    lambdas = sorted(float(l) for l in np.atleast_1d(np.asarray(lambdas, dtype=float)))
    if not lambdas or lambdas[0] <= 0.0:
        raise InvalidInputError("all grid penalties must be positive")
    lambdas = lambdas[::-1]

    path = compute_path(X, y)
    converged = {lam: not path.truncated or lam >= path.knots[-1] for lam in lambdas}
    supports = [Support.from_beta(path.beta_at(lam), SUPPORT_THRESH)
                for lam in lambdas if converged[lam]]
    fam = SupportFamily.from_supports(supports, source="grid")
    fam.meta["lambdas"] = lambdas
    fam.meta["converged"] = converged
    return fam
