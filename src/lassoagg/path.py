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

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Generator, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg.lapack

from .design import (RANK_TOL, SUPPORT_THRESH, DesignMatrix, Support, _insert_column,
                     _qr_delete, as_design, as_response)
from .errors import InvalidInputError
# lasso_cd is unused here, but perfbench/tracing.py wraps it at this module
from .solvers import lasso_cd  # noqa: F401

# Relative tolerance under which simultaneous events count as a tie;
# ties are broken by the lowest column index for determinism.
TIE_TOL = 1e-10
_SMALLEST_POSITIVE = float(np.finfo(float).smallest_subnormal)
_ENTRY_SIGNS = np.array([1.0, -1.0])


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
        return Support.of_sorted(tuple(sorted(self.active)))

    def beta(self, lam: float, p: int) -> np.ndarray:
        beta = np.zeros(p)
        if self.active:
            beta[list(self.active)] = self.a - lam * self.b
        return beta


@dataclass
class LassoPath:
    segments: List[PathSegment]        # segment k covers (knots[k+1], knots[k])
    design: DesignMatrix = field(repr=False)      # the data the path was computed from
    response: np.ndarray = field(repr=False)
    degenerate: bool = False
    # the suspended event loop of a truncated path
    loop: Optional[Generator] = field(default=None, repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.design.p

    @cached_property
    def knots(self) -> np.ndarray:
        """The segments' upper ends: strictly decreasing, knots[0] = lambda_0."""
        return np.array([seg.hi for seg in self.segments])

    @property
    def truncated(self) -> bool:
        return self.loop is not None

    @property
    def lambda0(self) -> float:
        return float(self.knots[0]) if self.knots.size else 0.0

    @property
    def supports(self) -> List[Support]:
        return [seg.support for seg in self.segments]

    def of(self, X: DesignMatrix, y: np.ndarray) -> bool:
        """Whether this is the path of the response y on the design X: X is
        the path's design or has equal entries, and y is equal."""
        return ((X is self.design or np.array_equal(X.entries, self.design.entries))
                and np.array_equal(y, self.response))

    @cached_property
    def fits(self) -> Dict[tuple, np.ndarray]:
        """Support indices -> least-squares fit P_T y of every path support,
        the empty one first, in order of first appearance."""
        fitted = {(): np.zeros(self.design.n)}
        for seg in self.segments:
            fitted.setdefault(tuple(sorted(seg.active)), seg.fit)
        return fitted

    @cached_property
    def segment_norms_sq(self) -> Tuple[np.ndarray, np.ndarray]:
        """||y - fit||^2 and ||slope||^2 of every segment, computed once."""
        return _norms_sq(self.response, self.segments)

    def exact_runs(self) -> Iterator[Tuple[List[PathSegment], np.ndarray, np.ndarray, bool]]:
        """The segments of compute_path(X, y), at the default cap, in runs:
        this path's own, then one per knot of its continued loop, each with
        its segment_norms_sq and whether the homotopy goes on after it."""
        cap = _default_max_knots(self.design)
        read = min(len(self.segments), cap)
        rr, ss = self.segment_norms_sq
        more = self.truncated or len(self.segments) > read
        yield self.segments[:read], rr[:read], ss[:read], more
        while more and read < cap:
            # an earlier reader may have continued the loop, even to its end
            with _one_blas_thread():
                segments, _, waiting = self.loop.send(read + 1)
            run = segments[read:read + 1]
            read += 1
            more = waiting or len(segments) > read
            yield (run, *_norms_sq(self.response, run), more)

    @cached_property
    def pieces(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """fit, slope, a and b of the path's pieces, one row each: row 0 is
        the zero piece at and above lambda_0, row k + 1 is segment k; a and
        b are zero-padded to the widest active set."""
        segs = self.segments
        fit, slope = np.zeros((2, len(segs) + 1, self.design.n))
        a, b = np.zeros((2, len(segs) + 1, max((seg.a.size for seg in segs), default=0)))
        for k, seg in enumerate(segs, start=1):
            fit[k], slope[k] = seg.fit, seg.slope
            a[k, :seg.a.size], b[k, :seg.b.size] = seg.a, seg.b
        return fit, slope, a, b

    def losses_and_sizes(self, lams: Sequence[float],
                         target: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """||X beta(lam) - target||^2 / n and the number of coefficients of
        beta(lam) above SUPPORT_THRESH in magnitude at each lam of lams, read
        off row i of pieces, i the number of knots above lam: the zero piece
        at and above lambda_0, and at a knot the segment that ends there."""
        lams = np.asarray(lams, dtype=float)[:, None]
        rows = np.searchsorted(-self.knots, -lams[:, 0])
        fit, slope, a, b = self.pieces
        # X beta(lam) - target = fit - lam * slope - target, squared in place
        resid = fit[rows]
        step = slope[rows]
        step *= lams
        resid -= step
        resid -= target
        resid *= resid
        # |beta(lam)| = |a - lam * b|, in place; the zero padding never counts
        beta = b[rows]
        beta *= lams
        np.subtract(a[rows], beta, out=beta)
        np.abs(beta, out=beta)
        return resid.sum(axis=1) / self.design.n, (beta > SUPPORT_THRESH).sum(axis=1)


def _norms_sq(y: np.ndarray, segments: Sequence[PathSegment]) -> Tuple[np.ndarray, np.ndarray]:
    """||y - fit||^2 and ||slope||^2 of each segment."""
    rr = [r0 @ r0 for r0 in (y - seg.fit for seg in segments)]
    return (np.array(rr, dtype=float),
            np.array([seg.slope @ seg.slope for seg in segments], dtype=float))


@dataclass
class SupportFamily:
    supports: Tuple[Support, ...]
    source: str = "external"
    # path and grid families carry their path; precompute reads its fits
    # and projects the supports that it has no fit for
    path: Optional[LassoPath] = field(default=None, compare=False, repr=False)

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


@lru_cache(maxsize=None)
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


@_one_blas_thread()
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
    once max_knots knots (lambda_0 included) are recorded, as the uncapped
    path's first segments; truncated=True means that events remained at the
    cap, where the path keeps its loop suspended.  It runs with one BLAS
    thread: the loop alternates calls between numpy's and scipy's OpenBLAS,
    whose thread pools contend for the cores; the caller's counts are restored.
    """
    X = as_design(X)
    y = as_response(y, X.n)
    lam0 = float(np.max(np.abs(X.entries.T @ y / X.n)))
    if max_knots is None:
        max_knots = _default_max_knots(X)
    if max_knots < 1:
        raise InvalidInputError("max_knots must be >= 1")
    if lam0 <= 0.0:
        return LassoPath(segments=[], design=X, response=y)
    loop = _event_loop(X, y, lam0, max_knots)
    segments, degenerate, waiting = next(loop)
    # a copy of the list, which the continued loop extends
    return LassoPath(segments=list(segments), degenerate=degenerate, design=X, response=y,
                     loop=loop if waiting else None)


def _default_max_knots(X: DesignMatrix) -> int:
    return 10 * min(X.n, X.p) + 10


def _event_loop(X: DesignMatrix, y: np.ndarray, lam0: float, max_knots: int) -> Generator:
    """The event loop of one path.  It records a segment once every event at
    its upper knot has fired, and waits once max_knots segments are recorded,
    yielding (segments, degenerate, True): its own growing list of them and
    the degenerate flag of their knots.  A larger cap sent to it continues;
    once finished it answers every cap with (segments, degenerate, False).

    The k active columns are a tuple, in order of entry, which the segments
    share; their signs and column norms fill slots [:k] of arrays of
    min(n, p) entries, the most columns X_A can hold.  The columns whose
    event fired at the current knot are a list, passed to _next_event."""
    n, p = X.n, X.p
    Xm = X.entries
    lambda_floor = 1e-8 * lam0
    # lambda_floor > 0 on every path; a zero floor still admits only positive times
    low = max(lambda_floor, _SMALLEST_POSITIVE)
    segments: List[PathSegment] = []
    degenerate = False
    active: Tuple[int, ...] = ()          # active columns, in order of entry
    signs = np.empty(min(n, p))           # their signs on the current segment
    norms = np.empty(min(n, p))           # their column norms
    lam_cur = lam0
    col_norms = np.sqrt(X.column_norms_sq)
    enterable = col_norms > 0.0       # nonzero columns that are not active
    # X_A = Q R with the columns in order of entry (economic form)
    Q = np.empty((n, 0))
    R = np.empty((0, 0))
    # columns whose event fired at the current knot; they may not fire again
    # at the same lambda (prevents add/drop cycling on simultaneous events)
    fired: List[int] = []
    trtrs = scipy.linalg.lapack.dtrtrs
    resid_slope = np.empty((2, n))    # rows y - fit and slope of the segment

    while True:
        k = len(active)
        z = Q.T @ y
        fit = Q @ z                       # P_A y: X beta at lam = 0 on this segment
        if k:
            # a = R^-1 Q^T y and b = n R^-1 R^-T s, by LAPACK triangular solves;
            # the right-hand side (z, v) is Fortran-ordered, as dtrtrs takes it
            v = trtrs(R, signs[:k], trans=1)[0]
            ab = trtrs(R, np.array((z, v)).T)[0]
            a, b = ab[:, 0], n * ab[:, 1]
            slope = n * (Q @ v)           # X_A b
        else:
            a = b = np.zeros(0)
            slope = np.zeros(n)
        head = PathSegment(hi=lam_cur, lo=lambda_floor, active=active,
                           a=a, b=b, fit=fit, slope=slope)
        np.subtract(y, fit, out=resid_slope[0])
        resid_slope[1] = slope
        u, w = (resid_slope @ Xm) / n

        event = _next_event(u, w, a, b, active, enterable, fired, lam_cur, low)
        if event is None:
            segments.append(head)
            while True:
                yield segments, degenerate, False
        lam_next, j_ev, sgn, tied = event
        if lam_next < lam_cur * (1.0 - TIE_TOL):
            head.lo = lam_next
            segments.append(head)
            while len(segments) >= max_knots:
                max_knots = yield segments, degenerate, True
            lam_cur = lam_next
            fired = []
        elif fired:
            # another event at the current knot: a zero-length segment, so
            # the active set is updated in place without recording a knot
            degenerate = True
        # a tie at the next knot is reported with that knot's segment
        degenerate |= tied
        if sgn != 0.0:
            Q, R, independent = _insert_column(
                Q, R, Xm[:, j_ev], RANK_TOL * norms[:k].max(initial=col_norms[j_ev]))
            if independent:
                active += (j_ev,)
                signs[k] = sgn
                norms[k] = col_norms[j_ev]
                enterable[j_ev] = False
            else:
                # X_j lies in the span of the active columns
                degenerate = True
        else:
            i = active.index(j_ev)
            Q, R = _qr_delete(Q, R, i, which="col", check_finite=False)
            Q, R = Q[:, :R.shape[1]], R[:R.shape[1]]
            active = active[:i] + active[i + 1:]
            signs[i:k - 1] = signs[i + 1:k]
            norms[i:k - 1] = norms[i + 1:k]
            enterable[j_ev] = True
        fired.append(j_ev)


def _next_event(u: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray,
                active: Tuple[int, ...], enterable: np.ndarray, fired: Sequence[int],
                lam_cur: float, low: float) -> Optional[Tuple[float, int, float, bool]]:
    """The homotopy's next event at or below lam_cur, or None if none is left.

    Column j may enter with sign +1 or -1 at u_j / (+-1 - w_j) if it is
    enterable and the denominator is at least 1e-14 in magnitude; active
    column active[i] may drop at a_i / b_i if b_i != 0.  An event counts if
    its time lies in [low, lam_cur * (1 + TIE_TOL)), unless its column is in
    fired (the columns whose event fired at the current knot) and its time
    is at least lam_cur * (1 - TIE_TOL).  low is the floor, which must be
    positive: the path's max(lambda_floor, smallest subnormal).  Times are
    clamped to lam_cur, which must be at least low.  The events within
    TIE_TOL of the latest are tied; of these the lowest column wins, its +1
    entry before its -1 entry.  Returns (lambda, column, sign, tied): sign is
    +-1 for an entry and 0 for a drop, and tied says that more than one
    event was tied.
    """
    p = w.size
    upper = lam_cur * (1.0 + TIE_TOL)
    # event times, in the order of the tie rules: the entries with sign +1,
    # then those with sign -1, both by column, then the drops; an event
    # that cannot fire has time -inf, and a time below low is left to the
    # final comparison with low
    t = np.full(2 * p + b.size, -np.inf)
    denom = np.subtract.outer(_ENTRY_SIGNS, w)
    ok = np.abs(denom) >= 1e-14
    ok &= enterable
    np.divide(u, denom, out=t[:2 * p].reshape(2, p), where=ok)
    np.divide(a, b, out=t[2 * p:], where=b != 0.0)
    np.putmask(t, t >= upper, -np.inf)
    at_knot = lam_cur * (1.0 - TIE_TOL)
    for j in fired:
        # column j's entries and, if it is active, its drop
        for i in (j, p + j, 2 * p + active.index(j)) if j in active else (j, p + j):
            if t[i] >= at_knot:
                t[i] = -np.inf
    np.minimum(t, lam_cur, out=t)
    latest = t.max()
    if not latest >= low:
        return None
    tied = (t >= max(latest * (1.0 - TIE_TOL), low)).nonzero()[0].tolist()

    def column(i: int) -> int:
        return i if i < p else i - p if i < 2 * p else active[i - 2 * p]

    i = min(tied, key=lambda i: (column(i), i))
    sign = 1.0 if i < p else -1.0 if i < 2 * p else 0.0
    return float(t[i]), column(i), sign, len(tied) > 1


def path_support_family(path: LassoPath) -> SupportFamily:
    """Deduplicated supports appearing on the path, empty support included,
    in order of first appearance, carrying the path and so their fits."""
    return SupportFamily(supports=tuple(map(Support.of_sorted, path.fits)), source="path",
                         path=path)

