"""Property tests: the square-root Lasso, the grid family, the segments'
fitted values and the least-squares fits that path and grid families carry,
all read off the Lasso path, checked against their optimality conditions,
the coordinate-descent reference, X beta and the pivoted-QR projection of
tests/oracles.py; the homotopy's event search, checked against its
candidate-list form, and its capped paths and their loops continued past
the cap, checked against the uncapped path; the Q-aggregation QP, checked
against its Frank-Wolfe gap and every vertex; the CLI's CSV round trip;
and the CLI's CSV loaders, checked against their Python reader alone."""

import math
import os
import tempfile
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lassoagg.cli
from lassoagg.aggregation import PrecomputedFits, crit_select, precompute, q_aggregate
from lassoagg.cli import load_matrix_csv, load_vector_csv, save_matrix_csv
from lassoagg.design import SUPPORT_THRESH, Support
from lassoagg.errors import DegenerateVarianceError
from lassoagg.path import (_SMALLEST_POSITIVE, TIE_TOL, LassoPath, SupportFamily, _next_event,
                           _one_blas_thread, compute_path, path_support_family)
from lassoagg.pipelines import sqrt_lasso_pipeline
from lassoagg.simulation import generate_instance
from lassoagg.solvers import lasso_cd, sqrt_lasso, sqrt_lasso_universal_lambda
from oracles import crit_select_loop, grid_support_family, pivoted_project
from test_solvers import path_bytes


@st.composite
def instances(draw, max_n=40, max_p=60):
    n = draw(st.integers(5, max_n))
    p = draw(st.integers(2, max_p))
    s = draw(st.integers(0, min(p, 4)))
    kind = draw(st.sampled_from(["iid_gaussian", "equicorrelated"]))
    seed = draw(st.integers(0, 10_000))
    sigma = draw(st.sampled_from([0.1, 0.3, 1.0]))
    inst = generate_instance(n, p, s, sigma, design_kind=kind, seed=seed)
    return inst.X.entries, inst.y


def sqrt_kkt_violation(X, y, lam, beta):
    """Worst violation of the square-root-Lasso optimality conditions."""
    n = X.shape[0]
    r = y - X @ beta
    g = X.T @ r / (math.sqrt(n) * float(np.linalg.norm(r)))
    on = np.abs(beta) > SUPPORT_THRESH
    worst = float(np.max(np.abs(g[on] - lam * np.sign(beta[on])), initial=0.0))
    return max(worst, float(np.max(np.abs(g[~on]), initial=0.0)) - lam)


@settings(max_examples=100, deadline=None)
@given(instances(), st.floats(0.2, 1.5))
def test_sqrt_lasso_meets_its_kkt_conditions(data, factor):
    X, y = data
    n, p = X.shape
    lam = factor * sqrt_lasso_universal_lambda(n, p)
    try:
        fit = sqrt_lasso(X, y, lam)
    except DegenerateVarianceError:
        return
    assert fit.converged
    assert sqrt_kkt_violation(X, y, lam, fit.beta) <= 1e-9 * lam
    r = y - X @ fit.beta
    assert math.isclose(fit.sigma_hat_sq, float(r @ r) / n, rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(instances(), st.floats(0.2, 1.5), st.integers(1, 6))
def test_sqrt_lasso_does_not_depend_on_the_path_given(data, factor, max_knots):
    X, y = data
    lam = factor * sqrt_lasso_universal_lambda(*X.shape)
    fits = []
    # no path, the path of (X, y) complete and capped, and the paths of
    # another response and of another design
    for path in (None, compute_path(X, y), compute_path(X, y, max_knots=max_knots),
                 compute_path(X, 2.0 * y), compute_path(2.0 * X, y)):
        try:
            fits.append(sqrt_lasso(X, y, lam, path=path))
        except DegenerateVarianceError:
            fits.append(None)
    if fits[0] is None:
        assert fits == [None] * 5
        return
    for fit in fits[1:]:
        assert np.array_equal(fit.beta, fits[0].beta)
        assert (fit.sigma_hat_sq, fit.iterations, fit.converged) == \
            (fits[0].sigma_hat_sq, fits[0].iterations, fits[0].converged)


@st.composite
def tied_designs(draw):
    """Small integer designs in which some columns repeat the previous one,
    negated or doubled, with integer responses: their paths have tied events
    and refused entries."""
    n = draw(st.integers(2, 10))
    p = draw(st.integers(1, 10))
    X = draw(arrays(np.float64, (n, p), elements=st.integers(-3, 3).map(float)))
    for j in range(1, p):
        factor = draw(st.sampled_from([None, 1.0, -1.0, 2.0]))
        if factor is not None:
            X[:, j] = factor * X[:, j - 1]
    return X, draw(arrays(np.float64, n, elements=st.integers(-3, 3).map(float)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(instances(max_n=20, max_p=30), tied_designs()), st.integers(1, 6))
# column 1 ties with column 0 at lambda_0 and enters in place
@example((2.0 * np.eye(4)[:, :3], np.array([1.0, 1.0, 0.5, 0.0])), 1)
# each column twice: the copy's entry is refused
@example((np.repeat(np.eye(3), 2, axis=1), np.array([3.0, 2.0, 1.0])), 2)
def test_a_continued_path_is_the_uncapped_path(data, max_knots):
    X, y = data
    full = compute_path(X, y)
    capped = compute_path(X, y, max_knots=max_knots)
    assert (capped.loop is not None) == capped.truncated
    # a capped path is the uncapped path's first max_knots segments
    assert path_bytes(capped)[-1] == path_bytes(full)[-1][:max_knots]
    if capped.loop is None:
        assert path_bytes(capped) == path_bytes(full)
        return
    before = path_bytes(capped)
    # continued to the default cap, the loop has recorded the uncapped path
    with _one_blas_thread():
        segments, degenerate, waiting = capped.loop.send(10 * min(X.shape) + 10)
    continued = LassoPath(segments=list(segments), degenerate=degenerate, design=full.design,
                          response=full.response, loop=capped.loop if waiting else None)
    for path in (full, capped, continued):
        assert path.knots.tolist() == [seg.hi for seg in path.segments]
    assert path_bytes(continued) == path_bytes(full)
    # continuing the loop leaves the capped path as it was
    assert path_bytes(capped) == before


@settings(max_examples=25, deadline=None)
@given(instances(max_n=25, max_p=30),
       st.lists(st.floats(0.05, 1.2), min_size=1, max_size=4))
def test_grid_family_matches_coordinate_descent(data, factors):
    X, y = data
    path = compute_path(X, y)
    assume(path.lambda0 > 0.0)
    # penalties at least 1% away from every knot, so no coefficient is tiny
    lams = [f * path.lambda0 for f in factors
            if np.min(np.abs(path.knots - f * path.lambda0)) > 1e-2 * f * path.lambda0]
    assume(lams)
    fits = [lasso_cd(X, y, lam, tol=1e-13, max_iter=20_000) for lam in sorted(lams, reverse=True)]
    assume(all(fit.converged for fit in fits))
    expected = SupportFamily.from_supports(
        [Support.from_beta(fit.beta) for fit in fits], source="grid")
    assert grid_support_family(X, y, lams).supports == expected.supports


@st.composite
def wide_instances(draw):
    """p > n designs, half of them with the last column a copy of the first."""
    n = draw(st.integers(5, 30))
    p = draw(st.integers(n + 1, 2 * n + 10))
    kind = draw(st.sampled_from(["iid_gaussian", "equicorrelated"]))
    seed = draw(st.integers(0, 10_000))
    inst = generate_instance(n, p, min(p, 4), draw(st.sampled_from([0.1, 1.0])),
                             design_kind=kind, seed=seed)
    X = inst.X.entries.copy()
    if draw(st.booleans()):
        X[:, -1] = X[:, 0]
    return X, inst.y


@settings(max_examples=60, deadline=None)
@given(wide_instances())
def test_segment_fitted_values_equal_x_beta(data):
    X, y = data
    path = compute_path(X, y)
    scale = max(float(np.linalg.norm(y)), 1e-300)
    for seg in path.segments:
        for lam in (seg.hi, 0.5 * (seg.hi + seg.lo), seg.lo):
            err = seg.fit - lam * seg.slope - X @ seg.beta(lam, X.shape[1])
            assert np.linalg.norm(err) <= 1e-11 * scale


def _candidate_list_event(u, w, a, b, active, enterable, fired, lam_cur, lambda_floor):
    """The homotopy's event search as a list of candidates, in the order of
    the tie rules, kept as the reference for _next_event."""
    upper = lam_cur * (1.0 + TIE_TOL)
    at_knot = lam_cur * (1.0 - TIE_TOL)

    def allowed(lam, ok, fired):
        return ok & (0.0 < lam) & (lam < upper) & ~((lam >= at_knot) & fired)

    denom = np.stack((1.0 - w, -1.0 - w))     # entry with sign +1, -1
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_add = u / denom
        lam_drop = a / b
    ok_add = allowed(lam_add, enterable & (np.abs(denom) >= 1e-14), fired)
    ok_drop = allowed(lam_drop, b != 0.0, fired[active])
    # row-major order lists every +1 entry before any -1 entry
    sign_row, add_cols = np.nonzero(ok_add)
    lams = np.minimum(np.concatenate((lam_add[ok_add], lam_drop[ok_drop])), lam_cur)
    cols = np.concatenate((add_cols, active[ok_drop]))
    sgns = np.concatenate((1.0 - 2.0 * sign_row, np.zeros(np.count_nonzero(ok_drop))))
    keep = lams >= lambda_floor
    lams, cols, sgns = lams[keep], cols[keep], sgns[keep]
    if not lams.size:
        return None
    tied = lams >= lams.max() * (1.0 - TIE_TOL)
    ev = int(np.flatnonzero(tied & (cols == cols[tied].min()))[0])
    return float(lams[ev]), int(cols[ev]), float(sgns[ev]), bool(np.count_nonzero(tied) > 1)


# event times in units of lam_cur: ties within TIE_TOL, the tie boundary,
# times above lam_cur, below the floor and nonpositive
EVENT_TIMES = [1.0, 1.0 + 5e-11, 1.0 - 5e-11, 1.0 + 2e-10, 1.0 - 2e-10, 0.5,
               0.5 * (1.0 + 5e-11), 1e-9, 3e-9, 0.0, -0.5, 2.0]
# w_j = +-1 makes an entry's denominator zero, 1 - 1e-15 makes it too small,
# and |w_j| = 1e11 makes the +1 and -1 entries of column j tie
CORRELATION_SLOPES = [0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0, 1e11, -1e11, 1.0 - 1e-15]


@st.composite
def event_searches(draw):
    p = draw(st.integers(1, 6))
    k = draw(st.integers(0, p))
    active = np.array(draw(st.permutations(range(p)))[:k], dtype=np.intp)
    enterable = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    enterable[active] = False
    lam_cur = draw(st.sampled_from([1.0, 0.5]))
    w = np.array(draw(st.lists(st.sampled_from(CORRELATION_SLOPES) | st.floats(-3.0, 3.0),
                               min_size=p, max_size=p)))
    times = lam_cur * np.array(draw(st.lists(st.sampled_from(EVENT_TIMES),
                                             min_size=p, max_size=p)))
    u = times * (draw(st.sampled_from([1.0, -1.0])) - w)
    # b_i = 0 makes a_i / b_i infinite or NaN
    b = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e-300]),
                               min_size=k, max_size=k)))
    drop_times = lam_cur * np.array(draw(st.lists(st.sampled_from(EVENT_TIMES),
                                                  min_size=k, max_size=k)))
    a = np.where(b != 0.0, drop_times * b,
                 draw(st.sampled_from([0.0, 1.0, -1.0])))
    # an all-False draw is the first loop head, where no event has fired yet
    fired = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)), dtype=bool)
    lambda_floor = lam_cur * draw(st.sampled_from([0.0, 1e-8, 0.25, 1.0]))
    return u, w, a, b, active, enterable, fired, lam_cur, lambda_floor


@settings(max_examples=1000, deadline=None)
@given(event_searches())
def test_event_search_matches_the_candidate_list(args):
    u, w, a, b, active, enterable, fired, lam_cur, lambda_floor = args
    expected = _candidate_list_event(*args)
    # the loop passes the active columns as a tuple, the fired ones as a
    # list and the floor as at least the smallest positive float
    found = _next_event(u, w, a, b, tuple(active.tolist()), enterable,
                        np.flatnonzero(fired).tolist(), lam_cur,
                        max(lambda_floor, _SMALLEST_POSITIVE))
    assert found == expected
    if found is not None:
        assert [type(v) for v in found] == [float, int, float, bool]


@settings(max_examples=100, deadline=None)
@given(st.one_of(wide_instances(), tied_designs()))
def test_path_supports_equal_validated_supports(data):
    X, y = data
    family = path_support_family(compute_path(X, y))
    validated = [Support(T.indices) for T in family]
    assert list(family) == validated
    assert [hash(T) for T in family] == [hash(T) for T in validated]
    assert sorted(family) == sorted(validated)
    for T, V in zip(family, validated):
        assert all(type(j) is int for j in T.indices)
        assert (T < V, T <= V, T > V) == (False, True, False)


def _families_with_fits(X, y):
    """The path family, a grid family at knots, midpoints and fractions of
    lambda_0, and the square-root-Lasso grid family (unless it interpolates)."""
    path = compute_path(X, y)
    families = [path_support_family(path)]
    if path.lambda0 > 0.0:
        lams = (list(path.knots)
                + [0.5 * (seg.hi + seg.lo) for seg in path.segments]
                + [f * path.lambda0 for f in (1.5, 0.5, 0.1, 1e-3)])
        families.append(grid_support_family(path.design, y, lams))
    lam_u = sqrt_lasso_universal_lambda(*X.shape)
    try:
        families.append(sqrt_lasso_pipeline(path.design, y, lambda_min=lam_u / 4, M=6,
                                            method="crit").family)
    except DegenerateVarianceError:
        pass
    return path.design, families


@settings(max_examples=60, deadline=None)
@given(wide_instances())
def test_path_family_fits_equal_qr_projections(data):
    X, y = data
    design, families = _families_with_fits(X, y)
    scale = max(float(np.linalg.norm(y)), 1e-300)
    for family in families:
        assert family.path is not None
        fitted = precompute(design, y, family).fitted_vectors
        for j, T in enumerate(family):
            ref = pivoted_project(design, T, y).fitted
            assert np.linalg.norm(fitted[:, j] - ref) <= 1e-12 * scale


def rank_deficient_qp(n, M, seed, scale, kinds):
    """Precomputed fits F (n x M) at the given scale, drawn from seed, whose
    column t is a fresh column, a duplicate or an affine combination of two
    others as kinds[t] says, with nonnegative log-weights."""
    rng = np.random.default_rng(seed)
    F = scale * rng.standard_normal((n, M))
    for t in range(M):
        a, b = rng.integers(M, size=2)
        if kinds[t] == "duplicate":
            F[:, t] = F[:, a]
        elif kinds[t] == "affine":
            lam = rng.uniform(-1.0, 2.0)
            F[:, t] = lam * F[:, a] + (1.0 - lam) * F[:, b]
    y = scale * rng.standard_normal(n)
    G = F.T @ F
    family = SupportFamily.from_supports([Support((j,)) for j in range(M)],
                                         include_empty=False)
    return PrecomputedFits(family=family, fitted_vectors=F, gram=G, y_dot=F.T @ y,
                           log_inv_weights=rng.uniform(0.0, 10.0, M),
                           y_norm_sq=float(y @ y))


@st.composite
def rank_deficient_fits(draw):
    """Fits F (n x M, n < M) with duplicated and affinely dependent columns,
    nonnegative log-weights and a variance in [0, 1]."""
    n = draw(st.integers(1, 8))
    M = draw(st.integers(n + 1, 24))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = draw(st.sampled_from([1e-2, 1.0, 1e2]))
    kinds = [draw(st.sampled_from(["free", "duplicate", "affine"])) for _ in range(M)]
    return rank_deficient_qp(n, M, seed, scale, kinds), draw(st.floats(0.0, 1.0))


# Rank-one Gram matrices on which the active-set method cycled until it hit
# its bound, while lstsq counted the round-off singular values (a few eps of
# the largest) of a 2 x 2 reduced Hessian as curvature.
@settings(max_examples=300, deadline=None)
@given(rank_deficient_fits())
@example((rank_deficient_qp(1, 23, 727222943, 1e-2, [
    "affine", "duplicate", "duplicate", "duplicate", "affine", "affine", "free", "duplicate",
    "duplicate", "affine", "free", "free", "free", "free", "free", "affine", "free", "affine",
    "affine", "affine", "duplicate", "free", "affine"]), 1e-7))
@example((rank_deficient_qp(1, 20, 20, 1e2, [
    "free", "free", "affine", "free", "free", "free", "free", "affine", "affine", "affine",
    "affine", "free", "free", "affine", "affine", "free", "free", "free", "affine", "affine"]),
    1.0))
def test_q_aggregate_solves_rank_deficient_qps(data):
    pre, s2 = data
    res = q_aggregate(pre, s2)
    assert res.converged
    theta = res.theta_hat.theta
    assert np.all(theta >= 0.0) and abs(theta.sum() - 1.0) <= 1e-10
    c = -2.0 * pre.y_dot + 0.5 * np.diag(pre.gram) + 26.0 * s2 * pre.log_inv_weights
    grad = pre.gram @ theta + c
    gap = float(grad @ theta - np.min(grad))
    assert gap <= 1e-9 * (1.0 + abs(res.objective) + float(np.max(np.abs(grad))))
    vertices = 0.5 * np.diag(pre.gram) + c + pre.y_norm_sq
    # rounding slack only: the method starts at the best vertex and descends
    assert np.all(res.objective <= vertices + 1e-12 * (1.0 + np.abs(vertices)))


def assert_crit_select_is_the_loop(pre):
    """crit_select and the per-support loop agree bitwise at each variance."""
    for s2 in (0.0, 0.01, 1.0, 7.3):
        found, expected = crit_select(pre, s2), crit_select_loop(pre, s2)
        assert found.chosen.indices == expected.chosen.indices
        assert type(found.crit_value) is type(expected.crit_value) is np.float64
        assert found.crit_value.tobytes() == expected.crit_value.tobytes()
        assert found.mu_hat.tobytes() == expected.mu_hat.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.one_of(wide_instances(), tied_designs()))
def test_crit_select_is_the_per_support_loop_on_path_families(data):
    X, y = data
    path = compute_path(X, y)
    assert_crit_select_is_the_loop(precompute(path.design, y, path_support_family(path)))


@st.composite
def duplicated_column_families(draw):
    """Families, in a drawn order, of supports of at most 3 columns of a small
    integer design whose columns repeat: supports over copies of the same
    columns have equal fits, criterion values and sizes, so only their
    indices break the tie."""
    n = draw(st.integers(2, 8))
    base = draw(arrays(np.float64, (n, draw(st.integers(1, 3))),
                       elements=st.integers(-3, 3).map(float)))
    cols = draw(st.lists(st.integers(0, base.shape[1] - 1), min_size=2, max_size=6))
    y = draw(arrays(np.float64, n, elements=st.integers(-3, 3).map(float)))
    candidates = [Support(c) for k in range(4) for c in combinations(range(len(cols)), k)]
    supports = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    return base[:, cols], y, SupportFamily.from_supports(supports, include_empty=False)


@settings(max_examples=200, deadline=None)
@given(duplicated_column_families())
def test_crit_select_is_the_per_support_loop_on_tied_families(data):
    X, y, family = data
    assert_crit_select_is_the_loop(precompute(X, y, family))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.floats(allow_nan=False, allow_infinity=False, width=64)))
@example(np.array([[-0.0, 5e-324, -2.2250738585072014e-308],
                   [1.7e308, -1.7e308, 1.7976931348623157e308]]))
def test_csv_round_trip_is_bitwise(M):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        save_matrix_csv(path, M)
        # the table load_matrix_csv reads, before the design matrix rejects
        # columns whose squared norms overflow
        back = lassoagg.cli._load_table(path, False, False)
    assert back.shape == M.shape
    assert back.tobytes() == M.tobytes()


# Characters of free-form cells: number syntax, padding (including whitespace
# that only Python's str.isspace knows), quotes and an Arabic-Indic digit one.
CELL_CHARS = "0123456789+-.eE_naifty \t\x0b\xa0\u2003\"\u0661"


@st.composite
def csv_texts(draw):
    """CSV text of mostly numeric rows of one width, with ragged, blank and
    whitespace-only rows, mixed line ends, and an optional header and BOM;
    every cell of about half the texts is a finite number."""
    width = draw(st.integers(1, 4))
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-10 ** 6, 10 ** 6).map(str))
    cell = number if draw(st.booleans()) else st.one_of(
        number,
        st.floats().map(repr),
        st.sampled_from(["nan", "inf", "-Infinity", "1_0", "\u0661", "1e400", " 3 ",
                         "\t-4\t", "", '""', '"1\n"', '"7"8', '"1""2"']),
        st.text(CELL_CHARS, max_size=6),
    )
    lines = []
    for kind in draw(st.lists(st.sampled_from(["cells"] * 12 + ["ragged", "blank", "space"]),
                              max_size=6)):
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        else:
            count = width if kind == "cells" else draw(st.integers(1, width + 1))
            cells = [draw(cell) for _ in range(count)]
            cells = [f'"{c}"' if draw(st.integers(0, 4)) == 0 else c for c in cells]
            lines.append(",".join(cells))
    header = draw(st.sampled_from([None] * 6 + ["x,y", '"a\nb",c', '"h\n1\n"', "1,2", "",
                                                '"q""t"']))
    if header is not None:
        lines.insert(0, header)
    ends = [draw(st.sampled_from(["\r\n", "\n", "\r"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    bom = "\ufeff" if draw(st.integers(0, 5)) == 0 else ""
    return bom + "".join(line + end for line, end in zip(lines, ends))


def _outcome(load, path, header):
    """The array bytes a loader returns, or the exception it raises."""
    try:
        out = load(path, header)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    arr = out if isinstance(out, np.ndarray) else out.entries
    return arr.shape, arr.dtype.str, arr.tobytes()


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.booleans())
@example("nan,1\nInfinity,2\n", False)     # numpy reads both; only finite tables are kept
@example("1_0\n2\n", False)                # only Python's float reads underscores
@example("1,2\n \n3,4\n", False)           # a whitespace-only line is a bad cell
@example('"a\nb",c\n1,2\n', True)          # one header record on two lines
@example('"h\n1\n"\n2\n', True)            # skipping one line would read 1 and 2
@example("1,2,\n3,4,\n", False)             # a trailing comma is an empty cell
@example("", False)
@example("", True)
def test_loaders_match_the_python_reader(text, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for load in (load_matrix_csv, load_vector_csv):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = _outcome(load, path, header)
            assert caught == []
            with mock.patch.object(lassoagg.cli, "_read_finite_cells", return_value=None):
                expected = _outcome(load, path, header)
            assert got == expected
