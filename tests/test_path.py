import numpy as np
import pytest

import lassoagg.path
from lassoagg.design import RANK_TOL, SUPPORT_THRESH, DesignMatrix, Support
from lassoagg.errors import InvalidInputError
from lassoagg.path import (SupportFamily, _one_blas_thread, _openblas_thread_controls,
                           compute_path, path_support_family)
from lassoagg.simulation import generate_instance
from lassoagg.solvers import lasso_cd, sqrt_lasso
from oracles import beta_at, grid_support_family, kkt_check
from test_simulation import _openblas_thread_counts


def test_scalar_homotopy():
    X = DesignMatrix([[1.0]])
    y = np.array([3.0])
    path = compute_path(X, y)
    assert path.knots.tolist() == [3.0]
    assert [s.indices for s in path.supports] == [(0,)]
    # beta(lam) = 3 - lam on (0, 3), zero above
    assert beta_at(path, 1.0)[0] == pytest.approx(2.0, abs=1e-12)
    assert beta_at(path, 3.5)[0] == 0.0
    fam = path_support_family(path)
    assert fam.supports == (Support(()), Support((0,)))


def test_zero_response():
    X = DesignMatrix(np.eye(3))
    path = compute_path(X, np.zeros(3))
    assert path.knots.size == 0
    assert np.all(beta_at(path, 0.1) == 0.0)
    fam = path_support_family(path)
    assert fam.supports == (Support(()),)


@pytest.mark.parametrize("seed", range(6))
def test_midpoint_coordinate_descent_oracle(seed):
    rng = np.random.default_rng(seed)
    n, p = 15, 6
    Xm = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    X = DesignMatrix(Xm)
    path = compute_path(X, y)
    for seg in path.segments:
        lam = 0.5 * (seg.hi + seg.lo)
        fit = lasso_cd(X, y, lam, tol=1e-15, max_iter=200_000)
        assert np.allclose(fit.beta, beta_at(path, lam), atol=1e-7)
        assert Support.from_beta(fit.beta) == seg.support


def test_piecewise_linearity_between_knots():
    rng = np.random.default_rng(21)
    Xm = rng.standard_normal((12, 5))
    y = rng.standard_normal(12)
    path = compute_path(DesignMatrix(Xm), y)
    for hi, lo in zip(path.knots, path.knots[1:]):
        mid = 0.5 * (hi + lo)
        avg = 0.5 * (beta_at(path, hi) + beta_at(path, lo))
        assert np.allclose(beta_at(path, mid), avg, atol=1e-9)


def test_kkt_along_path():
    rng = np.random.default_rng(23)
    Xm = rng.standard_normal((15, 7))
    y = rng.standard_normal(15)
    X = DesignMatrix(Xm)
    path = compute_path(X, y)
    for seg in path.segments:
        for t in np.linspace(0.1, 0.9, 5):
            lam = seg.lo + t * (seg.hi - seg.lo)
            if lam <= 0:
                continue
            assert kkt_check(X, y, lam, beta_at(path, lam), tol=1e-7).ok


def test_support_constant_within_segment():
    rng = np.random.default_rng(29)
    Xm = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    X = DesignMatrix(Xm)
    path = compute_path(X, y)
    for seg in path.segments:
        lams = [seg.lo + 0.25 * (seg.hi - seg.lo), seg.lo + 0.75 * (seg.hi - seg.lo)]
        supps = [Support.from_beta(lasso_cd(X, y, lam, tol=1e-14).beta) for lam in lams]
        assert supps[0] == supps[1] == seg.support


def test_knot_count_sanity():
    rng = np.random.default_rng(31)
    for _ in range(5):
        Xm = rng.standard_normal((20, 10))
        y = rng.standard_normal(20)
        path = compute_path(DesignMatrix(Xm), y)
        assert not path.truncated
        assert path.knots.size <= 3 * 10 + 5


def _drop_instance():
    # deterministic instance whose path contains a sign-change drop
    rng = np.random.default_rng(0)
    for _ in range(89):
        Xm = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
    return Xm, y


def test_drop_event_and_support_dedup():
    Xm, y = _drop_instance()
    X = DesignMatrix(Xm)
    path = compute_path(X, y)
    sizes = [len(s) for s in path.supports]
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "expected a drop event"
    # midpoint oracle still holds through the drop
    for seg in path.segments:
        lam = 0.5 * (seg.hi + seg.lo)
        fit = lasso_cd(X, y, lam, tol=1e-15, max_iter=200_000)
        assert Support.from_beta(fit.beta) == seg.support
    # a support appearing twice is recorded once
    fam = path_support_family(path)
    assert len(set(fam.supports)) == len(fam.supports)


def test_truncation_flag():
    rng = np.random.default_rng(37)
    Xm = rng.standard_normal((20, 10))
    y = rng.standard_normal(20)
    full = compute_path(DesignMatrix(Xm), y)
    for cap in (1, 2, 3):
        path = compute_path(DesignMatrix(Xm), y, max_knots=cap)
        assert path.truncated
        # the cap counts knots with lambda_0 included
        assert path.knots.tolist() == full.knots[:cap].tolist()
        fam = path_support_family(path)
        assert Support(()) in fam


def test_natural_end_on_the_cap_is_not_truncated():
    X = DesignMatrix(2.0 * np.eye(4)[:, :3])
    y = np.array([1.0, 0.8, 0.5, 0.0])
    full = compute_path(X, y)
    assert full.knots.size == 3 and not full.truncated
    capped = compute_path(X, y, max_knots=3)
    assert not capped.truncated
    assert capped.knots.tolist() == full.knots.tolist()
    assert compute_path(X, y, max_knots=2).truncated


def _integer_instance():
    # an integer design with a repeated, a negated and a doubled column, so
    # that its path is degenerate
    rng = np.random.default_rng(3)
    Xm = rng.integers(-3, 4, size=(12, 9)).astype(float)
    Xm[:, 4] = Xm[:, 1]
    Xm[:, 6] = -Xm[:, 2]
    Xm[:, 8] = 2.0 * Xm[:, 0]
    return Xm, Xm[:, :3] @ np.array([2.0, -1.0, 1.0]) + rng.integers(-2, 3, size=12)


def _gaussian_instance():
    rng = np.random.default_rng(37)
    return rng.standard_normal((20, 10)), rng.standard_normal(20)


@pytest.mark.parametrize("instance, cap", [
    (_gaussian_instance, None), (_gaussian_instance, 3),
    (_integer_instance, None), (_integer_instance, 4),
], ids=["gaussian", "gaussian-capped", "integer", "integer-capped"])
def test_losses_and_sizes_read_the_covering_segment(instance, cap):
    Xm, y = instance()
    path = compute_path(DesignMatrix(Xm), y, max_knots=cap)
    assert path.truncated is (cap is not None)
    assert path.degenerate is (instance is _integer_instance)
    n, lam0 = y.size, path.lambda0
    target = y + np.random.default_rng(1).standard_normal(n)
    # above lambda_0, the knots, points inside each segment, the last
    # segment's lower end (the floor, or the next knot of a capped path)
    lams = [3.0 * lam0, np.nextafter(lam0, np.inf)] + path.knots.tolist()
    lams += [seg.lo + u * (seg.hi - seg.lo) for seg in path.segments for u in (0.1, 0.5, 0.9)]
    lams.append(path.segments[-1].lo)
    lams = np.random.default_rng(2).permutation(lams).tolist()
    losses, sizes = path.losses_and_sizes(lams, target)
    zero = np.zeros(n)
    for lam, loss, size in zip(lams, losses.tolist(), sizes.tolist()):
        # the segment with hi > lam >= lo; beta = 0 at and above lambda_0
        seg = next((seg for seg in path.segments if seg.hi > lam >= seg.lo), None)
        fit, slope = (zero, zero) if lam >= lam0 else (seg.fit, seg.slope)
        assert loss == float(np.sum((fit - lam * slope - target) ** 2)) / n
        assert size == np.count_nonzero(np.abs(beta_at(path, lam)) > SUPPORT_THRESH)


@pytest.mark.parametrize("y, knots, supports, degenerate", [
    # column 1 ties with column 0 at lambda_0 and enters in place, without a knot
    ((1.0, 1.0, 0.5, 0.0), [0.5, 0.25], [(0, 1), (0, 1, 2)], True),
    # a lone first entry is not a tie
    ((1.0, 0.8, 0.5, 0.0), [0.5, 0.4, 0.25], [(0,), (0, 1), (0, 1, 2)], False),
])
def test_tied_events_share_a_knot(y, knots, supports, degenerate):
    X = DesignMatrix(2.0 * np.eye(4)[:, :3])
    path = compute_path(X, np.array(y))
    assert path.knots.tolist() == pytest.approx(knots, rel=1e-12)
    assert [T.indices for T in path.supports] == supports
    assert path.degenerate is degenerate
    assert not path.truncated
    # a cap waits until every event at its last knot has fired: at one knot
    # of the tied path the support is (0, 1), not (0,)
    for cap in range(1, len(knots) + 1):
        assert compute_path(X, np.array(y), max_knots=cap).supports == path.supports[:cap]


def test_duplicated_columns_do_not_crash():
    rng = np.random.default_rng(41)
    col = rng.standard_normal(10)
    Xm = np.column_stack([col, col, rng.standard_normal((10, 2))])
    y = rng.standard_normal(10)
    path = compute_path(DesignMatrix(Xm), y)
    assert path.knots.size >= 1
    # the duplicate pair never appears together in a support
    for T in path.supports:
        assert not {0, 1} <= set(T.indices)


@pytest.mark.parametrize("offset", [0.0, 1e-12])
def test_dependent_entry_is_refused_and_flagged(offset):
    # column 1 is column 0 (exactly, or with |R_kk| ~ 1e-12 * ||X_1|| below
    # RANK_TOL): it ties with column 0 at lambda_0 and cannot enter
    assert offset < RANK_TOL
    rng = np.random.default_rng(7)
    col = rng.standard_normal(12)
    bump = np.zeros(12)
    bump[0] = offset * np.linalg.norm(col)
    Xm = np.column_stack([col, col + bump, rng.standard_normal((12, 2))])
    y = 3.0 * col + 0.1 * rng.standard_normal(12)
    path = compute_path(DesignMatrix(Xm), y)
    assert path.degenerate
    assert path.supports[0].indices == (0,)
    for T in path.supports:
        assert not {0, 1} <= set(T.indices)
    for seg in path.segments:
        lam = 0.5 * (seg.hi + seg.lo)
        assert kkt_check(DesignMatrix(Xm), y, lam, beta_at(path, lam), tol=1e-9).ok


def _kkt_violation(X, y, lam, beta):
    n = X.shape[0]
    g = X.T @ (y - X @ beta) / n
    on = np.abs(beta) > SUPPORT_THRESH
    worst = float(np.max(np.abs(g[on] - lam * np.sign(beta[on])), initial=0.0))
    return max(worst, float(np.max(np.abs(g[~on]), initial=0.0)) - lam)


def test_full_path_meets_kkt_on_wide_equicorrelated_design():
    # the Gram-matrix Cholesky solve broke KKT on 9 segments of this path
    # with one BLAS thread and on 17 with two, all with |A| near n
    inst = generate_instance(200, 1000, 10, 1.0, design_kind="equicorrelated", seed=0)
    X, y = inst.X.entries, inst.y
    path = compute_path(inst.X, y)
    assert max(len(seg.active) for seg in path.segments) >= 190
    bad = [k for k, seg in enumerate(path.segments)
           if _kkt_violation(X, y, 0.5 * (seg.hi + seg.lo),
                             seg.beta(0.5 * (seg.hi + seg.lo), X.shape[1]))
           > 1e-6 * 0.5 * (seg.hi + seg.lo)]
    assert bad == []


def test_grid_family_above_lambda0():
    rng = np.random.default_rng(43)
    Xm = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    lam0 = np.max(np.abs(Xm.T @ y)) / 10
    fam = grid_support_family(DesignMatrix(Xm), y, [lam0 * 1.5, lam0 * 2.0])
    assert fam.supports == (Support(()),)


def test_grid_family_scalar():
    X = DesignMatrix([[1.0]])
    y = np.array([3.0])
    fam = grid_support_family(X, y, [4.0, 2.0, 1.0])
    assert fam.supports == (Support(()), Support((0,)))
    assert fam.source == "grid"


def test_grid_family_orthonormal_closed_form():
    # orthonormal design: support at lam is exactly {j : |z_j| > lam}
    rng = np.random.default_rng(47)
    n = 6
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Xm = np.sqrt(n) * Q
    y = rng.standard_normal(n)
    X = DesignMatrix(Xm)
    z = Xm.T @ y / n
    lams = [0.8 * np.max(np.abs(z)), 0.5 * np.max(np.abs(z)), 0.2 * np.max(np.abs(z))]
    fam = grid_support_family(X, y, lams)
    expected = [Support(())]
    for lam in sorted(lams, reverse=True):
        T = Support(tuple(np.nonzero(np.abs(z) > lam)[0]))
        if T not in expected:
            expected.append(T)
    assert fam.supports == tuple(expected)


def test_grid_rejects_nonpositive_lambdas():
    X = DesignMatrix([[1.0]])
    with pytest.raises(InvalidInputError):
        grid_support_family(X, np.array([1.0]), [1.0, 0.0])


def test_family_dedup_and_empty_always_present():
    fam = SupportFamily.from_supports([Support((1,)), Support((1,)), Support(())])
    assert fam.supports == (Support(()), Support((1,)))


def test_family_membership_and_first_appearance_order():
    fam = SupportFamily.from_supports([Support((2,)), Support((0, 1)), Support((2,))],
                                      include_empty=False)
    assert fam.supports == (Support((2,)), Support((0, 1)))
    assert Support((0, 1)) in fam and Support((2,)) in fam
    assert Support(()) not in fam and (0, 1) not in fam


def test_path_does_not_depend_on_the_blas_thread_count():
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS library found")
    inst = generate_instance(200, 1000, 10, 1.0, design_kind="equicorrelated", seed=5)
    with _one_blas_thread():    # restores the previous counts on exit
        one = compute_path(inst.X, inst.y)
        for _, set_threads in controls:
            set_threads(2)
        two = compute_path(inst.X, inst.y)
        assert _openblas_thread_counts() == [2] * len(controls)
    assert np.array_equal(one.knots, two.knots)
    assert len(one.segments) == len(two.segments)
    for s1, s2 in zip(one.segments, two.segments):
        assert s1.active == s2.active
        assert np.array_equal(s1.fit, s2.fit)


def test_compute_path_runs_one_blas_thread_and_restores_the_count(monkeypatch):
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS library found")
    seen = []
    real = lassoagg.path._next_event

    def spy(*args):
        seen.append(_openblas_thread_counts())
        return real(*args)

    monkeypatch.setattr(lassoagg.path, "_next_event", spy)
    X, y = DesignMatrix([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 1.0])
    with _one_blas_thread():    # restores the previous counts on exit
        for _, set_threads in controls:
            set_threads(2)
        compute_path(X, y)
        assert _openblas_thread_counts() == [2] * len(controls)
        with pytest.raises(InvalidInputError):
            compute_path(X, y, max_knots=0)
        assert _openblas_thread_counts() == [2] * len(controls)
    assert seen and seen == [[1] * len(controls)] * len(seen)


def test_a_continued_path_runs_one_blas_thread_and_no_pin_outlives_it(monkeypatch):
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS library found")
    rng = np.random.default_rng(5)
    X, y = DesignMatrix(rng.standard_normal((30, 20))), rng.standard_normal(30)
    seen = []
    real = lassoagg.path._next_event

    def spy(*args):
        seen.append(_openblas_thread_counts())
        return real(*args)

    with _one_blas_thread():    # restores the previous counts on exit
        for _, set_threads in controls:
            set_threads(2)
        capped = compute_path(X, y, max_knots=1)
        # the suspended loop holds no pin
        assert capped.loop is not None
        assert _openblas_thread_counts() == [2] * len(controls)
        monkeypatch.setattr(lassoagg.path, "_next_event", spy)
        fit = sqrt_lasso(X, y, 0.1, path=capped)
        assert _openblas_thread_counts() == [2] * len(controls)
    # the root lies past the capped path: its loop continued, with one
    # search for the lower end of each segment past the first
    assert fit.iterations > 1 and len(seen) == fit.iterations - 1
    assert seen == [[1] * len(controls)] * len(seen)
