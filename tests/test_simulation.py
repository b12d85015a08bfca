import ctypes
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import lassoagg.simulation
from lassoagg.design import SUPPORT_THRESH, Support, project
from lassoagg.errors import InvalidInputError
from lassoagg.path import _openblas_thread_controls, compute_path
from lassoagg.pipelines import path_aggregate
from lassoagg.simulation import (OI, SOI, TrialConfig, _one_blas_thread, generate_instance,
                                 monte_carlo, oracle_bound, run_oracle_trial)
from lassoagg.solvers import sqrt_lasso, sqrt_lasso_universal_lambda
from lassoagg.weights import log_inv_weight
from oracles import exhaustive_spa


def test_generate_instance_invariants():
    inst = generate_instance(30, 12, 4, sigma=0.7, seed=5)
    assert inst.X.entries.shape == (30, 12)
    # exact unit column scaling
    assert np.allclose((inst.X.entries ** 2).sum(axis=0) / 30, 1.0, atol=1e-12)
    assert np.sum(inst.beta_star != 0.0) == 4
    assert set(np.unique(inst.beta_star[inst.beta_star != 0.0])) <= {-1.0, 1.0}
    assert np.allclose(inst.mu, inst.X.entries @ inst.beta_star, atol=1e-12)
    assert inst.y.shape == (30,)


def test_generate_instance_reproducible():
    a = generate_instance(10, 5, 2, 1.0, seed=9)
    b = generate_instance(10, 5, 2, 1.0, seed=9)
    assert np.array_equal(a.X.entries, b.X.entries)
    assert np.array_equal(a.y, b.y)
    c = generate_instance(10, 5, 2, 1.0, seed=10)
    assert not np.array_equal(a.y, c.y)


def test_generate_instance_equicorrelated_correlation():
    inst = generate_instance(10_000, 2, 0, sigma=1.0,
                             design_kind="equicorrelated", rho=0.9, seed=1)
    Xm = inst.X.entries
    corr = float(Xm[:, 0] @ Xm[:, 1]) / 10_000
    assert corr == pytest.approx(0.9, abs=0.05)


def test_generate_instance_orthonormal_gram():
    inst = generate_instance(12, 8, 3, sigma=0.5, design_kind="orthonormal", seed=2)
    G = inst.X.entries.T @ inst.X.entries / 12
    assert np.allclose(G, np.eye(8), atol=1e-10)
    with pytest.raises(InvalidInputError):
        generate_instance(5, 6, 1, 1.0, design_kind="orthonormal")


def test_generate_instance_s_zero():
    inst = generate_instance(20, 6, 0, sigma=2.0, seed=3)
    assert np.all(inst.beta_star == 0.0)
    assert np.all(inst.mu == 0.0)


def test_generate_instance_invalid_args():
    with pytest.raises(InvalidInputError):
        generate_instance(10, 4, 5, 1.0)
    for n, p in ((0, 3), (3, 0)):
        with pytest.raises(InvalidInputError, match="n >= 1 and p >= 1"):
            generate_instance(n, p, 0, 1.0)
    with pytest.raises(InvalidInputError):
        generate_instance(10, 4, 1, 1.0, design_kind="equicorrelated", rho=1.0)
    with pytest.raises(InvalidInputError):
        generate_instance(10, 4, 1, 1.0, design_kind="toeplitz")
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            generate_instance(10, 4, 1, sigma)
    for seed in (-1, 2 ** 128):
        with pytest.raises(InvalidInputError, match="seed"):
            generate_instance(10, 4, 1, 1.0, seed=seed)
    assert generate_instance(3, 2, 1, 1.0, seed=2 ** 128 - 1).y.shape == (3,)


def _biases(X, supports, mu):
    """||P_T mu - mu||^2 / n of each support T."""
    return [float(np.sum(project(X, T, mu).residual ** 2)) / X.n for T in supports]


def test_soi_rhs_empty_support_hand_formula():
    # family = {empty}, mu = 0: rhs = 24*s2/n + 22*sigma^2*x/n
    inst = generate_instance(10, 4, 0, sigma=1.0, seed=7)
    biases = _biases(inst.X, [Support(())], np.zeros(10))
    rhs, j = oracle_bound(SOI, biases, [0], 0.5, 1.0, 3.0, 10, 4)
    assert j == 0
    assert rhs == pytest.approx(24.0 * 0.5 / 10 + 22.0 * 3.0 / 10, rel=1e-12)


def test_oi_rhs_hand_formula_with_bias():
    inst = generate_instance(10, 4, 0, sigma=1.0, seed=8)
    mu = inst.X.entries[:, 0] * 2.0  # exactly fit by T = {0}
    supports = [Support(()), Support((0,))]
    biases = _biases(inst.X, supports, mu)
    n, p = 10, 4
    t_empty = 3.0 * float(mu @ mu) / n + 26.0 / n
    t_zero = 0.0 + (26.0 + 104.0 * math.log(math.e * p)) / n
    # each candidate alone: its own term plus the tail
    for T, bias, term in zip(supports, biases, [t_empty, t_zero]):
        assert oracle_bound(OI, [bias], [T.size], 1.0, 1.0, 2.0, n, p) == (
            pytest.approx(term + 28.0 * 2.0 / n, rel=1e-10), 0)
    rhs, j = oracle_bound(OI, biases, [T.size for T in supports], 1.0, 1.0, 2.0, n, p)
    assert j == int(np.argmin([t_empty, t_zero]))
    assert rhs == pytest.approx(min(t_empty, t_zero) + 28.0 * 2.0 / n, rel=1e-10)


def test_rhs_requires_positive_x():
    inst = generate_instance(6, 3, 0, 1.0, seed=1)
    biases = _biases(inst.X, [Support(())], np.zeros(6))
    for x in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            oracle_bound(SOI, biases, [0], 1.0, 1.0, x, 6, 3)


def test_noiseless_trial_holds():
    cfg = TrialConfig(n=30, p=10, s=2, sigma=0.0, x=1.0, method="q",
                      bound="soi_path", seed=4)
    check = run_oracle_trial(cfg)
    assert check.held
    assert check.lhs <= 1e-10  # exact recovery is available at tiny lambda


def test_trial_all_bounds_and_methods_run():
    for bound, method in [("soi_path", "q"), ("soi_supports", "q"),
                          ("oi_supports", "crit")]:
        cfg = TrialConfig(n=25, p=8, s=2, sigma=0.5, x=3.0, method=method,
                          bound=bound, seed=11)
        check = run_oracle_trial(cfg)
        assert check.rhs > 0
        assert check.lhs >= 0
        assert check.held == (check.lhs <= check.rhs)


def test_trial_sqrt_lasso_sigma_mode():
    cfg = TrialConfig(n=40, p=10, s=2, sigma=1.0, sigma_mode="sqrt_lasso", seed=6)
    check = run_oracle_trial(cfg)
    assert 0.0 < check.sigma_hat_sq < 10.0


def _soi_path_reference(config):
    """Losses, support sizes, rhs and minimizing term of the soi_path bound,
    one point at a time."""
    inst = generate_instance(config.n, config.p, config.s, config.sigma,
                             design_kind=config.design_kind, seed=config.seed)
    X, y, mu, n, p = inst.X, inst.y, inst.mu, inst.X.n, inst.X.p
    path = compute_path(X, y)
    s2 = (config.sigma ** 2 if config.sigma_mode == "known" else
          sqrt_lasso(X, y, sqrt_lasso_universal_lambda(n, p), path=path).sigma_hat_sq)
    # beta = 0 at lambda_0, then each knot below it with the segment that
    # ends there, then each segment's midpoint
    lams = [path.lambda0] + path.knots[1:].tolist()
    segments = path.segments[:len(path.knots) - 1] + path.segments
    lams += [0.5 * (seg.hi + seg.lo) for seg in path.segments]
    losses = [float(np.sum(mu ** 2)) / n]
    losses += [float(np.sum((seg.fit - lam * seg.slope - mu) ** 2)) / n
               for lam, seg in zip(lams[1:], segments)]
    sizes = [0] + [int(np.count_nonzero(np.abs(seg.a - lam * seg.b) > SUPPORT_THRESH))
                   for lam, seg in zip(lams[1:], segments)]
    terms = [loss + (s2 / n) * (24.0 + 96.0 * (k * math.log(math.e * p / max(k, 1))))
             for loss, k in zip(losses, sizes)]
    j = terms.index(min(terms))
    minimizing = "beta=0" if j == 0 else f"lambda={lams[j]:.6g}"
    return (path, lams, mu, losses, sizes,
            terms[j] + 22.0 * config.sigma ** 2 * config.x / n, minimizing)


@pytest.mark.parametrize("config", [
    TrialConfig(n=60, p=90, s=4, seed=3),
    TrialConfig(n=60, p=90, s=4, seed=5, design_kind="equicorrelated"),
    TrialConfig(n=40, p=12, s=3, seed=2, sigma_mode="sqrt_lasso"),
    TrialConfig(n=30, p=10, s=2, sigma=0.0, x=1.0, seed=4),
    TrialConfig(n=12, p=5, s=0, sigma=0.0, seed=1),     # zero response: an empty path
], ids=["iid", "equicorrelated", "sqrt-lasso", "noiseless", "zero-response"])
def test_soi_path_bound_equals_the_per_point_loop(config):
    path, lams, mu, losses, sizes, rhs, minimizing = _soi_path_reference(config)
    stacked_losses, stacked_sizes = path.losses_and_sizes(lams, mu)
    assert stacked_losses.tolist() == losses
    assert stacked_sizes.tolist() == sizes
    check = run_oracle_trial(config)
    assert (check.rhs, check.minimizing_term) == (rhs, minimizing)


def test_exhaustive_spa_p1_matches_two_vertex_problem():
    inst = generate_instance(15, 1, 1, sigma=0.5, seed=12)
    res = exhaustive_spa(inst.X, inst.y, 0.25)
    assert res.converged
    assert res.theta_hat.theta.size == 2  # empty set and the singleton


def test_exhaustive_spa_weight_normalization_p3():
    # the 2^3 supports carry total prior mass one
    total = sum(math.comb(3, k) * math.exp(-log_inv_weight(3, k)) for k in range(4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_exhaustive_spa_dominates_path_family():
    inst = generate_instance(16, 6, 2, sigma=0.5, seed=13)
    s2 = 0.25
    ex = exhaustive_spa(inst.X, inst.y, s2)
    via_path = path_aggregate(inst.X, inst.y, s2, method="q")
    assert ex.objective <= via_path.result.objective + 1e-8


def test_exhaustive_spa_rejects_large_p():
    inst = generate_instance(12, 11, 0, 1.0, seed=1)
    with pytest.raises(InvalidInputError):
        exhaustive_spa(inst.X, inst.y, 1.0)


def test_monte_carlo_single_rep_equals_trial():
    cfg = TrialConfig(n=20, p=6, s=1, sigma=0.5, seed=21)
    report = monte_carlo(cfg, reps=1)
    check = run_oracle_trial(cfg)
    assert report["reps"] == 1
    assert report["mean_lhs"] == check.lhs
    assert report["mean_rhs"] == check.rhs
    assert report["held_rate"] == float(check.held)


def test_monte_carlo_parallelism_invariant():
    cfg = TrialConfig(n=20, p=6, s=1, sigma=0.5, seed=31)
    serial = monte_carlo(cfg, reps=6, parallelism=1)
    parallel = monte_carlo(cfg, reps=6, parallelism=4)
    assert serial["mean_lhs"] == parallel["mean_lhs"]
    assert serial["mean_rhs"] == parallel["mean_rhs"]
    assert serial["held_rate"] == parallel["held_rate"]
    assert serial["lhs_quantiles"] == parallel["lhs_quantiles"]


def _openblas_thread_counts():
    """The thread count of every OpenBLAS library mapped into this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, name):
                counts.append(getattr(lib, name)())
                break
    return counts


def _counts_during_and_after_a_trial():
    """The OpenBLAS thread counts of this process while a replication runs
    (seen as it generates its instance) and after it has run."""
    seen = []
    original = lassoagg.simulation.generate_instance

    def spy(*args, **kwargs):
        seen.append(_openblas_thread_counts())
        return original(*args, **kwargs)

    lassoagg.simulation.generate_instance = spy
    try:
        run_oracle_trial(TrialConfig(n=20, p=6, s=1, sigma=0.5, seed=3))
    finally:
        lassoagg.simulation.generate_instance = original
    return seen, _openblas_thread_counts()


def test_replications_in_workers_run_one_blas_thread():
    with ProcessPoolExecutor(max_workers=1) as pool:
        seen, _ = pool.submit(_counts_during_and_after_a_trial).result()
    assert len(seen) == 1 and len(seen[0]) == len(_openblas_thread_controls())
    assert seen[0] == [1] * len(seen[0])


def test_serial_replications_run_one_blas_thread_and_restore_the_count():
    assert _openblas_thread_controls() is _openblas_thread_controls()
    before = _openblas_thread_counts()
    with _one_blas_thread() as pinned:
        assert _openblas_thread_counts() == [1] * pinned
    assert pinned == len(before)
    assert _openblas_thread_counts() == before
    seen, after = _counts_during_and_after_a_trial()
    assert seen == [[1] * pinned]
    assert after == before


def test_monte_carlo_rejects_zero_reps():
    with pytest.raises(InvalidInputError):
        monte_carlo(TrialConfig(), reps=0)


def _no_instance(*args, **kwargs):
    raise AssertionError("a replication ran")


@pytest.mark.parametrize("seed, reps", [(-1, 1), (2 ** 128 - 2, 3)])
def test_monte_carlo_rejects_seeds_before_any_replication(monkeypatch, seed, reps):
    monkeypatch.setattr(lassoagg.simulation, "generate_instance", _no_instance)
    with pytest.raises(InvalidInputError, match="seed"):
        monte_carlo(TrialConfig(seed=seed), reps=reps)


@pytest.mark.parametrize("config, message", [
    (TrialConfig(bound="soi"), "unknown bound"),
    (TrialConfig(sigma_mode="estimated"), "unknown sigma mode"),
    (TrialConfig(x=0.0), "x must be positive and finite"),
    (TrialConfig(x=-1.0), "x must be positive and finite"),
    (TrialConfig(x=math.inf), "x must be positive and finite"),
    (TrialConfig(x=math.nan), "x must be positive and finite"),
    (TrialConfig(x=1e308), "tail term"),
    # 22 * 7e306 is finite, 28 * 7e306 is not
    (TrialConfig(x=7e306, bound="oi_supports"), "tail term"),
])
def test_trials_reject_unknown_modes_before_generating_data(monkeypatch, config, message):
    monkeypatch.setattr(lassoagg.simulation, "generate_instance", _no_instance)
    with pytest.raises(InvalidInputError, match=message):
        monte_carlo(config, reps=2)
    with pytest.raises(InvalidInputError, match=message):
        run_oracle_trial(config)
