"""Acceptance suite: each test checks one release criterion end to end and
prints a PASS line (visible with pytest -s; a failure reads as the criterion
number).  Criteria 6-8 are Monte Carlo and take a few minutes combined."""

import json
import math

import numpy as np
import pytest

from lassoagg.aggregation import crit_select, precompute, q_aggregate
from lassoagg.cli import canonical_json, main, save_matrix_csv
from lassoagg.design import DesignMatrix, Support
from lassoagg.path import SupportFamily, compute_path, path_support_family
from lassoagg.pipelines import path_aggregate
from lassoagg.simulation import TrialConfig, monte_carlo
from lassoagg.solvers import lasso_cd
from lassoagg.weights import total_mass, verify_weight_bounds
from oracles import beta_at, exhaustive_spa, kkt_check, q_objective


def _report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def _simplex_grid_min(pre, s2, step=1e-3):
    """The point of the simplex grid {(t1, t2, 1 - t1 - t2)} with the given
    step that has the smallest Q-aggregation objective, found in one
    vectorised pass, and q_objective there."""
    t1 = np.arange(0.0, 1.0 + step / 2, step)
    t2 = [np.arange(0.0, 1.0 - t + step / 2, step) for t in t1]
    T1, T2 = np.repeat(t1, [t.size for t in t2]), np.concatenate(t2)
    theta = np.column_stack((T1, T2, 1.0 - T1 - T2))
    c = -2.0 * pre.y_dot + 0.5 * pre.fit_norms_sq + 26.0 * s2 * pre.log_inv_weights
    values = 0.5 * np.einsum("ij,jk,ik->i", theta, pre.gram, theta) + theta @ c
    return q_objective(theta[np.argmin(values)], pre, s2)


def test_criterion_01_weight_normalization():
    mass_ok = all(abs(total_mass(p) - 1.0) <= 1e-10 for p in range(1, 31))
    bounds_ok = all(verify_weight_bounds(p) for p in range(1, 65))
    _report(1, mass_ok and bounds_ok)


def test_criterion_02_lasso_kkt_and_soft_threshold():
    rng = np.random.default_rng(100)
    ok = True
    for _ in range(50):
        n = int(rng.integers(8, 31))
        p = int(rng.integers(2, 16))
        Xm = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        X = DesignMatrix(Xm)
        lam0 = np.max(np.abs(Xm.T @ y)) / n
        lam = lam0 * float(rng.uniform(0.05, 0.9))
        fit = lasso_cd(X, y, lam, tol=1e-10)
        ok &= fit.converged and kkt_check(X, y, lam, fit.beta, tol=1e-7).ok
    for seed in range(5):
        rng2 = np.random.default_rng(seed)
        n = 12
        Q, _ = np.linalg.qr(rng2.standard_normal((n, n)))
        Xm = math.sqrt(n) * Q[:, :8]
        y = rng2.standard_normal(n)
        z = Xm.T @ y / n
        lam = 0.6 * np.max(np.abs(z))
        beta = lasso_cd(DesignMatrix(Xm), y, lam, tol=1e-13).beta
        closed = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
        ok &= bool(np.allclose(beta, closed, atol=1e-8))
    _report(2, ok)


def test_criterion_03_path_matches_descent_at_midpoints():
    rng = np.random.default_rng(200)
    ok = True
    for _ in range(30):
        n = int(rng.integers(10, 26))
        p = int(rng.integers(3, 11))
        Xm = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        X = DesignMatrix(Xm)
        path = compute_path(X, y)
        for seg in path.segments:
            lam = 0.5 * (seg.hi + seg.lo)
            fit = lasso_cd(X, y, lam, tol=1e-15, max_iter=300_000)
            ok &= bool(np.allclose(fit.beta, beta_at(path, lam), atol=1e-7))
            ok &= Support.from_beta(fit.beta) == seg.support
        for hi, lo in zip(path.knots, path.knots[1:]):
            mid = 0.5 * (hi + lo)
            avg = 0.5 * (beta_at(path, hi) + beta_at(path, lo))
            ok &= bool(np.allclose(beta_at(path, mid), avg, atol=1e-9))
    _report(3, ok)


def test_criterion_04_qp_matches_brute_force():
    rng = np.random.default_rng(300)
    ok = True
    for trial in range(5):
        Xm = rng.standard_normal((14, 5))
        y = rng.standard_normal(14)
        s2 = float(rng.uniform(0.1, 1.0))
        fam3 = SupportFamily.from_supports(
            [Support((0,)), Support((1, 2)), Support((3, 4))], include_empty=False)
        pre = precompute(DesignMatrix(Xm), y, fam3)
        res = q_aggregate(pre, s2)
        ok &= res.converged
        ok &= res.fw_gap <= 1e-8 * (1.0 + abs(res.objective))
        best = _simplex_grid_min(pre, s2)
        ok &= abs(res.objective - best) <= 1e-6

        fam2 = SupportFamily.from_supports([Support((0, 1)), Support((2, 3))],
                                           include_empty=False)
        pre2 = precompute(DesignMatrix(Xm), y, fam2)
        res2 = q_aggregate(pre2, s2)
        G, c = pre2.gram, (-2.0 * pre2.y_dot + 0.5 * pre2.fit_norms_sq
                           + 26.0 * s2 * pre2.log_inv_weights)
        A = 0.5 * (G[0, 0] - 2 * G[0, 1] + G[1, 1])
        B = G[0, 1] - G[1, 1] + c[0] - c[1]
        C = 0.5 * G[1, 1] + c[1] + pre2.y_norm_sq
        t = 0.5 if A == 0 else min(1.0, max(0.0, -B / (2 * A)))
        ok &= abs(res2.objective - (A * t * t + B * t + C)) <= 1e-8
    _report(4, ok)


def test_criterion_05_exhaustive_family_domination():
    rng = np.random.default_rng(400)
    ok = True
    for _ in range(5):
        n = int(rng.integers(12, 25))
        p = int(rng.integers(4, 9))
        Xm = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        X = DesignMatrix(Xm)
        s2 = float(rng.uniform(0.2, 1.0))
        ex = exhaustive_spa(X, y, s2)
        report = path_aggregate(X, y, s2, method="q")
        ok &= ex.objective <= report.result.objective + 1e-8
        pre = precompute(X, y, report.family)
        for k in range(len(report.family)):
            e = np.zeros(len(report.family))
            e[k] = 1.0
            ok &= report.result.objective <= q_objective(e, pre, s2) + 1e-8
    _report(5, ok)


def test_criterion_06_oracle_inequality_path_bound():
    cfg = TrialConfig(n=100, p=200, s=5, sigma=1.0, x=3.0, method="q",
                      bound="soi_path", sigma_mode="known", seed=0)
    report = monte_carlo(cfg, reps=200, parallelism=4)
    print(f"criterion 6 held rate: {report['held_rate']:.3f}")
    _report(6, report["held_rate"] >= 0.85)


def test_criterion_07_oracle_inequality_crit_bound():
    cfg = TrialConfig(n=100, p=200, s=5, sigma=1.0, x=3.0, method="crit",
                      bound="oi_supports", sigma_mode="known", seed=0)
    report = monte_carlo(cfg, reps=200, parallelism=4)
    print(f"criterion 7 held rate: {report['held_rate']:.3f}")
    _report(7, report["held_rate"] >= 0.85)


def test_criterion_08_orthonormal_expectation_bound():
    n = p = 64
    s = 4
    cfg = TrialConfig(n=n, p=p, s=s, sigma=1.0, x=1.0, method="q",
                      bound="soi_supports", sigma_mode="known", seed=0,
                      design_kind="orthonormal")
    report = monte_carlo(cfg, reps=200, parallelism=4)
    bound = (176.0 * s * math.log(p)) / n + 384.0 * s / n + 90.0 / n
    print(f"criterion 8 mean loss {report['mean_lhs']:.4f} vs bound {bound:.4f}")
    _report(8, report["mean_lhs"] <= bound)


def test_criterion_09_pipeline_determinism(tmp_path):
    rng = np.random.default_rng(900)
    Xm = rng.standard_normal((25, 8))
    y = rng.standard_normal(25)
    xpath, ypath = tmp_path / "x.csv", tmp_path / "y.csv"
    save_matrix_csv(str(xpath), Xm)
    save_matrix_csv(str(ypath), y.reshape(-1, 1))

    results = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["aggregate", "--x", str(xpath), "--y", str(ypath),
                     "--sigma", "1.0", "--out", str(out)]) == 0
        results.append(canonical_json(json.loads(out.read_text())["results"]))
    ok = results[0] == results[1]

    sim = ["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "0.5",
           "--reps", "4", "--seed", "3"]
    sims = []
    for threads, name in (("1", "t1.json"), ("4", "t4.json")):
        out = tmp_path / name
        assert main(sim + ["--threads", threads, "--out", str(out)]) == 0
        sims.append(canonical_json(json.loads(out.read_text())["results"]))
    ok &= sims[0] == sims[1]
    _report(9, ok)


def test_criterion_10_degenerate_inputs():
    ok = True
    # zero response: empty path, zero aggregate
    rep = path_aggregate(np.eye(4), np.zeros(4), 1.0)
    ok &= rep.family.supports == (Support(()),)
    ok &= bool(np.all(rep.result.mu_hat == 0.0))

    # signal-free simulation instance runs end to end
    cfg = TrialConfig(n=20, p=8, s=0, sigma=1.0, seed=1)
    check = monte_carlo(cfg, reps=2)
    ok &= check["reps"] == 2

    # duplicated columns on the path
    rng = np.random.default_rng(1000)
    col = rng.standard_normal(12)
    Xm = np.column_stack([col, col, rng.standard_normal((12, 3))])
    y = rng.standard_normal(12)
    path = compute_path(DesignMatrix(Xm), y)
    ok &= path.knots.size >= 1
    ok &= all(not {0, 1} <= set(T.indices) for T in path.supports)

    # penalty above lambda_0: null fit
    X = DesignMatrix(Xm)
    lam0 = np.max(np.abs(Xm.T @ y)) / 12
    ok &= bool(np.all(lasso_cd(X, y, 2.0 * lam0, tol=1e-12).beta == 0.0))

    # zero variance estimate: both aggregates run, crit prefers the best fit
    fam = path_support_family(path)
    pre = precompute(X, y, fam)
    q0 = q_aggregate(pre, 0.0)
    c0 = crit_select(pre, 0.0)
    ok &= q0.converged
    resid = [pre.y_norm_sq - pre.gram[j, j] for j in range(len(fam))]
    ok &= c0.crit_value == pytest.approx(min(resid), abs=1e-8)
    _report(10, ok)
