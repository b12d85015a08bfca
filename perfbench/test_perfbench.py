"""Tests of the benchmark's own checks, tracing and smoke mode.

Each check must pass on a real output of the toolkit and reject the same
output once it is corrupted.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import CheckError  # noqa: E402
from lassoagg.cli import main as cli_main  # noqa: E402
from lassoagg.path import compute_path  # noqa: E402
from lassoagg.pipelines import path_aggregate  # noqa: E402
from lassoagg.simulation import generate_instance  # noqa: E402
from lassoagg.solvers import sqrt_lasso  # noqa: E402


@pytest.fixture(scope="module")
def instance():
    return generate_instance(40, 60, 3, 1.0, seed=5)


@pytest.fixture(scope="module")
def q_case(instance):
    X, y = instance.X.entries, instance.y
    report = path_aggregate(X, y, 1.0, method="q")
    family = [T.indices for T in report.family]
    F = checks.fit_matrix(X, y, family)
    log_w = np.array([checks.log_inv_weight(X.shape[1], len(T)) for T in family])
    result = {"theta_hat": report.result.theta_hat.theta.tolist(),
              "mu_hat": report.result.mu_hat.tolist(),
              "objective": report.result.objective}
    return y, family, F, log_w, result


def test_q_result_passes(q_case):
    y, _, F, log_w, result = q_case
    checks.check_q_result(F, y, log_w, result, 1.0)


def _off_simplex(result):
    theta = np.array(result["theta_hat"])
    theta[0] += 0.05
    return {**result, "theta_hat": theta.tolist()}


def _negative_weight(result):
    theta = np.array(result["theta_hat"])
    j = int(np.argmax(theta))
    theta[j] += 0.1
    theta[(j + 1) % theta.size] -= 0.1
    return {**result, "theta_hat": theta.tolist()}


def _moved_vertex(result):
    # a valid simplex point that is not the optimum
    theta = np.zeros(len(result["theta_hat"]))
    theta[0] = 1.0
    return {**result, "theta_hat": theta.tolist(),
            "mu_hat": [0.0] * len(result["mu_hat"])}


def _wrong_mu(result):
    return {**result, "mu_hat": (np.array(result["mu_hat"]) + 1e-3).tolist()}


def _wrong_objective(result):
    return {**result, "objective": result["objective"] * (1.0 + 1e-6)}


@pytest.mark.parametrize("corrupt", [_off_simplex, _negative_weight, _moved_vertex,
                                     _wrong_mu, _wrong_objective])
def test_q_result_rejects_corruption(q_case, corrupt):
    y, _, F, log_w, result = q_case
    with pytest.raises(CheckError):
        checks.check_q_result(F, y, log_w, corrupt(result), 1.0)


@pytest.fixture(scope="module")
def crit_case(instance):
    X, y = instance.X.entries, instance.y
    report = path_aggregate(X, y, 1.0, method="crit")
    family = [T.indices for T in report.family]
    F = checks.fit_matrix(X, y, family)
    log_w = np.array([checks.log_inv_weight(X.shape[1], len(T)) for T in family])
    result = {"chosen": report.result.chosen.one_based(),
              "crit_value": report.result.crit_value,
              "mu_hat": report.result.mu_hat.tolist()}
    return y, family, F, log_w, result


def test_crit_result_passes(crit_case):
    y, family, F, log_w, result = crit_case
    checks.check_crit_result(F, y, family, log_w, result, 1.0)


def test_crit_result_rejects_wrong_support(crit_case):
    y, family, F, log_w, result = crit_case
    chosen = tuple(i - 1 for i in result["chosen"])
    other = next(T for T in family if T != chosen)
    j = family.index(other)
    wrong = {"chosen": [i + 1 for i in other],
             "crit_value": float(np.sum((y - F[:, j]) ** 2)
                                 + checks.CRIT_PENALTY * log_w[j]),
             "mu_hat": F[:, j].tolist()}
    with pytest.raises(CheckError):
        checks.check_crit_result(F, y, family, log_w, wrong, 1.0)


def test_path_kkt_passes_and_rejects_perturbed_beta(instance):
    X, y = instance.X.entries, instance.y
    path = compute_path(X, y)
    segments = [(s.hi, s.lo, s.active, s.a, s.b) for s in path.segments]
    assert checks.check_path_kkt(X, y, segments, path.lambda0) > 0
    k = next(i for i, s in enumerate(segments) if len(s[2]) >= 2)
    hi, lo, active, a, b = segments[k]
    bad = list(segments)
    bad[k] = (hi, lo, active, a * (1.0 + 1e-4), b)
    with pytest.raises(CheckError, match="KKT"):
        checks.check_path_kkt(X, y, bad, path.lambda0)


def test_sqrt_lasso_rejects_perturbed_beta():
    inst = generate_instance(60, 20, 3, 1.0, seed=2)
    X, y = inst.X.entries, inst.y
    lam = 0.5 * np.sqrt(np.log(20 / 0.01) / 60)
    fit = sqrt_lasso(X, y, lam)
    assert np.count_nonzero(fit.beta) > 0
    checks.check_sqrt_lasso(X, y, lam, fit.beta, fit.sigma_hat_sq)
    beta = fit.beta.copy()
    beta[np.argmax(np.abs(beta))] *= 1.01
    with pytest.raises(CheckError):
        checks.check_sqrt_lasso(X, y, lam, beta, fit.sigma_hat_sq)
    with pytest.raises(CheckError, match="sigma"):
        checks.check_sqrt_lasso(X, y, lam, fit.beta, fit.sigma_hat_sq * 1.001)


def test_family_and_bounds_reject_corruption():
    checks.check_family([(), (0,), (0, 2)])
    with pytest.raises(CheckError):
        checks.check_family([(0,), (0, 2)])
    with pytest.raises(CheckError):
        checks.check_family([(), (0,), (0,)])
    checks.check_oracle_bounds([0.1], [0.7], 1.0, 3.0, 100)
    with pytest.raises(CheckError):
        checks.check_oracle_bounds([-0.1], [0.7], 1.0, 3.0, 100)
    with pytest.raises(CheckError):
        checks.check_oracle_bounds([0.1], [0.5], 1.0, 3.0, 100)


def test_log_inv_weight_matches_closed_form():
    # p = 1: H_1 = (e - 1/e) / (e - 1); C(1, 1) = 1
    expected = np.log((np.e - np.exp(-1)) / (np.e - 1)) + 1.0
    assert checks.log_inv_weight(1, 1) == pytest.approx(expected, rel=1e-14)


def test_tracing_collects_worker_spans(tmp_path):
    """Replications in forked workers send their spans back."""
    tracer = tracing.Tracer()
    out = tmp_path / "sim.json"
    with tracing.installed(tracer):
        tracer.op = 0
        assert cli_main(["simulate", "--n", "30", "--p", "20", "--s", "2", "--sigma", "1",
                         "--reps", "4", "--threads", "2", "--out", str(out)]) == 0
    trials = [s for s in tracer.spans if s[3] == "lassoagg.simulation.run_oracle_trial"]
    assert len(trials) == 4
    assert any(s[6] != os.getpid() for s in trials)
    paths = [s for s in tracer.spans if s[3] == "lassoagg.path.compute_path"]
    assert len(paths) == 4 and all(s[7]["knots"] > 0 for s in paths)
    ops = [(0, 1.0, out.stat().st_size)]
    metrics = tracing.per_layer(tracer.spans, ops, 0.0, workers=2)
    assert metrics["simulation.trial_s"]["value"] > metrics["simulation.trial_self_s"]["value"] > 0
    # the wrappers are gone afterwards
    import lassoagg.simulation
    assert lassoagg.simulation.run_oracle_trial.__code__.co_name == "run_oracle_trial"


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["path-wide", "sqrt-lowdim", "mc-oracle"])
def test_smoke_runs_one_checked_operation(workload):
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0",
                 "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    names = {m["name"] for m in _benchmark_spec()["end_to_end"]}
    assert set(result["metrics"]) == names


def test_traced_smoke_reports_every_layer_metric():
    proc = _run(["--workload", "mc-oracle", "--seed", "0", "--seconds", "0", "--trace", "1",
                 "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    names = {m["name"] for m in _benchmark_spec()["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["path.knots"]["value"] > 0


def test_fails_without_the_toolkit_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "path-wide", "--seed", "0", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
