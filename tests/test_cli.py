import dataclasses
import json

import numpy as np
import pytest

import lassoagg.cli
import lassoagg.path
import lassoagg.pipelines
import lassoagg.simulation
from lassoagg.cli import (ParseError, canonical_json, load_matrix_csv,
                          load_vector_csv, main, save_matrix_csv)
from lassoagg.path import compute_path
from lassoagg.simulation import generate_instance
from lassoagg.solvers import SUPPORT_THRESH


@pytest.fixture
def data_files(tmp_path):
    rng = np.random.default_rng(0)
    Xm = rng.standard_normal((20, 5))
    beta = np.zeros(5)
    beta[0] = 2.0
    y = Xm @ beta + 0.3 * rng.standard_normal(20)
    xpath = tmp_path / "x.csv"
    ypath = tmp_path / "y.csv"
    save_matrix_csv(str(xpath), Xm)
    save_matrix_csv(str(ypath), y.reshape(-1, 1))
    return str(xpath), str(ypath), Xm, y


def test_matrix_csv_round_trip(tmp_path, data_files):
    xpath, ypath, Xm, y = data_files
    assert np.array_equal(load_matrix_csv(xpath).entries, Xm)
    assert np.array_equal(load_vector_csv(ypath), y)


def test_csv_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError, match=r"bad\.csv:2.*column 2"):
        load_matrix_csv(str(bad))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match=r"ragged\.csv:2.*ragged"):
        load_matrix_csv(str(ragged))

    inf = tmp_path / "inf.csv"
    inf.write_text("1.0\ninf\n")
    with pytest.raises(ParseError, match=r"inf\.csv:2.*non-finite"):
        load_vector_csv(str(inf))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_vector_csv(str(empty))

    with pytest.raises(ParseError, match="cannot open"):
        load_vector_csv(str(tmp_path / "missing.csv"))


def test_header_row_skipped(tmp_path):
    f = tmp_path / "h.csv"
    f.write_text("value\n1.5\n2.5\n")
    assert load_vector_csv(str(f), header=True).tolist() == [1.5, 2.5]


def test_canonical_json_is_sorted_and_exact():
    text = canonical_json({"b": 0.1, "a": np.float64(1.0 / 3.0)})
    assert text == '{"a":0.3333333333333333,"b":0.1}'
    # floats survive a round trip exactly
    assert json.loads(text)["a"] == 1.0 / 3.0


def test_path_command_writes_report(tmp_path, data_files, capsys):
    xpath, ypath, *_ = data_files
    out = tmp_path / "report.json"
    pcsv = tmp_path / "path.csv"
    code = main(["path", "--x", xpath, "--y", ypath, "--out", str(out),
                 "--path-csv", str(pcsv)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == "1"
    assert report["config"]["command"] == "path"
    assert len(report["results"]["knots"]) >= 1
    # supports are reported with 1-based indices
    flat = [j for T in report["results"]["supports"] for j in T]
    assert flat and min(flat) >= 1 and max(flat) <= 5
    rows = load_matrix_csv(str(pcsv))
    assert rows.entries.shape[1] == 3


def test_aggregate_command_q_and_crit(tmp_path, data_files):
    xpath, ypath, *_ = data_files
    for method in ("q", "crit"):
        out = tmp_path / f"agg_{method}.json"
        code = main(["aggregate", "--x", xpath, "--y", ypath, "--method", method,
                     "--sigma", "0.09", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["result"]["kind"] == method
        assert report["results"]["sigma_hat_sq"] == 0.09


def test_path_csv_support_size_uses_threshold(tmp_path):
    inst = generate_instance(60, 120, 5, 1.0, seed=3)
    xpath, ypath, pcsv = (str(tmp_path / f) for f in ("x.csv", "y.csv", "path.csv"))
    save_matrix_csv(xpath, inst.X.entries)
    save_matrix_csv(ypath, inst.y.reshape(-1, 1))
    assert main(["path", "--x", xpath, "--y", ypath, "--path-csv", pcsv,
                 "--out", str(tmp_path / "r.json")]) == 0
    rows = load_matrix_csv(pcsv).entries
    path = compute_path(load_matrix_csv(xpath), load_vector_csv(ypath))
    sizes = [int(np.sum(np.abs(path.beta_at(float(lam))) > SUPPORT_THRESH))
             for lam in path.knots]
    assert rows[:, 2].tolist() == sizes


SOLVER_COMMANDS = [["aggregate", "--sigma", "0.09"], ["sqrt-pipeline", "--grid-size", "5"]]


@pytest.mark.parametrize("command", SOLVER_COMMANDS)
def test_nonpositive_tol_gap_exits_2(data_files, command, capsys):
    xpath, ypath, *_ = data_files
    code = main([command[0], "--x", xpath, "--y", ypath, *command[1:],
                 "--tol-gap", "0"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("command", SOLVER_COMMANDS)
def test_tol_gap_with_crit_exits_2(data_files, command, capsys):
    xpath, ypath, *_ = data_files
    code = main([command[0], "--x", xpath, "--y", ypath, *command[1:],
                 "--method", "crit", "--tol-gap", "1e-6"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("module, command, stalled_call", [
    (lassoagg.pipelines, ["aggregate", "--sigma-mode", "sqrt_lasso"], 0),
    (lassoagg.pipelines, ["sqrt-pipeline", "--grid-size", "5"], 0),  # the sigma fit
    (lassoagg.pipelines, ["sqrt-pipeline", "--grid-size", "5"], 3),  # a grid fit
])
def test_unconverged_sqrt_lasso_exits_3(tmp_path, data_files, monkeypatch,
                                        module, command, stalled_call):
    xpath, ypath, *_ = data_files
    argv = [command[0], "--x", xpath, "--y", ypath, *command[1:]]
    ok = tmp_path / "ok.json"
    assert main(argv + ["--out", str(ok)]) == 0

    real = module.sqrt_lasso
    calls = []

    def stalled(*args, **kwargs):
        fit = real(*args, **kwargs)
        calls.append(None)
        return dataclasses.replace(fit, converged=len(calls) - 1 != stalled_call)

    monkeypatch.setattr(module, "sqrt_lasso", stalled)
    out = tmp_path / "stalled.json"
    assert main(argv + ["--out", str(out)]) == 3
    # the report is still written and its results carry no extra key
    assert json.loads(out.read_text())["results"].keys() == \
        json.loads(ok.read_text())["results"].keys()


def test_threads_only_on_simulate(data_files):
    xpath, ypath, *_ = data_files
    with pytest.raises(SystemExit) as exc:
        main(["aggregate", "--x", xpath, "--y", ypath, "--sigma", "1", "--threads", "2"])
    assert exc.value.code == 2


def test_aggregate_requires_sigma_in_known_mode(data_files, capsys):
    xpath, ypath, *_ = data_files
    code = main(["aggregate", "--x", xpath, "--y", ypath])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInputError"
    assert "--sigma" in err["message"]


def test_sqrt_pipeline_command(tmp_path, data_files):
    xpath, ypath, *_ = data_files
    out = tmp_path / "sqrt.json"
    code = main(["sqrt-pipeline", "--x", xpath, "--y", ypath,
                 "--grid-size", "5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["results"]["grid_meta"]["grid"]) == 5
    assert report["results"]["sigma_hat_sq"] > 0


def test_degenerate_variance_exits_2(tmp_path, capsys):
    xpath = tmp_path / "x.csv"
    ypath = tmp_path / "y.csv"
    xpath.write_text("1.0\n0.0\n")
    ypath.write_text("3.0\n0.0\n")
    code = main(["sqrt-pipeline", "--x", str(xpath), "--y", str(ypath)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DegenerateVarianceError"


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnope\n")
    code = main(["path", "--x", str(bad), "--y", str(bad)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_simulate_command_and_thread_invariance(tmp_path):
    args = ["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "0.5",
            "--reps", "3", "--seed", "7"]
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(args + ["--threads", "4", "--out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    # the results section is identical regardless of parallelism
    assert canonical_json(r1["results"]) == canonical_json(r2["results"])
    assert r1["results"]["reps"] == 3
    assert len(r1["results"]["lhs"]) == 3


def test_results_section_byte_stable(tmp_path, data_files):
    xpath, ypath, *_ = data_files
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["aggregate", "--x", xpath, "--y", ypath, "--sigma", "0.09",
              "--out", str(out)])
        outs.append(json.loads(out.read_text()))
    assert canonical_json(outs[0]["results"]) == canonical_json(outs[1]["results"])
    assert canonical_json(outs[0]["config"]) == canonical_json(outs[1]["config"])


def test_weights_command_stdout(capsys):
    assert main(["weights", "--p", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["bounds_hold"] is True
    assert report["results"]["total_mass"] == pytest.approx(1.0, abs=1e-10)
    assert len(report["results"]["log_inv_weight_by_size"]) == 7


@pytest.mark.parametrize("x_level", ["0", "-5"])
@pytest.mark.parametrize("bound", ["soi_path", "soi_supports", "oi_supports"])
def test_simulate_rejects_nonpositive_x(x_level, bound, capsys):
    code = main(["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "0.5",
                 "--reps", "2", "--x", x_level, "--bound", bound])
    assert code == 2
    assert "x must be positive" in json.loads(capsys.readouterr().err)["message"]


def test_sigma_rejected_with_sqrt_lasso_mode(data_files, capsys):
    xpath, ypath, *_ = data_files
    code = main(["aggregate", "--x", xpath, "--y", ypath, "--sigma-mode", "sqrt_lasso",
                 "--sigma", "123"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInputError"
    assert "--sigma" in err["message"]


@pytest.mark.parametrize("argv, data_sets", [
    (["aggregate", "--sigma-mode", "sqrt_lasso"], 1),
    (["sqrt-pipeline", "--grid-size", "5"], 1),
    (["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "0.5", "--reps", "3",
      "--sigma-mode", "sqrt_lasso"], 3),
])
def test_one_path_per_data_set(tmp_path, data_files, monkeypatch, argv, data_sets):
    xpath, ypath, *_ = data_files
    if argv[0] != "simulate":
        argv = [argv[0], "--x", xpath, "--y", ypath, *argv[1:]]
    real = lassoagg.path.compute_path
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for module in (lassoagg.path, lassoagg.pipelines, lassoagg.simulation, lassoagg.cli):
        monkeypatch.setattr(module, "compute_path", counted)
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == data_sets
