import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import lassoagg.cli
import lassoagg.path
import lassoagg.pipelines
import lassoagg.simulation
from lassoagg.cli import (ParseError, canonical_json, load_matrix_csv,
                          load_vector_csv, main, save_matrix_csv)
from lassoagg.design import SUPPORT_THRESH
from lassoagg.errors import InvalidInputError
from lassoagg.path import _openblas_thread_controls, compute_path
from lassoagg.simulation import _one_blas_thread, generate_instance
from oracles import beta_at
from test_simulation import _openblas_thread_counts


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

    nan = tmp_path / "nan.csv"
    nan.write_text("1.0,2.0,3.0\n4.0,5.0, nan\n")
    with pytest.raises(ParseError) as exc:
        load_matrix_csv(str(nan))
    assert str(exc.value) == f"{nan}:2: non-finite value in column 3: ' nan'"

    # blank lines count towards the line number
    blank = tmp_path / "blank.csv"
    blank.write_text("1.0,2.0\n\n\n3.0,x\n")
    with pytest.raises(ParseError) as exc:
        load_matrix_csv(str(blank))
    assert str(exc.value) == f"{blank}:4: non-numeric cell in column 2: 'x'"

    # the reader accepts quoted and padded numbers, and finite cells whose
    # sum overflows; the design matrix then rejects columns whose squared
    # norms overflow
    good = tmp_path / "good.csv"
    good.write_text('"1.5",2\n 1.5 ,\t-3e-2\n1e308,1e308\n')
    assert lassoagg.cli._load_table(str(good), False, False).tolist() == [
        [1.5, 2.0], [1.5, -0.03], [1e308, 1e308]]
    with pytest.raises(InvalidInputError, match="squared norm overflows"):
        load_matrix_csv(str(good))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_vector_csv(str(empty))

    with pytest.raises(ParseError, match="cannot open"):
        load_vector_csv(str(tmp_path / "missing.csv"))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_csv_from_a_pipe_is_read_once(tmp_path):
    read_end, write_end = os.pipe()
    os.write(write_end, b"1.0\nx\n")
    os.close(write_end)
    try:
        with pytest.raises(ParseError) as exc:
            load_vector_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert str(exc.value) == f"/dev/fd/{read_end}:2: non-numeric cell in column 1: 'x'"


def test_valid_numeric_files_never_reach_the_python_reader(tmp_path, monkeypatch):
    calls = []
    read_rows = lassoagg.cli._read_rows
    monkeypatch.setattr(lassoagg.cli, "_read_rows",
                        lambda *args: calls.append(args) or read_rows(*args))
    cases = [
        (load_matrix_csv, "1.5,2\r\n3,4\r\n", False, [[1.5, 2.0], [3.0, 4.0]]),
        (load_matrix_csv, '"1.5","2"\n3,"4"\n', False, [[1.5, 2.0], [3.0, 4.0]]),
        (load_matrix_csv, "1.5, 2\n3,  4\n", False, [[1.5, 2.0], [3.0, 4.0]]),
        (load_matrix_csv, "a,b\n1.5,2\n3,4\n", True, [[1.5, 2.0], [3.0, 4.0]]),
        (load_vector_csv, "1.5\n-2\n", False, [1.5, -2.0]),
        (load_vector_csv, "y\n1.5\n-2\n", True, [1.5, -2.0]),
    ]
    for i, (load, text, header, expected) in enumerate(cases):
        f = tmp_path / f"{i}.csv"
        f.write_bytes(text.encode())
        out = load(str(f), header)
        assert (out if load is load_vector_csv else out.entries).tolist() == expected
    assert calls == []
    # a spelling that only float reads is left to the Python reader
    f = tmp_path / "underscore.csv"
    f.write_text("1_0\n2\n")
    assert load_vector_csv(str(f)).tolist() == [10.0, 2.0]
    assert calls == [(str(f), False)]


def test_python_reader_errors_on_spellings_only_float_reads(tmp_path):
    cases = [
        (load_matrix_csv, "1_0,x\n", "1: non-numeric cell in column 2: 'x'"),
        (load_matrix_csv, "1_0,inf\n", "1: non-finite value in column 2: 'inf'"),
        (load_matrix_csv, "1_0,2\n3\n", "2: ragged row (1 cells, expected 2)"),
        (load_vector_csv, "1_0,2\n", "1: expected a single column, got 2"),
    ]
    for i, (load, text, message) in enumerate(cases):
        f = tmp_path / f"{i}.csv"
        f.write_text(text)
        with pytest.raises(ParseError) as exc:
            load(str(f))
        assert str(exc.value) == f"{f}:{message}"


def test_save_matrix_csv_golden_bytes(tmp_path):
    f = tmp_path / "m.csv"
    save_matrix_csv(str(f), [[1.0, -0.0], [1e-05, 3.0]])
    assert f.read_bytes() == b"1.0,-0.0\r\n1e-05,3.0\r\n"
    save_matrix_csv(str(f), np.array([2.5, 5e-324]))
    assert f.read_bytes() == b"2.5,5e-324\r\n"


def test_header_row_skipped(tmp_path):
    f = tmp_path / "h.csv"
    f.write_text("value\n1.5\n2.5\n")
    assert load_vector_csv(str(f), header=True).tolist() == [1.5, 2.5]


def test_canonical_json_is_sorted_and_exact():
    text = canonical_json({"b": 0.1, "a": np.float64(1.0 / 3.0)})
    assert text == '{"a":0.3333333333333333,"b":0.1}'
    # floats survive a round trip exactly
    assert json.loads(text)["a"] == 1.0 / 3.0


def test_canonical_json_rejects_unknown_objects():
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json({"a": [object()]})


@pytest.mark.parametrize("argv", [
    ["weights", "--p", "5", "--out", "{missing}/r.json"],
    ["path", "--x", "{x}", "--y", "{y}", "--path-csv", "{missing}/p.csv"],
])
def test_unwritable_output_exits_2(tmp_path, data_files, argv, capsys):
    xpath, ypath, *_ = data_files
    missing = tmp_path / "missing"
    argv = [a.format(missing=missing, x=xpath, y=ypath) for a in argv]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutputError"
    assert err["message"].startswith(f"cannot open {missing}/")


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
                     "--sigma", "0.3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["result"]["kind"] == method
        assert report["results"]["sigma_hat_sq"] == 0.09


def test_aggregate_sigma_is_the_standard_deviation(tmp_path, data_files):
    xpath, ypath, *_ = data_files
    out = tmp_path / "agg.json"
    assert main(["aggregate", "--x", xpath, "--y", ypath, "--sigma", "0.5",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["sigma_hat_sq"] == 0.25
    assert report["config"]["sigma"] == 0.5


def test_path_csv_support_size_uses_threshold(tmp_path):
    inst = generate_instance(60, 120, 5, 1.0, seed=3)
    xpath, ypath, pcsv = (str(tmp_path / f) for f in ("x.csv", "y.csv", "path.csv"))
    save_matrix_csv(xpath, inst.X.entries)
    save_matrix_csv(ypath, inst.y.reshape(-1, 1))
    assert main(["path", "--x", xpath, "--y", ypath, "--path-csv", pcsv,
                 "--out", str(tmp_path / "r.json")]) == 0
    rows = load_matrix_csv(pcsv).entries
    y = load_vector_csv(ypath)
    path = compute_path(load_matrix_csv(xpath), y)
    sizes = [int(np.sum(np.abs(beta_at(path, float(lam))) > SUPPORT_THRESH))
             for lam in path.knots]
    assert rows[:, 2].tolist() == sizes
    losses = [float(np.sum((y - (seg.fit - lam * seg.slope)) ** 2)) / y.size
              for lam, seg in path.knot_segments()]
    assert rows[:, 1].tolist() == losses
    assert rows[:, 0].tolist() == path.knots.tolist()


def test_path_csv_of_a_zero_response_is_empty(tmp_path):
    # an empty path has no knot, so the file has no row
    xpath, ypath, pcsv = (str(tmp_path / f) for f in ("x.csv", "y.csv", "path.csv"))
    save_matrix_csv(xpath, np.arange(12.0).reshape(4, 3))
    save_matrix_csv(ypath, np.zeros((4, 1)))
    assert main(["path", "--x", xpath, "--y", ypath, "--path-csv", pcsv,
                 "--out", str(tmp_path / "r.json")]) == 0
    with open(pcsv, "rb") as fh:
        assert fh.read() == b""


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


def test_unconverged_qp_exits_3(tmp_path, data_files, monkeypatch):
    xpath, ypath, *_ = data_files
    argv = ["aggregate", "--x", xpath, "--y", ypath, "--sigma", "0.3", "--method", "q"]
    ok = tmp_path / "ok.json"
    assert main(argv + ["--out", str(ok)]) == 0

    real = lassoagg.pipelines.q_aggregate

    def stalled(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(lassoagg.pipelines, "q_aggregate", stalled)
    out = tmp_path / "stalled.json"
    assert main(argv + ["--out", str(out)]) == 3
    # the report is still written, with the solver's verdict in it
    results = json.loads(out.read_text())["results"]
    assert results["result"]["converged"] is False
    assert results.keys() == json.loads(ok.read_text())["results"].keys()


def test_a_square_root_lasso_root_below_the_floor_exits_3(tmp_path):
    # the roots at the smallest grid penalties lie below the path's floor,
    # where the residual of this n > p design has not collapsed
    inst = generate_instance(30, 20, 3, 1.0, seed=1)
    xpath, ypath, out = (str(tmp_path / name) for name in ("x.csv", "y.csv", "r.json"))
    save_matrix_csv(xpath, inst.X.entries)
    save_matrix_csv(ypath, inst.y.reshape(-1, 1))
    argv = ["sqrt-pipeline", "--x", xpath, "--y", ypath, "--lambda-min", "1e-8"]
    assert main(argv + ["--out", out]) == 3
    assert json.loads(open(out).read())["results"]["sigma_hat_sq"] > 0.0


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


def test_undecodable_csv_exits_2_naming_the_file(tmp_path, data_files, capsys):
    xpath, *_ = data_files
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"1\n\xe9\n")
    assert main(["path", "--x", xpath, "--y", str(latin1)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["message"].startswith(f"{latin1}: not utf-8 text")


@pytest.mark.parametrize("argv, x, y, message", [
    (["path"], "1e308,1e308\n1,2\n3,5\n", "1\n2\n4\n",
     "design matrix has a column whose squared norm overflows"),
    (["aggregate", "--sigma", "1"], "1,0\n0,1\n1,1\n", "1e308\n1\n2\n",
     "response's squared norm overflows"),
])
def test_finite_inputs_whose_squares_overflow_exit_2(tmp_path, capsys, argv, x, y, message):
    (tmp_path / "x.csv").write_text(x)
    (tmp_path / "y.csv").write_text(y)
    assert main(argv + ["--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        json.dumps({"error": "InvalidInputError", "message": message})]


PENALTY_OVERFLOWS = "the penalty 26 * sigma_hat_sq * log(1/weight) overflows"


@pytest.mark.parametrize("argv, scale, code", [
    (["aggregate", "--sigma", "1e154"], 1.0, 2),
    (["aggregate", "--sigma", "1e154", "--method", "crit"], 1.0, 2),
    (["aggregate", "--sigma", "1e150"], 1.0, 0),
    (["aggregate", "--sigma", "1e150", "--method", "crit"], 1.0, 0),
    # ||y||^2 = 8.5e307 is finite, but sigma_hat^2 * log(1/w) overflows
    (["aggregate", "--sigma-mode", "sqrt_lasso"], 1e153, 2),
    (["aggregate", "--sigma-mode", "sqrt_lasso", "--method", "crit"], 1e153, 2),
    (["sqrt-pipeline"], 1e153, 2),
    (["sqrt-pipeline", "--method", "crit"], 1e153, 2),
])
def test_a_penalty_that_overflows_exits_2_without_a_warning(tmp_path, capsys, argv, scale, code):
    rng = np.random.default_rng(0)
    Xm = rng.standard_normal((20, 8))
    y = 2.0 * Xm[:, 0] + rng.standard_normal(20)
    save_matrix_csv(str(tmp_path / "x.csv"), Xm)
    save_matrix_csv(str(tmp_path / "y.csv"), (scale * y).reshape(-1, 1))
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                            "--out", str(out)]) == code
    assert caught == []
    if code == 2:
        assert capsys.readouterr().err.splitlines() == [
            json.dumps({"error": "InvalidInputError", "message": PENALTY_OVERFLOWS})]
    else:
        assert json.loads(out.read_text())["results"]["sigma_hat_sq"] == 1e150 ** 2


@pytest.mark.parametrize("method, y_norm_sq, code", [
    # -2 y^T P_T y overflows for the fits near y
    ("q", 1.5e308, 2),
    ("q", 8.5e307, 0),
    ("crit", 1.5e308, 0),
    ("crit", 8.5e307, 0),
])
def test_q_coefficients_that_overflow_exit_2_without_a_warning(tmp_path, capsys, method,
                                                               y_norm_sq, code):
    rng = np.random.default_rng(0)
    Xm = rng.standard_normal((20, 8))
    y = Xm @ rng.standard_normal(8) + 0.01 * rng.standard_normal(20)
    save_matrix_csv(str(tmp_path / "x.csv"), Xm)
    save_matrix_csv(str(tmp_path / "y.csv"), (y * np.sqrt(y_norm_sq / (y @ y))).reshape(-1, 1))
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["aggregate", "--sigma", "1", "--method", method,
                     "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                     "--out", str(out)]) == code
    assert caught == []
    if code == 2:
        assert capsys.readouterr().err.splitlines() == [json.dumps(
            {"error": "InvalidInputError", "message": "the Q-aggregation objective overflows"})]
    else:
        assert json.loads(out.read_text())["results"]["method"] == method


@pytest.mark.parametrize("sigma, code", [("2.1e153", 2), ("1e150", 0)])
def test_a_q_objective_that_overflows_exits_2_without_a_warning(tmp_path, capsys, sigma, code):
    # y is almost orthogonal to the one column, so the coefficients are
    # finite, but every vertex's ||y - P_T y||^2 + 26 sigma^2 log(1/w_T) overflows
    rng = np.random.default_rng(1)
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    y += (1e-3 - (x @ y) / (x @ x)) * x
    save_matrix_csv(str(tmp_path / "x.csv"), x.reshape(-1, 1))
    save_matrix_csv(str(tmp_path / "y.csv"), (y * np.sqrt(1.5e308 / (y @ y))).reshape(-1, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["aggregate", "--sigma", sigma, "--x", str(tmp_path / "x.csv"),
                     "--y", str(tmp_path / "y.csv"), "--out", str(tmp_path / "r.json")]) == code
    assert caught == []
    if code == 2:
        assert capsys.readouterr().err.splitlines() == [json.dumps(
            {"error": "InvalidInputError", "message": "the Q-aggregation objective overflows"})]


def test_simulate_with_a_tail_term_that_overflows_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(lassoagg.simulation, "generate_instance", None)
    assert main(["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "1",
                 "--reps", "2", "--x-level", "1e308"]) == 2
    assert capsys.readouterr().err.splitlines() == [json.dumps(
        {"error": "InvalidInputError",
         "message": "the bound's tail term tail * sigma^2 * x / n overflows"})]


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


def test_simulate_results_do_not_depend_on_pinned_workers(tmp_path):
    # replication 107 comes out differently with one and two BLAS threads
    args = ["simulate", "--n", "100", "--p", "200", "--s", "5", "--sigma", "1",
            "--reps", "2", "--seed", "106"]
    results, pinned = [], []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"t{threads}.json"
        assert main(args + ["--threads", threads, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        results.append(canonical_json(report["results"]))
        pinned.append(report["environment"]["pinned_blas_libraries"])
    assert results[0] == results[1] == results[2]
    # every replication runs with one thread in each OpenBLAS library
    assert pinned == 3 * [len(_openblas_thread_controls())]


@pytest.mark.parametrize("n, p", [("0", "3"), ("3", "0")])
def test_simulate_rejects_an_empty_design(n, p, capsys):
    code = main(["simulate", "--n", n, "--p", p, "--s", "0", "--sigma", "1", "--reps", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "design matrix must have n >= 1 and p >= 1"


def test_results_section_byte_stable(tmp_path, data_files):
    xpath, ypath, *_ = data_files
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["aggregate", "--x", xpath, "--y", ypath, "--sigma", "0.3",
              "--out", str(out)])
        outs.append(json.loads(out.read_text()))
    assert canonical_json(outs[0]["results"]) == canonical_json(outs[1]["results"])
    assert canonical_json(outs[0]["config"]) == canonical_json(outs[1]["config"])


@pytest.mark.parametrize("argv, golden", [
    (["path", "--x", "x.csv", "--y", "y.csv", "--header", "--max-knots", "6",
      "--path-csv", "p.csv"],
     '{"command":"path","max_knots":6,"x":"x.csv","y":"y.csv"}'),
    (["aggregate", "--x", "x.csv", "--y", "y.csv", "--method", "crit", "--sigma", "0.5"],
     '{"command":"aggregate","max_knots":null,"method":"crit","sigma":0.5,'
     '"sigma_mode":"known","x":"x.csv","y":"y.csv"}'),
    (["sqrt-pipeline", "--x", "x.csv", "--y", "y.csv", "--grid-size", "5",
      "--grid-mode", "paper-literal"],
     '{"command":"sqrt-pipeline","grid_mode":"paper-literal","grid_size":5,'
     '"lambda_min":null,"method":"q","x":"x.csv","y":"y.csv"}'),
    (["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "0.5", "--reps", "2",
      "--threads", "1", "--x", "2.5", "--bound", "oi_supports"],
     '{"bound":"oi_supports","command":"simulate","design":"iid_gaussian","method":"q",'
     '"n":20,"p":6,"reps":2,"rho":0.5,"s":1,"seed":0,"sigma":0.5,"sigma_mode":"known",'
     '"x_level":2.5}'),
    (["weights", "--p", "6"], '{"command":"weights","p":6}'),
])
def test_config_echoes_the_parsed_arguments_but_io_and_execution(tmp_path, data_files,
                                                                 monkeypatch, argv, golden):
    monkeypatch.chdir(tmp_path)     # data_files wrote x.csv and y.csv there
    assert main(argv + ["--out", "r.json"]) == 0
    config = json.loads((tmp_path / "r.json").read_text())["config"]
    parsed = vars(lassoagg.cli.build_parser().parse_args(argv))
    assert config == {k: v for k, v in parsed.items()
                      if k not in ("header", "out", "path_csv", "threads")}
    assert canonical_json(config) == golden


def test_weights_command_stdout(capsys):
    for p in (6, 100):
        assert main(["weights", "--p", str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["bounds_hold"] is True
        assert report["results"]["total_mass"] == pytest.approx(1.0, abs=1e-10)
        assert len(report["results"]["log_inv_weight_by_size"]) == p + 1


def test_the_parser_is_built_once_per_process():
    assert lassoagg.cli.build_parser() is lassoagg.cli.build_parser()


# numpy refuses each of these arrays (7.11 PiB and 6.94 EiB) before it
# allocates anything
@pytest.mark.parametrize("argv", [
    ["weights", "--p", "1000000000000000"],
    ["simulate", "--n", "1000000000", "--p", "1000000000", "--s", "1", "--sigma", "1",
     "--reps", "1"],
])
def test_a_failed_allocation_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "MemoryError"
    assert error["message"].startswith("Unable to allocate")


@pytest.mark.parametrize("seed, reps", [("-1", "2"), (str(2 ** 128 - 1), "2"),
                                        (str(2 ** 128), "1")])
def test_simulate_rejects_seeds_outside_the_philox_keys(seed, reps, capsys):
    code = main(["simulate", "--n", "20", "--p", "30", "--s", "2", "--sigma", "1",
                 "--reps", reps, "--seed", seed])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInputError" and "2**128" in err["message"]


def test_sqrt_pipeline_rejects_a_grid_whose_ratio_overflows(data_files, capsys):
    xpath, ypath, *_ = data_files
    code = main(["sqrt-pipeline", "--x", xpath, "--y", ypath, "--lambda-min", "1e-320"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInputError" and "not finite" in err["message"]


@pytest.mark.parametrize("x_level", ["0", "-5"])
@pytest.mark.parametrize("bound", ["soi_path", "soi_supports", "oi_supports"])
def test_simulate_rejects_nonpositive_x(x_level, bound, capsys):
    code = main(["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "0.5",
                 "--reps", "2", "--x", x_level, "--bound", bound])
    assert code == 2
    assert "x must be positive" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("x_level", ["nan", "inf"])
def test_simulate_rejects_nonfinite_x(x_level, capsys):
    code = main(["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "0.5",
                 "--reps", "2", "--x", x_level])
    assert code == 2
    assert "x must be positive and finite" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_aggregate_rejects_negative_or_nonfinite_sigma(data_files, sigma, capsys):
    xpath, ypath, *_ = data_files
    code = main(["aggregate", "--x", xpath, "--y", ypath, "--sigma", sigma])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInputError"
    assert "--sigma must be nonnegative and finite" in err["message"]


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_simulate_rejects_negative_or_nonfinite_sigma(sigma, capsys):
    code = main(["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", sigma,
                 "--reps", "2"])
    assert code == 2
    assert "sigma must be nonnegative and finite" in json.loads(capsys.readouterr().err)["message"]


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


def test_simulate_rejects_sigma_whose_square_overflows(capsys):
    code = main(["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "1e200",
                 "--reps", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInputError"
    assert "finite square" in err["message"]


def test_empty_csv_gives_the_parse_error_and_no_warning(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["path", "--x", str(empty), "--y", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [json.dumps({"error": "ParseError",
                                            "message": f"{empty}: empty file"})]


def test_commands_run_one_blas_thread_and_restore_the_count(tmp_path, data_files, monkeypatch,
                                                           capsys):
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS library found")
    xpath, ypath, *_ = data_files
    seen = []
    real = lassoagg.cli.path_aggregate

    def spy(*args, **kwargs):
        seen.append(_openblas_thread_counts())
        return real(*args, **kwargs)

    monkeypatch.setattr(lassoagg.cli, "path_aggregate", spy)
    argv = ["aggregate", "--x", xpath, "--y", ypath, "--out", str(tmp_path / "r.json")]
    with _one_blas_thread():    # restores the previous counts on exit
        for _, set_threads in controls:
            set_threads(2)
        assert main(argv + ["--sigma", "1"]) == 0
        assert _openblas_thread_counts() == [2] * len(controls)
        assert main(argv + ["--sigma", "-1"]) == 2
        assert _openblas_thread_counts() == [2] * len(controls)
    assert seen == [[1] * len(controls)]
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["environment"]["pinned_blas_libraries"] == len(controls)


class _PoolSpy:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    replications in this process."""
    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


SIMULATE = ["simulate", "--n", "20", "--p", "6", "--s", "1", "--sigma", "0.5"]


@pytest.mark.parametrize("threads, reps, cpus, workers", [
    (64, 2, 64, 2), (8, 5, 3, 3), (2, 5, 8, 2), (1, 5, 8, 0), (4, 1, 8, 0), (4, 3, 1, 0)])
def test_simulate_starts_one_worker_per_replication_and_cpu_at_most(
        tmp_path, monkeypatch, threads, reps, cpus, workers):
    monkeypatch.setattr(_PoolSpy, "started", [])
    monkeypatch.setattr(lassoagg.simulation, "ProcessPoolExecutor", _PoolSpy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    out = tmp_path / "s.json"
    assert main(SIMULATE + ["--threads", str(threads), "--reps", str(reps),
                            "--out", str(out)]) == 0
    assert _PoolSpy.started == ([workers] if workers else [])
    report = json.loads(out.read_text())
    assert report["environment"]["worker_processes"] == workers
    assert report["environment"]["threads"] == threads
    assert len(report["results"]["lhs"]) == reps


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_rejects_fewer_than_one_thread(monkeypatch, capsys, threads):
    monkeypatch.setattr(_PoolSpy, "started", [])
    monkeypatch.setattr(lassoagg.simulation, "ProcessPoolExecutor", _PoolSpy)
    assert main(SIMULATE + ["--threads", threads, "--reps", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"
    assert _PoolSpy.started == []


DATA = ["--x", "{x}", "--y", "{y}"]
INT_DATA = ["--x", "{ix}", "--y", "{iy}"]
SIMULATE = ["simulate", "--n", "30", "--p", "40", "--s", "3", "--sigma", "1", "--reps", "2"]
SIMULATE_LOW_NOISE = ["simulate", "--n", "30", "--p", "40", "--s", "3", "--sigma", "0.1",
                      "--reps", "2", "--method", "crit"]
GOLDEN_RUNS = {
    "aggregate_sqrt_lasso_max_knots_1": ["aggregate", *DATA, "--sigma-mode", "sqrt_lasso",
                                         "--max-knots", "1"],
    "aggregate_sqrt_lasso_max_knots_2": ["aggregate", *DATA, "--sigma-mode", "sqrt_lasso",
                                         "--max-knots", "2"],
    "aggregate_sqrt_lasso_max_knots_3": ["aggregate", *DATA, "--sigma-mode", "sqrt_lasso",
                                         "--max-knots", "3"],
    "aggregate_sqrt_lasso": ["aggregate", *DATA, "--sigma-mode", "sqrt_lasso"],
    "aggregate_crit_sigma_1": ["aggregate", *DATA, "--method", "crit", "--sigma", "1"],
    "aggregate_q_sigma_1_max_knots_4": ["aggregate", *DATA, "--sigma", "1", "--max-knots", "4"],
    "aggregate_integer_sigma_1": ["aggregate", *INT_DATA, "--sigma", "1"],
    "aggregate_integer_sqrt_lasso": ["aggregate", *INT_DATA, "--sigma-mode", "sqrt_lasso"],
    "aggregate_integer_sigma_1_max_knots_3": ["aggregate", *INT_DATA, "--sigma", "1",
                                              "--max-knots", "3"],
    "aggregate_integer_crit_sigma_1": ["aggregate", *INT_DATA, "--method", "crit",
                                       "--sigma", "1"],
    "path_max_knots_2": ["path", *DATA, "--max-knots", "2"],
    "path_max_knots_3_path_csv": ["path", *DATA, "--max-knots", "3", "--path-csv", "{csv}"],
    "path_integer_max_knots_2": ["path", *INT_DATA, "--max-knots", "2"],
    "path_integer_max_knots_4": ["path", *INT_DATA, "--max-knots", "4"],
    "path_zero_response": ["path", "--x", "{x}", "--y", "{zero}"],
    "path_wide": ["path", "--x", "{wx}", "--y", "{wy}"],
    "path_wide_max_knots_5": ["path", "--x", "{wx}", "--y", "{wy}", "--max-knots", "5"],
    "path_equicorrelated_saturating": ["path", "--x", "{ex}", "--y", "{ey}"],
    "sqrt_pipeline_crit": ["sqrt-pipeline", *DATA, "--method", "crit"],
    "sqrt_pipeline_q_paper_literal": ["sqrt-pipeline", *DATA, "--method", "q",
                                      "--grid-mode", "paper-literal"],
    # p > n: the square-root Lasso interpolates and the residual collapses
    "sqrt_pipeline_wide_crit_exits_2": ["sqrt-pipeline", "--x", "{wx}", "--y", "{wy}",
                                        "--method", "crit"],
    "simulate_soi_path": [*SIMULATE, "--bound", "soi_path"],
    "simulate_soi_path_threads_2": [*SIMULATE, "--bound", "soi_path", "--threads", "2"],
    "simulate_soi_supports": [*SIMULATE, "--bound", "soi_supports"],
    "simulate_oi_supports_crit_sqrt_lasso": [*SIMULATE, "--bound", "oi_supports",
                                             "--method", "crit", "--sigma-mode", "sqrt_lasso"],
    "simulate_oi_supports_crit_sigma_0.1": [*SIMULATE_LOW_NOISE, "--bound", "oi_supports"],
    "simulate_soi_supports_crit_sigma_0.1": [*SIMULATE_LOW_NOISE, "--bound", "soi_supports"],
    "simulate_x_0_exits_2": [*SIMULATE, "--x", "0"],
    # the operation of the benchmark's mc-oracle workload
    "simulate_n_100_p_200_q_soi_path": ["simulate", "--n", "100", "--p", "200", "--s", "5",
                                        "--sigma", "1", "--x", "3", "--method", "q",
                                        "--bound", "soi_path", "--reps", "2", "--seed", "0"],
    "weights_p_6": ["weights", "--p", "6"],
    "weights_p_30": ["weights", "--p", "30"],
    "weights_p_100": ["weights", "--p", "100"],
}
GOLDEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_results.json")


def _golden_results(tmp_path, names=tuple(GOLDEN_RUNS)):
    """Exit code and canonical results bytes of each named GOLDEN_RUNS
    command, or its stderr line when it writes no report, followed by the
    text of its --path-csv file if it writes one.  Most data commands read
    one fixed (30, 20) instance, whose square-root-Lasso root at the
    universal penalty lies on segment 6 of its path, or its design with a
    zero response.  The integer (12, 9) design has a repeated, a negated and
    a doubled column, so its path is degenerate; the (15, 40) one has p > n,
    and so has the equicorrelated (60, 150) one, whose path saturates at 60
    active columns."""
    rng = np.random.default_rng(0)
    Xm = 3.0 * rng.standard_normal((30, 20))
    beta = np.zeros(20)
    beta[:5] = [3.0, -2.0, 1.5, -1.0, 0.5]
    y = Xm @ beta + 0.5 * rng.standard_normal(30)
    rng = np.random.default_rng(3)
    Xi = rng.integers(-3, 4, size=(12, 9)).astype(float)
    Xi[:, 4] = Xi[:, 1]
    Xi[:, 6] = -Xi[:, 2]
    Xi[:, 8] = 2.0 * Xi[:, 0]
    yi = Xi[:, :3] @ np.array([2.0, -1.0, 1.0]) + rng.integers(-2, 3, size=12)
    rng = np.random.default_rng(5)
    Xw = rng.standard_normal((15, 40))
    yw = Xw[:, [0, 7, 21]] @ np.array([2.0, -1.5, 1.0]) + 0.3 * rng.standard_normal(15)
    inst = generate_instance(60, 150, 5, 1.0, design_kind="equicorrelated", seed=0)
    data = {"x": Xm, "y": y, "zero": np.zeros(30), "ix": Xi, "iy": yi, "wx": Xw, "wy": yw,
            "ex": inst.X.entries, "ey": inst.y}
    files = {key: str(tmp_path / f"g{key}.csv") for key in data}
    for key, values in data.items():
        save_matrix_csv(files[key], values.reshape(len(values), -1))
    files["csv"] = str(tmp_path / "path.csv")
    found = {}
    for name in names:
        argv = GOLDEN_RUNS[name]
        out = tmp_path / f"{name}.json"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([a.format(**files) for a in argv] + ["--out", str(out)])
        found[name] = [code, canonical_json(json.loads(out.read_text())["results"])
                       if out.exists() else err.getvalue().rstrip("\n")]
        if "{csv}" in argv:
            with open(files["csv"], newline="") as fh:
                found[name].append(fh.read())
    return found


def test_results_match_the_golden_bytes(tmp_path):
    # expected bytes written by the code before each refactor of the homotopy
    # and of the least-squares engine
    with open(GOLDEN_FILE) as fh:
        expected = json.load(fh)
    assert _golden_results(tmp_path) == expected


if __name__ == "__main__":
    # python3 tests/test_cli.py NAME ...: run the named GOLDEN_RUNS with the
    # lassoagg found first on sys.path, write their entries into
    # golden_results.json, keeping every other entry, and say which entries
    # were added, changed or left as they were
    names = sys.argv[1:]
    unknown = [name for name in names if name not in GOLDEN_RUNS]
    if not names or unknown:
        sys.exit("usage: python3 tests/test_cli.py NAME ...\n"
                 + (f"unknown: {' '.join(unknown)}\n" if unknown else "")
                 + f"names: {' '.join(GOLDEN_RUNS)}")
    with open(GOLDEN_FILE) as fh:
        golden = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        written = _golden_results(Path(tmp), names)
    for name, entry in written.items():
        print(f"{name}: " + ("added" if name not in golden
                             else "unchanged" if golden[name] == entry else "changed"))
    golden.update(written)
    with open(GOLDEN_FILE, "w") as fh:
        fh.write(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(written)} entries with {lassoagg.cli.__file__}")
