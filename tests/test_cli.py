import dataclasses
import json
import os

import numpy as np
import pytest

import lassoagg.cli
import lassoagg.path
import lassoagg.pipelines
import lassoagg.simulation
from lassoagg.cli import (ParseError, canonical_json, load_matrix_csv,
                          load_vector_csv, main, save_matrix_csv)
from lassoagg.path import _openblas_thread_controls, compute_path
from lassoagg.simulation import _one_blas_thread, generate_instance
from lassoagg.solvers import SUPPORT_THRESH
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

    # quoted and padded numbers, and finite cells whose sum overflows, are accepted
    good = tmp_path / "good.csv"
    good.write_text('"1.5",2\n 1.5 ,\t-3e-2\n1e308,1e308\n')
    assert load_matrix_csv(str(good)).entries.tolist() == [[1.5, 2.0], [1.5, -0.03],
                                                          [1e308, 1e308]]

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
