"""Batch command-line interface: CSV ingestion, pipeline dispatch, and
canonical JSON reporting.

Exit codes: 0 success, 2 invalid input or a failed allocation, 3 solver
non-convergence (the report is still written).  The results section of a
report is byte-identical across runs with the same config and seed; volatile
data (timestamps, timings) live in the environment section.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
import warnings
from typing import Optional

import numpy as np

from . import __version__
from .aggregation import CritResult, QAggResult, SimplexWeights
from .design import DesignMatrix, Support
from .errors import DegenerateVarianceError, InvalidInputError
from .path import (SupportFamily, _one_blas_thread, _openblas_thread_controls, compute_path,
                   path_support_family)
from .pipelines import PipelineReport, path_aggregate, sqrt_lasso_pipeline
from .simulation import TrialConfig, monte_carlo, worker_processes
# sqrt_lasso is unused here, but perfbench/tracing.py wraps it at this module
from .solvers import sqrt_lasso  # noqa: F401
from .weights import total_mass, verify_weight_bounds, weight_table

SCHEMA_VERSION = "1"
# I/O and execution settings: every other parsed argument is echoed in a
# report's config
NOT_ECHOED = frozenset({"header", "out", "path_csv", "threads"})


class ParseError(InvalidInputError):
    pass


class OutputError(InvalidInputError):
    pass


def load_matrix_csv(path: str, header: bool = False) -> DesignMatrix:
    """Load an RFC-4180 CSV (no header by default) as a design matrix."""
    return DesignMatrix(_load_table(path, header, single_column=False))


def load_vector_csv(path: str, header: bool = False) -> np.ndarray:
    return _load_table(path, header, single_column=True).reshape(-1)


def _load_data(args):
    """The design X and response y named by the data flags."""
    return load_matrix_csv(args.x, args.header), load_vector_csv(args.y, args.header)


def _load_table(path, header, single_column):
    """The cells of a CSV as a 2-D array: numpy's table when it is usable,
    else the rows of the Python reader, whose widths are checked only once
    every cell has parsed."""
    cells = _read_finite_cells(path, header)
    if cells is not None and (cells.shape[1] == 1 or not single_column):
        return cells
    rows = _read_rows(path, header)
    width = len(rows[0][1])
    for lineno, values in rows:
        if single_column and len(values) != 1:
            raise ParseError(f"{path}:{lineno}: expected a single column, got {len(values)}")
        if len(values) != width:
            raise ParseError(f"{path}:{lineno}: ragged row ({len(values)} cells, expected {width})")
    return np.array([values for _, values in rows])


def _read_rows(path, header):
    """(line number, values) of each nonblank row, the header skipped, read
    by Python's csv reader.  Each cell is parsed once with float syntax; the
    first non-numeric or non-finite cell raises, and so does text that does
    not decode."""
    rows = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (header and lineno == 1):
                    continue
                values = []
                for colno, cell in enumerate(row, start=1):
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise ParseError(
                            f"{path}:{lineno}: non-numeric cell in column {colno}: {cell!r}")
                    if not math.isfinite(values[-1]):
                        raise ParseError(
                            f"{path}:{lineno}: non-finite value in column {colno}: {cell!r}")
                rows.append((lineno, values))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not {exc.encoding} text: {exc.reason}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file")
    return rows


def _read_finite_cells(path, header):
    """The cells of a CSV as a 2-D array, read by numpy's C parser, or None
    unless the file parses there to a nonempty table of finite values.  That
    parser converts a cell as Python's float does, but rejects some spellings
    float accepts (underscores, non-ASCII digits), which only the Python
    reader (_read_rows) reads.  A pipe cannot be read twice, so only
    regular files are read here."""
    if not os.path.isfile(path):
        return None
    try:
        # a file object, not the path, which numpy would decompress or fetch
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")     # "input contained no data"
            if header:
                # the header is one record, which quotes can spread over lines
                next(csv.reader(fh), None)
            cells = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except (OSError, ValueError, csv.Error):
        return None
    return cells if cells.size and np.isfinite(cells).all() else None


def _open_output(path, **kwargs):
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise OutputError(f"cannot open {path} for writing: {exc}") from exc


def save_matrix_csv(path: str, mat: np.ndarray):
    """Write the rows of mat as CSV lines (CRLF-terminated) of shortest
    round-trip float reprs."""
    rows = np.atleast_2d(np.asarray(mat, dtype=float)).tolist()
    with _open_output(path, newline="") as fh:
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _jsonable(obj):
    """The json encoder's hook for the objects it cannot encode itself."""
    if isinstance(obj, Support):
        return obj.one_based()
    if isinstance(obj, SupportFamily):
        return {"source": obj.source, "supports": obj.supports}
    if isinstance(obj, (QAggResult, CritResult)):
        return {"kind": "q" if isinstance(obj, QAggResult) else "crit", **vars(obj)}
    if isinstance(obj, SimplexWeights):
        return obj.theta
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    # sorted keys + repr floats (shortest round-trip) = byte-stable output
    return json.dumps(obj, default=_jsonable, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def write_report(config: dict, results: dict, environment_extra: Optional[dict],
                 out: Optional[str]):
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "results": results,
        "environment": {
            "version": __version__,
            "numpy": np.__version__,
            "timestamp": time.time(),
            "pinned_blas_libraries": len(_openblas_thread_controls()),
            **(environment_extra or {}),
        },
    }
    text = canonical_json(report)
    if out:
        with _open_output(out) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _pipeline_results(report: PipelineReport) -> dict:
    res = {
        "family": report.family,
        "sigma_hat_sq": report.result.sigma_hat_sq_used,
        "method": report.method,
        "result": report.result,
    }
    if report.path_meta:
        res["path_meta"] = report.path_meta
    if report.grid_meta:
        res["grid_meta"] = report.grid_meta
    return res


def _add_data_flags(p):
    p.add_argument("--x", required=True, help="design matrix CSV (rows = observations)")
    p.add_argument("--y", required=True, help="response vector CSV")
    p.add_argument("--header", action="store_true", help="skip the first CSV row")


def _add_common_flags(p):
    p.add_argument("--out", help="report output path (default: stdout)")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lassoagg",
                                     description="Lasso-path support aggregation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("path", help="compute the Lasso path and its support family")
    _add_data_flags(p)
    _add_common_flags(p)
    p.add_argument("--max-knots", type=int, default=None)
    p.add_argument("--path-csv", help="also export (lambda, residual loss, support size) rows")

    p = sub.add_parser("aggregate", help="aggregate the Lasso-path supports")
    _add_data_flags(p)
    _add_common_flags(p)
    p.add_argument("--method", choices=["q", "crit"], default="q")
    p.add_argument("--sigma", type=float,
                   help="known noise standard deviation sigma (its square is the variance used)")
    p.add_argument("--sigma-mode", choices=["known", "sqrt_lasso"], default="known")
    p.add_argument("--max-knots", type=int, default=None)

    p = sub.add_parser("sqrt-pipeline", help="square-root-Lasso grid pipeline")
    _add_data_flags(p)
    _add_common_flags(p)
    p.add_argument("--method", choices=["q", "crit"], default="q")
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--grid-size", type=int, default=20)
    p.add_argument("--grid-mode", choices=["spanning", "paper-literal"], default="spanning")

    p = sub.add_parser("simulate", help="Monte Carlo oracle-inequality verification")
    _add_common_flags(p)
    trial = TrialConfig()   # the defaults of the replication settings
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True, help="noise standard deviation sigma")
    p.add_argument("--x-level", "--x", dest="x_level", type=float, default=trial.x)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=trial.seed)
    p.add_argument("--method", choices=["q", "crit"], default=trial.method)
    p.add_argument("--bound", choices=["soi_path", "soi_supports", "oi_supports"],
                   default=trial.bound)
    p.add_argument("--sigma-mode", choices=["known", "sqrt_lasso"], default=trial.sigma_mode)
    p.add_argument("--design", choices=["iid_gaussian", "equicorrelated", "orthonormal"],
                   default=trial.design_kind)
    p.add_argument("--rho", type=float, default=trial.rho)

    p = sub.add_parser("weights", help="support-weight table diagnostics")
    _add_common_flags(p)
    p.add_argument("--p", type=int, required=True)

    return parser


def _cmd_path(args):
    X, y = _load_data(args)
    path = compute_path(X, y, max_knots=args.max_knots)
    family = path_support_family(path)
    if args.path_csv:
        losses, sizes = path.losses_and_sizes(path.knot_segments(), y)
        save_matrix_csv(args.path_csv, np.column_stack((path.knots, losses, sizes)))
    results = {
        "knots": path.knots,
        "supports": path.supports,
        "family": family,
        "truncated": path.truncated,
        "degenerate": path.degenerate,
    }
    return results, None, 0


def _resolve_sigma(args) -> Optional[float]:
    """The known variance sigma^2 from the standard deviation --sigma, or
    None for the square-root-Lasso estimate."""
    if args.sigma_mode == "known":
        if args.sigma is None:
            raise InvalidInputError("--sigma is required with --sigma-mode known")
        sigma_sq = args.sigma * args.sigma
        if not (args.sigma >= 0 and sigma_sq < math.inf):
            raise InvalidInputError("--sigma must be nonnegative and finite")
        return sigma_sq
    if args.sigma is not None:
        raise InvalidInputError("--sigma is not allowed with --sigma-mode sqrt_lasso")
    return None


def _pipeline_outcome(report: PipelineReport):
    """The results, environment and exit code of a pipeline report: exit 3
    when any solver behind it did not converge."""
    qp_converged = not isinstance(report.result, QAggResult) or report.result.converged
    code = 0 if qp_converged and report.fits_converged else 3
    return _pipeline_results(report), {"timing": report.timing}, code


def _cmd_aggregate(args):
    X, y = _load_data(args)
    report = path_aggregate(X, y, _resolve_sigma(args), method=args.method,
                            max_knots=args.max_knots)
    return _pipeline_outcome(report)


def _cmd_sqrt_pipeline(args):
    X, y = _load_data(args)
    report = sqrt_lasso_pipeline(X, y, lambda_min=args.lambda_min, M=args.grid_size,
                                 method=args.method, grid_mode=args.grid_mode)
    return _pipeline_outcome(report)


def _cmd_simulate(args):
    config = TrialConfig(n=args.n, p=args.p, s=args.s, sigma=args.sigma,
                         x=args.x_level, method=args.method, bound=args.bound,
                         sigma_mode=args.sigma_mode, seed=args.seed,
                         design_kind=args.design, rho=args.rho)
    report = monte_carlo(config, reps=args.reps, parallelism=args.threads)
    checks = report.pop("checks")
    results = dict(report)
    results["lhs"] = [c.lhs for c in checks]
    results["rhs"] = [c.rhs for c in checks]
    environment = {"threads": args.threads,
                   "worker_processes": worker_processes(args.threads, args.reps)}
    return results, environment, 0


def _cmd_weights(args):
    p = args.p
    results = {
        "p": p,
        "log_inv_weight_by_size": weight_table(p),
        "bounds_hold": verify_weight_bounds(p),
        "total_mass": total_mass(p),
    }
    return results, None, 0


# Each command returns its results, its environment entries and its exit code.
_COMMANDS = {
    "path": _cmd_path,
    "aggregate": _cmd_aggregate,
    "sqrt-pipeline": _cmd_sqrt_pipeline,
    "simulate": _cmd_simulate,
    "weights": _cmd_weights,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy and scipy each bundle an OpenBLAS, whose thread pools contend
        # for the cores when the homotopy alternates calls between them
        with _one_blas_thread():
            results, environment, code = _COMMANDS[args.command](args)
            config = {k: v for k, v in vars(args).items() if k not in NOT_ECHOED}
            write_report(config, results, environment, args.out)
            return code
    except (InvalidInputError, DegenerateVarianceError, MemoryError) as exc:
        # numpy refuses an allocation with a private subclass of MemoryError
        error = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": error, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
