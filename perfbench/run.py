"""Benchmark of the lassoagg toolkit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload path-wide --seed 1 --seconds 15 --trace 0

The toolkit is imported from ``src/`` of the current directory and driven
in-process through ``lassoagg.cli.main``.  Set-up is timed in fresh
interpreters.  Every operation's report is checked apart from the toolkit,
outside the timed section.  The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics from a
traced run with ``--trace 1``.  See README.md.
"""

import os
import sys

# The toolkit runs with the BLAS thread count its library chooses, as in a
# user's shell.  OpenBLAS reads these variables once, when it is loaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")
if __name__ == "__main__" and any(v in os.environ for v in BLAS_THREAD_VARS):
    for v in BLAS_THREAD_VARS:
        os.environ.pop(v, None)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from typing import NamedTuple, Optional

from checks import CheckError

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation and one set-up sample, for testing")
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_info() -> list:
    """Each OpenBLAS library loaded (numpy and scipy bundle one each) with
    the thread count it chose."""
    import numpy  # noqa: F401  (loads numpy's BLAS)
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    symbols = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
               for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_threads, get_config in symbols:
            if hasattr(lib, get_threads) and hasattr(lib, get_config):
                threads, config = getattr(lib, get_threads), getattr(lib, get_config)
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                found.append({"library": os.path.basename(path), "threads": threads(),
                              "config": config().decode()})
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def time_setup(args, work: str, samples: int):
    """Wall time of `samples` fresh interpreters that each import the
    toolkit, generate the inputs and write them.  The inputs of the last
    one are used."""
    times = []
    for k in range(samples):
        target = os.path.join(work, f"inputs-{k}")
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-into", target]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
        if k:
            shutil.rmtree(os.path.join(work, f"inputs-{k - 1}"))
    return times, target


def run_op(main, op, out: str):
    """One timed operation; returns (wall seconds, exit code, report)."""
    if os.path.exists(out):
        os.remove(out)
    t0 = time.perf_counter()
    try:
        rc = main(list(op.argv) + ["--out", out])
    except Exception:
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    report = None
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
    return wall, rc, report


class OpRecord(NamedTuple):
    kind: str           # "timed", "untraced" or "traced"
    op_id: int
    key: str
    wall: float
    rc: Optional[int]
    size: int           # report bytes


class Runner:
    """Runs whole rounds of a workload's operations and checks each one."""

    def __init__(self, workload, main, out: str):
        self.workload = workload
        self.main = main
        self.out = out
        self.ops = []
        self.failed = 0
        self.errors = []

    def rounds(self, seconds: float, kind: str, tracer=None, first_op_only=False):
        """Rounds 0, 1, ... until the timed operations add up to `seconds`."""
        measured, k = 0.0, 0
        while True:
            ops = self.workload.round(k)
            for op in ops[:1] if first_op_only else ops:
                op_id = len(self.ops)
                if tracer is not None:
                    tracer.op = op_id
                wall, rc, report = run_op(self.main, op, self.out)
                if tracer is not None:
                    tracer.op = None    # checks are not traced
                measured += wall
                size = os.path.getsize(self.out) if report is not None else 0
                self.ops.append(OpRecord(kind, op_id, op.key, wall, rc, size))
                try:
                    self.failed += self.workload.check(op, rc, report)
                except (CheckError, KeyError) as exc:
                    self.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            k += 1
            if measured >= seconds:
                return

    def walls(self, kind: str, keys=None) -> list:
        return [o.wall for o in self.ops if o.kind == kind and (keys is None or o.key in keys)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lassoagg", "cli.py")):
        print(f"no toolkit source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]

    if args.setup_into:
        make(args.seed, args.setup_into).make_inputs()
        return 0

    work = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_times, inputs = time_setup(args, work, 1 if args.smoke else make.setup_samples)
        import lassoagg
        import lassoagg.cli
        if not os.path.abspath(lassoagg.__file__).startswith(src + os.sep):
            print(f"lassoagg was imported from {lassoagg.__file__}, not from {src}",
                  file=sys.stderr)
            return 2
        import tracing
        env = environment()
        print(json.dumps({"environment": env}), flush=True)

        workload = make(args.seed, inputs)
        runner = Runner(workload, lassoagg.cli.main, os.path.join(work, "report.json"))
        seconds = 0.0 if args.smoke else args.seconds
        spans = []
        if args.trace:
            # one untraced round gives the reference for the tracing overhead
            runner.rounds(0.0, "untraced", first_op_only=args.smoke)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                runner.rounds(seconds, "traced", tracer, first_op_only=args.smoke)
            spans = tracer.spans
            untraced_keys = {o.key for o in runner.ops if o.kind == "untraced"}
            overhead = (statistics.median(runner.walls("traced", untraced_keys))
                        - statistics.median(runner.walls("untraced")))
            traced = [(o.op_id, o.wall, o.size) for o in runner.ops if o.kind == "traced"]
            metrics = tracing.per_layer(spans, traced, overhead, workload.workers)
        else:
            runner.rounds(seconds, "timed", first_op_only=args.smoke)
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "op_wall_s.p50": {"value": statistics.median(runner.walls("timed")),
                                  "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
        try:
            workload.finish()
        except CheckError as exc:
            runner.errors.append(f"run: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in runner.errors:
        print(f"check failed: {err}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    detail = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   "setup_s": setup_times,
                   "ops": [o._asdict() for o in runner.ops],
                   "errors": runner.errors, "metrics": metrics, "spans": spans}, fh)
    attempted = len(runner.ops)
    print(json.dumps({"correct": not runner.errors, "attempted": attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
