"""Spans around the toolkit's public functions, recorded from outside it.

Each function is wrapped at the name its callers look it up by (for example
``compute_path`` inside both ``lassoagg.pipelines`` and
``lassoagg.simulation``), so the toolkit itself is unchanged.  Spans stay in
memory.  Monte Carlo replications run in forked worker processes, which
inherit the wrappers; the spans of a replication travel back to the parent
as an attribute of the ``OracleCheck`` it returns.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

# module -> functions wrapped in that module's namespace
LOOKUP_SITES = {
    "lassoagg.cli": ["load_matrix_csv", "load_vector_csv", "write_report",
                     "path_aggregate", "sqrt_lasso_pipeline", "monte_carlo",
                     "compute_path", "sqrt_lasso"],
    "lassoagg.pipelines": ["compute_path", "precompute", "q_aggregate",
                           "crit_select", "sqrt_lasso"],
    "lassoagg.aggregation": ["project"],
    "lassoagg.simulation": ["generate_instance", "compute_path", "precompute",
                            "q_aggregate", "crit_select", "project",
                            "sqrt_lasso", "run_oracle_trial"],
    "lassoagg.solvers": ["lasso_cd"],
    "lassoagg.path": ["lasso_cd"],
}

# Work counts read from the public return values.
COUNTERS = {
    "compute_path": lambda r: {"knots": int(r.knots.size),
                               "max_active": max((len(s.active) for s in r.segments),
                                                 default=0)},
    "precompute": lambda r: {"family_size": r.size},
    "q_aggregate": lambda r: {"iterations": r.iterations},
    "lasso_cd": lambda r: {"iterations": r.iterations, "nonconverged": int(not r.converged)},
    "sqrt_lasso": lambda r: {"iterations": r.iterations, "nonconverged": int(not r.converged)},
}

SPANS_ATTR = "perfbench_spans"


class Tracer:
    """In-memory span store.  A span is a list
    [id, parent id, operation, name, start, end, pid, counts].  Spans are
    recorded only while ``op`` names an operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._seq = 0

    def open(self, name: str) -> list:
        self._seq += 1
        parent = self._stack[-1][0] if self._stack else None
        span = [f"{os.getpid()}.{self._seq}", parent, self.op, name,
                time.perf_counter(), None, os.getpid(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list, counts):
        span[5] = time.perf_counter()
        span[7] = counts
        self._stack.pop()

    def detach(self):
        """Record into fresh storage; returns what reattach needs."""
        saved = (self.spans, self._stack)
        self.spans, self._stack = [], []
        return saved

    def reattach(self, saved) -> list:
        recorded = self.spans
        self.spans, self._stack = saved
        return recorded


def _wrap(tracer: Tracer, fn, after=None):
    name = f"{fn.__module__}.{fn.__name__}"
    count = COUNTERS.get(fn.__name__)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            counts = count(result) if count else None
        finally:
            tracer.close(span, counts)
        if after is not None:
            after(result, span)
        return result

    return traced


def _wrap_trial(tracer: Tracer, fn):
    """A replication records into its own store, which it returns attached
    to its result, whether it ran in a worker or in this process."""
    inner = _wrap(tracer, fn)

    @functools.wraps(fn)
    def traced_trial(config):
        if tracer.op is None:
            return fn(config)
        saved = tracer.detach()
        try:
            result = inner(config)
        finally:
            recorded = tracer.reattach(saved)
        setattr(result, SPANS_ATTR, recorded)
        return result

    return traced_trial


def _merge_trial_spans(tracer: Tracer):
    def after(report, span):
        for check in report["checks"]:
            recorded = check.__dict__.pop(SPANS_ATTR, None)
            if recorded is None:
                raise RuntimeError("a replication came back without spans; "
                                   "the worker processes were not forked")
            for s in recorded:
                s[1] = s[1] if s[1] is not None else span[0]
                s[2] = span[2]
            tracer.spans.extend(recorded)
    return after


@contextmanager
def installed(tracer: Tracer):
    """Wrap every function of LOOKUP_SITES; restore the originals on exit."""
    originals = []
    try:
        for module_name, names in LOOKUP_SITES.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                originals.append((module, name, fn))
                if name == "run_oracle_trial":
                    wrapped = _wrap_trial(tracer, fn)
                elif name == "monte_carlo":
                    wrapped = _wrap(tracer, fn, after=_merge_trial_spans(tracer))
                else:
                    wrapped = _wrap(tracer, fn)
                setattr(module, name, wrapped)
        yield tracer
    finally:
        for module, name, fn in reversed(originals):
            setattr(module, name, fn)


def _self_time(span, children) -> float:
    """Duration of span minus the part of it that its children cover."""
    start, end = span[4], span[5]
    covered, reach = 0.0, start
    for c_start, c_end in sorted((c[4], c[5]) for c in children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


# per-layer metric -> functions whose time is summed per operation
TIME_METRICS = {
    "cli.load_s": ["lassoagg.cli.load_matrix_csv", "lassoagg.cli.load_vector_csv"],
    "cli.write_s": ["lassoagg.cli.write_report"],
    "path.compute_path_s": ["lassoagg.path.compute_path"],
    "design.project_s": ["lassoagg.design.project"],
    "aggregation.precompute_s": ["lassoagg.aggregation.precompute"],
    "aggregation.q_aggregate_s": ["lassoagg.aggregation.q_aggregate"],
    "aggregation.crit_select_s": ["lassoagg.aggregation.crit_select"],
    "solvers.sqrt_lasso_s": ["lassoagg.solvers.sqrt_lasso"],
    "solvers.lasso_cd_s": ["lassoagg.solvers.lasso_cd"],
    "simulation.generate_instance_s": ["lassoagg.simulation.generate_instance"],
    "simulation.trial_s": ["lassoagg.simulation.run_oracle_trial"],
}
SELF_METRICS = {
    "pipelines.path_aggregate_self_s": "lassoagg.pipelines.path_aggregate",
    "pipelines.sqrt_lasso_pipeline_self_s": "lassoagg.pipelines.sqrt_lasso_pipeline",
    "simulation.trial_self_s": "lassoagg.simulation.run_oracle_trial",
}


def per_layer(spans, ops, overhead: float, workers: int) -> dict:
    """Per-layer metrics of the traced operations.

    ``ops`` holds (operation id, wall seconds, report bytes); ``overhead``
    is the traced minus the untraced operation wall time.  Times and
    per-operation counts are means over the operations; knots, family
    size and QP iterations are means per call; max_active is the largest
    active set seen.
    """
    n_ops = len(ops)
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
        children.setdefault(s[1], []).append(s)

    def calls(name):
        return by_name.get(f"lassoagg.{name}", [])

    def total(name, key):
        return sum(s[7][key] for s in calls(name) if s[7])

    def per_call(name, key):
        found = calls(name)
        return total(name, key) / len(found) if found else 0.0

    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = (sum(s[5] - s[4] for nm in names for s in by_name.get(nm, [])) / n_ops, "s")
    for metric, name in SELF_METRICS.items():
        out[metric] = (sum(_self_time(s, children.get(s[0], []))
                           for s in by_name.get(name, [])) / n_ops, "s")
    out["cli.report_bytes"] = (sum(o[2] for o in ops) / n_ops, "bytes")
    out["path.knots"] = (per_call("path.compute_path", "knots"), "count")
    out["path.max_active"] = (max((s[7]["max_active"] for s in calls("path.compute_path")),
                                  default=0), "count")
    out["design.project_calls"] = (len(calls("design.project")) / n_ops, "count")
    out["aggregation.family_size"] = (per_call("aggregation.precompute", "family_size"), "count")
    out["aggregation.qp_iterations"] = (per_call("aggregation.q_aggregate", "iterations"), "count")
    out["solvers.sqrt_outer_iterations"] = (total("solvers.sqrt_lasso", "iterations") / n_ops,
                                            "count")
    out["solvers.cd_cycles"] = (total("solvers.lasso_cd", "iterations") / n_ops, "count")
    out["solvers.nonconverged_fits"] = ((total("solvers.sqrt_lasso", "nonconverged")
                                         + total("solvers.lasso_cd", "nonconverged")) / n_ops,
                                        "count")
    trial_s = out["simulation.trial_s"][0] * n_ops
    busy = sum(o[1] for o in ops) * workers
    out["simulation.parallel_efficiency"] = (trial_s / busy if trial_s else 0.0, "ratio")
    out["trace.overhead_s"] = (overhead, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}
