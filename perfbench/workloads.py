"""The three workloads: their inputs, their operations and their checks.

An operation is one call of ``lassoagg.cli.main`` with an argument list; it
writes its report to a file.  A run attempts whole rounds 0, 1, ... only.
On path-wide every round is the same list of operations, one of which
fails every time; on the other two workloads, where no operation fails,
round k brings fresh inputs.  ``make_inputs`` runs in a fresh interpreter
during set-up; ``check`` runs after each operation, outside the timed
section, and verifies the report with ``checks`` (numpy and math only).
The toolkit is called again during a check only to recompute an
intermediate that the report does not carry (the path segments, the
sqrt-Lasso fit at the universal penalty, one Monte Carlo replication); that
intermediate is itself verified before use.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import checks
from checks import require


@dataclass(frozen=True)
class Instance:
    key: str
    n: int
    p: int
    s: int
    design: str
    seed: int


@dataclass(frozen=True)
class Op:
    key: str        # instance or replication block the operation reads
    argv: tuple


def _generate(inst: Instance):
    from lassoagg.simulation import generate_instance
    return generate_instance(inst.n, inst.p, inst.s, 1.0, design_kind=inst.design,
                             rho=0.5, seed=inst.seed)


def _segments(path) -> list:
    return [(seg.hi, seg.lo, seg.active, seg.a, seg.b) for seg in path.segments]


def canonical_results(report: dict) -> str:
    return json.dumps(report["results"], sort_keys=True, separators=(",", ":"))


class Workload:
    name = ""
    workers = 1
    # set-up is timed this many times per run; more where it is short
    setup_samples = 5

    def __init__(self, seed: int, inputs_dir: str):
        self.seed = seed
        self.inputs_dir = inputs_dir
        self._verified = {}     # key -> expensive recomputations, once per run
        self._results = {}      # key -> canonical results of the first success

    def make_inputs(self):
        """Generate the inputs and write them as CSV files (set-up)."""
        from lassoagg.cli import save_matrix_csv
        os.makedirs(self.inputs_dir, exist_ok=True)
        for inst in self.instances():
            data = _generate(inst)
            save_matrix_csv(self._csv(inst.key, "x"), data.X.entries)
            save_matrix_csv(self._csv(inst.key, "y"), data.y.reshape(-1, 1))

    def instances(self) -> list:
        return []

    def _csv(self, key: str, what: str) -> str:
        return os.path.join(self.inputs_dir, f"{key}.{what}.csv")

    def _data_flags(self, key: str) -> list:
        return ["--x", self._csv(key, "x"), "--y", self._csv(key, "y")]

    def _xy(self, key: str):
        return checks.load_csv(self._csv(key, "x")), checks.load_csv(self._csv(key, "y"))[:, 0]

    def round(self, k: int) -> list:
        """The operations of round k."""
        raise NotImplementedError

    def check(self, op: Op, rc, report) -> bool:
        """Verify one operation; returns True when it failed.  A failed
        operation is one whose command did not succeed."""
        if rc != 0:
            return True
        require(report is not None, "exit code 0 without a report")
        text = canonical_results(report)
        first = self._results.setdefault(op.key, text)
        require(text == first, f"results for {op.key} differ between repeats")
        if op.key not in self._verified:
            self._verified[op.key] = self.verify_instance(op)
        self.verify(op, report, self._verified[op.key])
        return False

    def verify_instance(self, op: Op):
        """Recomputations shared by every operation on op.key."""
        raise NotImplementedError

    def verify(self, op: Op, report: dict, cached):
        raise NotImplementedError

    def finish(self):
        """Checks over the whole run."""


class PathWide(Workload):
    """aggregate --method q --sigma 1 at n = 200, p = 1000, s = 10.

    One iid-Gaussian instance comes from the seed.  Two equicorrelated
    (rho = 0.5) instances are fixed: seed 0, which Q-aggregation solves,
    and seed 2, on which it stalls at its iteration cap and the command
    exits 3.  The stalled operation is the one failure the workload keeps.
    """

    name = "path-wide"
    setup_samples = 2
    STALL = "equi-2"

    def instances(self):
        return [Instance(f"iid-{self.seed}", 200, 1000, 10, "iid_gaussian", self.seed),
                Instance("equi-0", 200, 1000, 10, "equicorrelated", 0),
                Instance(self.STALL, 200, 1000, 10, "equicorrelated", 2)]

    def round(self, k):
        iid, equi, stall = (inst.key for inst in self.instances())
        # equi-0 is the majority, so the median does not jump between the
        # levels of two instances from one seed to the next
        return [self._op(key) for key in (iid, equi, equi, stall, equi)]

    def _op(self, key):
        return Op(key, tuple(["aggregate", *self._data_flags(key), "--method", "q",
                              "--sigma", "1"]))

    def check(self, op, rc, report):
        failed = super().check(op, rc, report)
        if failed and op.key == self.STALL and rc == 3:
            result = report["results"]["result"]
            require(not result["converged"], "exit code 3 with a converged QP")
        return failed

    def verify_instance(self, op):
        from lassoagg.path import compute_path
        X, y = self._xy(op.key)
        path = compute_path(X, y)
        segments = _segments(path)
        checks.check_path_kkt(X, y, segments, path.lambda0)
        family = checks.path_family(segments)
        F = checks.fit_matrix(X, y, family)
        log_w = np.array([checks.log_inv_weight(X.shape[1], len(T)) for T in family])
        return y, family, F, log_w, int(path.knots.size)

    def verify(self, op, report, cached):
        y, family, F, log_w, knots = cached
        res = report["results"]
        reported = checks.zero_based(res["family"]["supports"])
        checks.check_family(reported)
        require(reported == family, "the family is not the set of path supports")
        require(res["path_meta"]["knot_count"] == knots, "knot count differs from the path")
        require(res["sigma_hat_sq"] == 1.0, "sigma^2 is not the one given")
        require(res["result"]["converged"], "exit code 0 with an unconverged QP")
        checks.check_q_result(F, y, log_w, res["result"], 1.0)


class SqrtLowdim(Workload):
    """sqrt-pipeline --method crit at n = 100, p = 50, s = 5, with the
    default 20-point grid, on iid-Gaussian instances: a fixed one (seed 0)
    and a pool of POOL from the seed.  Round k reads pool instance k mod
    POOL once and the fixed instance twice, so the median falls on one
    instance and does not move with the mix of pool instances a run reaches.
    """

    name = "sqrt-lowdim"
    POOL = 16
    FIXED = "fixed-0"

    def instances(self):
        return [Instance(self.FIXED, 100, 50, 5, "iid_gaussian", 0)] + [
            Instance(f"iid-{self.seed}-{j}", 100, 50, 5, "iid_gaussian", self.seed * 100 + j)
            for j in range(self.POOL)]

    def round(self, k):
        key = self.instances()[1 + k % self.POOL].key
        return [self._op(key), self._op(self.FIXED), self._op(self.FIXED)]

    def _op(self, key):
        return Op(key, tuple(["sqrt-pipeline", *self._data_flags(key), "--method", "crit"]))

    def verify_instance(self, op):
        from lassoagg.solvers import sqrt_lasso
        X, y = self._xy(op.key)
        n, p = X.shape
        lam_u = 2.0 * math.sqrt(math.log(p / 0.01) / n)
        return X, y, lam_u, sqrt_lasso(X, y, lam_u).beta

    def verify(self, op, report, cached):
        X, y, lam_u, beta = cached
        res = report["results"]
        require(all(res["grid_meta"]["converged"]), "a grid fit did not converge")
        require(checks.close(res["grid_meta"]["lambda_max"], lam_u),
                "the grid does not end at the universal penalty")
        sigma_sq = res["sigma_hat_sq"]
        checks.check_sqrt_lasso(X, y, lam_u, beta, sigma_sq)
        family = checks.zero_based(res["family"]["supports"])
        checks.check_family(family)
        F = checks.fit_matrix(X, y, family)
        log_w = np.array([checks.log_inv_weight(X.shape[1], len(T)) for T in family])
        checks.check_crit_result(F, y, family, log_w, res["result"], sigma_sq)


class McOracle(Workload):
    """simulate at the settings of acceptance criterion 6: n = 100,
    p = 200, s = 5, sigma = 1, x = 3, Q-aggregation against the path bound;
    round k runs block k of REPS replications, seeded from the seed.  There
    are no input files.

    The replications run in this process (--threads 1).  With two worker
    processes and unpinned BLAS the time of one operation varies sevenfold
    from one call to the next (see README.md), so no median over a run of
    affordable length repeats.
    """

    name = "mc-oracle"
    setup_samples = 7
    workers = 1
    REPS = 2
    N, P, S, X_LEVEL = 100, 200, 5, 3.0
    HELD_RATE = 0.85      # criterion 6's threshold

    def __init__(self, seed, inputs_dir):
        super().__init__(seed, inputs_dir)
        self.held = 0
        self.reps = 0

    def _first_seed(self, block: int) -> int:
        return self.seed * 100_000 + block * self.REPS

    def round(self, k):
        return [Op(f"block-{k}", tuple(
            ["simulate", "--n", str(self.N), "--p", str(self.P), "--s", str(self.S),
             "--sigma", "1", "--x", str(self.X_LEVEL), "--method", "q",
             "--bound", "soi_path", "--threads", str(self.workers),
             "--reps", str(self.REPS), "--seed", str(self._first_seed(k))]))]

    def check(self, op, rc, report):
        failed = super().check(op, rc, report)
        if not failed:
            res = report["results"]
            self.held += sum(a <= b for a, b in zip(res["lhs"], res["rhs"]))
            self.reps += len(res["lhs"])
        return failed

    def verify_instance(self, op):
        """Recompute the block's first replication apart from the run."""
        from lassoagg.aggregation import precompute, q_aggregate
        from lassoagg.path import compute_path, path_support_family
        data = _generate(Instance("", self.N, self.P, self.S, "iid_gaussian",
                                  self._first_seed(int(op.key.split("-")[1]))))
        X, y, mu = data.X.entries, data.y, data.mu
        path = compute_path(X, y)
        segments = _segments(path)
        checks.check_path_kkt(X, y, segments, path.lambda0)
        family = checks.path_family(segments)
        F = checks.fit_matrix(X, y, family)
        log_w = np.array([checks.log_inv_weight(self.P, len(T)) for T in family])
        path_family = path_support_family(path)
        require([T.indices for T in path_family] == family,
                "the replication's family is not the set of path supports")
        agg = q_aggregate(precompute(X, y, path_family), 1.0)
        result = {"theta_hat": agg.theta_hat.theta, "mu_hat": agg.mu_hat,
                  "objective": agg.objective}
        checks.check_q_result(F, y, log_w, result, 1.0)
        lhs = float(np.sum((F @ agg.theta_hat.theta - mu) ** 2)) / self.N
        rhs = checks.soi_path_rhs(X, mu, segments, path.knots, 1.0, 1.0, self.X_LEVEL)
        return lhs, rhs

    def verify(self, op, report, cached):
        lhs, rhs = cached
        res = report["results"]
        require(res["reps"] == self.REPS and len(res["lhs"]) == self.REPS,
                "the report does not hold every replication")
        checks.check_oracle_bounds(res["lhs"], res["rhs"], 1.0, self.X_LEVEL, self.N)
        require(checks.close(res["lhs"][0], lhs, 1e-7),
                f"replication loss {res['lhs'][0]!r} != recomputed {lhs!r}")
        require(checks.close(res["rhs"][0], rhs),
                f"replication bound {res['rhs'][0]!r} != recomputed {rhs!r}")

    def finish(self):
        require(self.reps == 0 or self.held >= self.HELD_RATE * self.reps,
                f"the bound held in {self.held} of {self.reps} replications, "
                f"below criterion 6's rate {self.HELD_RATE}")


WORKLOADS = {w.name: w for w in (PathWide, SqrtLowdim, McOracle)}
