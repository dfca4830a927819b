"""The benchmark's workloads: seeded inputs, one timed pass, checks.

Every workload goes through the public API of ``dcvs`` only.  A pass
solves a fixed, seed-determined set of problems; repeating it must give
the same iterations, terminations and success flags, which the
fingerprint pins down.
"""

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import dcvs
from dcvs import bench

LOSSES = ("l1", "mcp", "capped_l1", "trimmed_l1")
SUCCESS_THRESHOLD = 1e-3

# d, n, p_fail and seeds per run; seed block i holds instance seeds
# i*seeds .. i*seeds + seeds - 1.
SOLVE_WORKLOADS = {
    "solve-d100": {"d": 100, "n": 1000, "p_fail": 0.4, "seeds": 32},
    "solve-d400": {"d": 400, "n": 4000, "p_fail": 0.4, "seeds": 4},
}

# The grid and losses of configs/reduced_sweep.json with the time cap off;
# trials per cell here, base seed from the workload seed.
SWEEP_TRIALS = 2
REDUCED_SWEEP = {
    "d": 100,
    "n_over_d": [5, 10, 15],
    "p_fail": [0.1, 0.25, 0.4],
    "s": [1.0],
    "outlier_kind": "cauchy",
    "noise_variance": 1e-6,
    "losses": [
        {"name": "l1"},
        {"name": "capped_l1", "beta": 1000},
        {"name": "trimmed_l1", "K_over_n": 0.4},
    ],
    "solver": {"alpha": 3.0, "eta": 0.5, "rho": 0.8, "c": 0.0001,
               "rel_tol": 1e-7, "max_iters": 10000, "time_cap_seconds": None},
}

REFERENCE_SAMPLES = 16
REFERENCE_MIN_REPS = 8


@dataclass
class Outcome:
    """One solve: the exact fields the fingerprint covers, its time, and
    why it failed (empty when it did not)."""

    loss: str
    n: int
    p_fail: float
    seed: int
    iterations: int
    termination: str
    success: bool
    seconds: float
    failure: str = ""

    def key(self):
        return (self.loss, self.n, self.p_fail, self.seed, self.iterations,
                self.termination, self.success)


@dataclass
class Pass:
    wall_s: float
    outcomes: list
    reference_ms: list
    emit_s: float = 0.0
    workers: int = 1
    trial_spans: list = field(default_factory=list)  # traced sweep only


class ReferenceKernel:
    """A fixed numpy loop shaped like solver steps at (n, d): matvecs with
    an n-by-d matrix, a squared residual and a median partition.  It uses
    no dcvs code.  Timed between solves, it tracks how fast the host runs
    right now, so ``ms_per_iter`` over its time cancels the host's speed
    swings while any change to dcvs still moves the ratio in full."""

    def __init__(self, n, d):
        rng = np.random.default_rng(20260417)
        self.A = rng.standard_normal((n, d))
        self.z = rng.standard_normal(d)
        self.reps = max(REFERENCE_MIN_REPS, 2_000_000 // (n * d))

    def __call__(self):
        A, z, mid = self.A, self.z, self.A.shape[0] // 2
        t0 = time.perf_counter()
        for _ in range(self.reps):
            y = A @ z
            r = y * y
            z = A.T @ (y / (1.0 + np.partition(r, mid)[mid]))
            z = z / np.linalg.norm(z)
        return 1000.0 * (time.perf_counter() - t0)


def fingerprint(outcomes):
    """Hash of every solve's (loss, cell, seed, iterations, termination,
    success)."""
    text = "\n".join(repr(o.key()) for o in sorted(outcomes, key=Outcome.key))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ms_per_iter(outcomes):
    """Per-step time of a typical solve: the median over solves of
    seconds/steps in each (n, p_fail, loss) group, averaged with equal
    weight over the groups.  Medians keep a burst of host load during a few
    solves out; the groups keep the seed-dependent mix of losses out."""
    groups = {}
    for o in outcomes:
        if o.iterations:
            key = (o.n, o.p_fail, o.loss)
            groups.setdefault(key, []).append(1000.0 * o.seconds / o.iterations)
    rates = [statistics.median(v) for v in groups.values()]
    return sum(rates) / len(rates) if rates else float("nan")


def _rel_error(x, x_star):
    return min(np.linalg.norm(x - x_star), np.linalg.norm(x + x_star)) / np.linalg.norm(x_star)


def _make_loss(name, n):
    if name == "mcp":
        return dcvs.make_loss("mcp", n, lam=1.0, beta=1000.0)
    if name == "capped_l1":
        return dcvs.make_loss("capped_l1", n, beta=1000.0)
    if name == "trimmed_l1":
        return dcvs.make_loss("trimmed_l1", n, K=int(round(0.4 * n)))
    return dcvs.make_loss(name, n)


class SolveWorkload:
    """Consecutive instance seeds at one (d, n, p_fail), each solved with
    the four losses from one shared spectral initial point."""

    def __init__(self, name, seed):
        spec = SOLVE_WORKLOADS[name]
        self.d, self.n, self.p_fail = spec["d"], spec["n"], spec["p_fail"]
        self.seeds = range(seed * spec["seeds"], (seed + 1) * spec["seeds"])
        self.config = dcvs.SolverConfig(time_cap_seconds=None)
        self.reference = ReferenceKernel(self.n, self.d)
        self.inputs = None
        self.losses = None

    def setup(self, tracer=None):
        generate, init = dcvs.generate_instance, dcvs.spectral_init
        if tracer is not None:
            generate = tracer.wrap("retrieval.generate", generate)
            init = tracer.wrap("retrieval.spectral_init", init)
        inputs = []
        for s in self.seeds:
            inst = generate(self.d, self.n, self.p_fail, 1.0,
                            outlier_kind="cauchy", noise_variance=1e-6, seed=s)
            x1 = init(inst.A, inst.b, s)
            inputs.append((s, inst, x1, dcvs.rpr_map(inst.A, inst.b)))
        self.inputs = inputs
        self.losses = [_make_loss(name, self.n) for name in LOSSES]

    def run_pass(self, tracer=None):
        solve = dcvs.solve
        if tracer is not None:
            solve = tracer.traced_solve(solve)
        outcomes, reference = [], []
        clock = time.perf_counter
        start = clock()
        for seed, inst, x1, smooth_map in self.inputs:
            if tracer is not None:
                smooth_map = tracer.wrap_map(smooth_map)
            for loss in self.losses:
                if tracer is not None:
                    loss = tracer.wrap_loss(loss)
                error = ""
                t0 = clock()
                try:
                    record = solve(loss, smooth_map, x1, self.config)
                except dcvs.SolverError as err:
                    record, error = None, str(err)
                seconds = clock() - t0
                outcomes.append(self._check(loss.name, seed, inst, record,
                                            seconds, error))
                reference.append(self.reference())
        wall = clock() - start - sum(reference) / 1000.0
        return Pass(wall_s=wall, outcomes=outcomes, reference_ms=reference)

    def _check(self, loss, seed, inst, record, seconds, error):
        out = Outcome(loss=loss, n=self.n, p_fail=self.p_fail, seed=seed,
                      iterations=0, termination="error", success=False,
                      seconds=seconds, failure=error and f"SolverError: {error}")
        if record is None:
            return out
        out.iterations, out.termination = record.iterations, record.termination
        x = np.asarray(record.x_final)
        if not np.all(np.isfinite(x)):
            out.failure = "non-finite x_final"
            return out
        rel, ok = dcvs.success(x, inst.x_star, SUCCESS_THRESHOLD)
        mine = _rel_error(x, inst.x_star)
        out.success = bool(ok)
        if record.termination in ("time_cap", "error"):
            out.failure = f"termination {record.termination}"
        elif not math.isclose(rel, mine, rel_tol=1e-9, abs_tol=1e-15) or ok != (mine < SUCCESS_THRESHOLD):
            out.failure = f"success() disagrees: {rel} vs {mine}"
        return out


class SweepWorkload:
    """``bench.run_sweep`` + ``bench.emit_outputs`` on the reduced grid
    with one worker per available core."""

    def __init__(self, seed, out_dir, workers):
        self.raw = dict(REDUCED_SWEEP, trials=SWEEP_TRIALS,
                        base_seed=seed * SWEEP_TRIALS)
        self.out_dir = out_dir
        self.workers = workers
        d = REDUCED_SWEEP["d"]
        self.reference = ReferenceKernel(10 * d, d)
        self.config = None

    def setup(self, tracer=None):
        self.config = bench.sweep_config_from_dict(self.raw)

    def run_pass(self, tracer=None):
        # The pool holds every core, so the reference kernel is timed
        # around the pass rather than inside it.
        reference = [self.reference() for _ in range(REFERENCE_SAMPLES)]
        clock = time.perf_counter
        t0 = clock()
        result = bench.run_sweep(self.config, workers=self.workers)
        t1 = clock()
        written = bench.emit_outputs(result, self.out_dir)
        t2 = clock()
        reference += [self.reference() for _ in range(REFERENCE_SAMPLES)]
        outcomes = [self._outcome(row) for row in result.trial_rows]
        expected = (len(self.config.cells()) * self.config.trials
                    * len(self.config.losses))
        problems = []
        if len(outcomes) != expected:
            problems.append(f"{len(outcomes)} trial rows, expected {expected}")
        problems += self._check_files(written, len(outcomes), len(result.summary_rows))
        if problems:
            # charge file-level faults to the first solve so they count
            outcomes[0].failure = outcomes[0].failure or "; ".join(problems)
        spans = [row.pop("_spans") for row in result.trial_rows if "_spans" in row]
        return Pass(wall_s=t2 - t0, emit_s=t2 - t1, outcomes=outcomes,
                    reference_ms=reference, workers=self.workers,
                    trial_spans=spans)

    def _outcome(self, row):
        rel = float(row["rel_error"])
        out = Outcome(loss=row["loss"], n=int(row["n"]),
                      p_fail=float(row["p_fail"]), seed=int(row["seed"]),
                      iterations=int(row["iterations"]),
                      termination=row["termination"],
                      success=bool(row["success"]), seconds=float(row["seconds"]))
        if row["termination"] in ("time_cap", "error"):
            out.failure = f"termination {row['termination']}: {row['error']}"
        elif not math.isfinite(rel):
            out.failure = "non-finite rel_error"
        elif out.success != (rel < SUCCESS_THRESHOLD):
            out.failure = f"success flag {out.success} for rel_error {rel}"
        return out

    def _check_files(self, written, trial_rows, summary_rows):
        problems = []
        names = sorted(os.path.basename(p) for p in written)
        want = sorted(["summary.csv", "trials.csv"]
                      + [f"heatmap_{bench.loss_label(s)}.csv" for s in self.config.losses])
        if names != want:
            problems.append(f"emitted {names}, expected {want}")
            return problems
        for fname, rows in (("trials.csv", trial_rows), ("summary.csv", summary_rows)):
            with open(os.path.join(self.out_dir, fname), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if len(lines) != rows + 1:
                problems.append(f"{fname} has {len(lines)} lines, expected {rows + 1}")
        return problems


def make_workload(name, seed, out_dir, workers):
    if name == "sweep-reduced":
        return SweepWorkload(seed, out_dir, workers)
    return SolveWorkload(name, seed)
