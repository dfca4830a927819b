"""Success-rate sweeps over synthetic phase retrieval grids.

A sweep runs ``trials`` seeded instances for every grid cell
``(n/d, p_fail, s)`` and every configured loss, records per-trial
outcomes, and aggregates success rates, errors, iteration counts and
timings per cell.  The per-trial seed is ``base_seed + trial``, so
outcomes depend only on the cell parameters, the trial index, and the
base seed — never on grid order or on how many workers executed the
trials.  Within a trial the spectral initial point is shared by all
losses.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np

from .losses import _check_keys, _number, loss_from_spec, loss_label, spec_params
from .maps import rpr_map
from .retrieval import _check_instance_args, generate_instance, spectral_init, success
from .solver import SolverConfig, SolverError, solve, write_csv

SUMMARY_COLUMNS = (
    "d", "n", "n_over_d", "p_fail", "s", "loss", "params",
    "success_rate", "mean_rel_err", "mean_seconds", "mean_iters",
)
TRIAL_COLUMNS = (
    "d", "n", "n_over_d", "p_fail", "s", "loss", "params", "trial", "seed",
    "rel_error", "success", "iterations", "termination", "seconds", "error",
)
# the wall-clock columns: the only cells of a written sweep that may differ
# between two runs of one config
TIMING_COLUMNS = ("seconds", "mean_seconds")


@dataclass
class SweepConfig:
    """Grid, loss list, and solver settings for one sweep."""

    d: int
    n_over_d: list
    p_fail: list
    losses: list
    s: list = field(default_factory=lambda: [1.0])
    trials: int = 50
    base_seed: int = 0
    outlier_kind: str = "cauchy"
    noise_variance: float = 1e-6
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not isinstance(self.solver, SolverConfig):
            raise ValueError(f"solver must be a SolverConfig, got {self.solver!r}")
        for key in ("n_over_d", "p_fail", "s", "losses"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise ValueError(f"{key} must be a list, got {getattr(self, key)!r}")
        # numbers are normalised, so that CSV text does not depend on whether
        # a config wrote 0 or 0.0, or on how the config was built
        for key, low in (("d", 1), ("trials", 1), ("base_seed", 0)):
            setattr(self, key, _number(getattr(self, key), key, integral=True, low=low))
        self.n_over_d = [_number(v, "n_over_d", integral=True) for v in self.n_over_d]
        self.p_fail = [_number(v, "p_fail") for v in self.p_fail]
        self.s = [_number(v, "s") for v in self.s]
        self.noise_variance = _number(self.noise_variance, "noise_variance")
        self.losses = list(self.losses)
        if not (self.n_over_d and self.p_fail and self.s and self.losses):
            raise ValueError("all grids and the loss list must be nonempty")
        # check every cell's instance and dry-build every loss at every n of
        # the grid, so that a bad entry fails here and not mid-sweep
        for nd, p_fail, s_val in self.cells():
            _check_instance_args(self.d, self.d * nd, p_fail, s_val,
                                 self.outlier_kind, self.noise_variance)
        for spec in self.losses:
            for nd in self.n_over_d:
                loss_from_spec(spec, self.d * nd)
        # each name keys an output row, column or heatmap file; a repeat
        # would duplicate rows or overwrite a file
        for what, names in (("n_over_d", self.n_over_d), ("p_fail", self.p_fail),
                            ("s", [f"{s_val:g}" for s_val in self.s]),
                            ("loss label", [loss_label(spec) for spec in self.losses])):
            if len(set(names)) < len(names):
                raise ValueError(f"repeated {what} in {names}")

    def cells(self):
        """Canonical cell order: n_over_d outer, then p_fail, then s."""
        return list(product(self.n_over_d, self.p_fail, self.s))


@dataclass
class SweepResult:
    config: SweepConfig
    trial_rows: list    # dicts keyed by TRIAL_COLUMNS, in config order
    summary_rows: list  # dicts keyed by SUMMARY_COLUMNS, in config order


def seeded_problem(d, n, p_fail, s, outlier_kind, noise_variance, seed):
    """``(inst, x1, smooth_map)``: the instance ``seed`` draws, its
    spectral initial point and its smooth map, which every solve of one
    trial shares; ``dcvs solve`` and each sweep trial both start here.

    The three builders are looked up as module globals at call time, so
    a traced run that rebinds them on this module sees every trial.
    """
    inst = generate_instance(d, n, p_fail, s, outlier_kind=outlier_kind,
                             noise_variance=noise_variance, seed=seed)
    return inst, spectral_init(inst.A, inst.b, seed), rpr_map(inst.A, inst.b)


def _run_trial(args):
    """One (cell, trial) work item: a fresh instance, a shared initial
    point, one solve per loss.  Returns one plain-dict outcome per loss,
    in ``config.losses`` order, keyed by the last six ``TRIAL_COLUMNS``."""
    n, p_fail, s_val, seed, config = args
    inst, x1, smooth_map = seeded_problem(config.d, n, p_fail, s_val, config.outlier_kind,
                                          config.noise_variance, seed)
    outcomes = []
    for spec in config.losses:
        loss = loss_from_spec(spec, n)
        try:
            record = solve(loss, smooth_map, x1, config.solver)
            rel, ok = success(record.x_final, inst.x_star)
            outcomes.append(dict(
                rel_error=rel, success=int(ok), iterations=record.iterations,
                termination=record.termination, seconds=record.wall_seconds, error="",
            ))
        except SolverError as err:
            # the solve failed inside step err.iteration, after
            # err.iteration - 1 completed steps and err.seconds on its clock
            outcomes.append(dict(
                rel_error=float("inf"), success=0, iterations=err.iteration - 1,
                termination="error", seconds=err.seconds, error=str(err),
            ))
    return outcomes


def run_sweep(config, workers=1):
    """Execute the whole grid and aggregate per (cell, loss).

    Rows come in config order: cells as :meth:`SweepConfig.cells` lists
    them, then losses as configured, then trials.  Deterministic for a
    fixed ``base_seed`` whatever the worker count: trial seeds are
    scheduling-independent, and both ``map``s return results in item
    order.  A solver failure is recorded on its trial row, counts as an
    unsuccessful trial, and never aborts the sweep.  ``workers`` is the
    process count, an integer >= 1; 1 runs serially in this process.
    """
    # an integer type only: workers=2.0 is an error, not read as 2
    if not isinstance(workers, (int, np.integer)):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    workers = _number(workers, "workers", integral=True, low=1)
    d, trials, cells = config.d, config.trials, config.cells()
    items = [(d * nd, p_fail, s_val, config.base_seed + t, config)
             for nd, p_fail, s_val in cells for t in range(trials)]
    if workers == 1:
        chunks = list(map(_run_trial, items))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_trial, items, chunksize=1))
    # one label and params cell per loss; the normalised parameters, so
    # that 1000 and 1000.0 write one cell
    losses = [(loss_label(spec), json.dumps(dict(sorted(spec_params(spec)[1].items()))))
              for spec in config.losses]

    trial_rows, summary = [], []
    for c, (nd, p_fail, s_val) in enumerate(cells):
        # the cell's trials, regrouped into one tuple of outcomes per loss
        per_loss = zip(*chunks[c * trials:(c + 1) * trials])
        for (label, params), outcomes in zip(losses, per_loss):
            key = {"d": d, "n": d * nd, "n_over_d": nd, "p_fail": p_fail, "s": s_val,
                   "loss": label, "params": params}
            trial_rows += [{**key, "trial": t, "seed": config.base_seed + t, **outcome}
                           for t, outcome in enumerate(outcomes)]
            summary.append({
                **key,
                "success_rate": sum(o["success"] for o in outcomes) / trials,
                "mean_rel_err": sum(o["rel_error"] for o in outcomes) / trials,
                "mean_seconds": sum(o["seconds"] for o in outcomes) / trials,
                "mean_iters": sum(o["iterations"] for o in outcomes) / trials,
            })
    return SweepResult(config=config, trial_rows=trial_rows, summary_rows=summary)


def emit_outputs(result, out_dir):
    """Write summary.csv, trials.csv, and one success-rate matrix per
    loss (and per outlier scale when several are swept).

    Heatmap files hold p_fail rows against n_over_d columns with an axis
    header row and column.  Returns the list of written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    for name, header, rows in (
        ("summary.csv", SUMMARY_COLUMNS, result.summary_rows),
        ("trials.csv", TRIAL_COLUMNS, result.trial_rows),
    ):
        path = os.path.join(out_dir, name)
        write_csv(path, header, [[row[col] for col in header] for row in rows])
        written.append(path)

    config = result.config
    by_key = {
        (row["loss"], row["s"], row["p_fail"], row["n_over_d"]): row["success_rate"]
        for row in result.summary_rows
    }
    single_s = len(config.s) == 1
    for spec in config.losses:
        label = loss_label(spec)
        for s_val in config.s:
            name = f"heatmap_{label}.csv" if single_s else f"heatmap_{label}_s{s_val:g}.csv"
            path = os.path.join(out_dir, name)
            rows = [
                [p_fail, *(by_key[(label, s_val, p_fail, nd)] for nd in config.n_over_d)]
                for p_fail in config.p_fail if by_key
            ]
            write_csv(path, ["p_fail\\n_over_d", *config.n_over_d], rows)
            written.append(path)
    return written


def sweep_config_from_dict(raw):
    """Build a :class:`SweepConfig` from parsed JSON; anything omitted
    takes the :class:`SweepConfig` / :class:`SolverConfig` default.

    The ``solver`` block takes :class:`SolverConfig` field names.  Unknown
    keys raise ``ValueError``; top-level keys starting with ``_`` are
    comments and are ignored.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"sweep config must be an object, got {raw!r}")
    kwargs = {k: v for k, v in raw.items() if not k.startswith("_")}
    _check_keys("sweep config", kwargs, [f.name for f in fields(SweepConfig)],
                required=("d", "n_over_d", "p_fail", "losses"))
    solver_raw = kwargs.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ValueError(f"solver must be an object of SolverConfig fields, got {solver_raw!r}")
    _check_keys("solver block", solver_raw, [f.name for f in fields(SolverConfig)])
    kwargs["solver"] = SolverConfig(**solver_raw)
    return SweepConfig(**kwargs)
