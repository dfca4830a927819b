"""Solve a block of seeded solves, hash their records to check that a
change keeps the solver's output bit for bit, and measure the block
against its own roundoff noise: the band that one-ulp changes of the
start give, per loss.

    python3 tools/yardstick.py                      # d=100, n=1000, seeds 0-31: the bits
    python3 tools/yardstick.py --d 400 --n 4000 --seeds 4
    python3 tools/yardstick.py --starts 8           # the bits and the band
    python3 tools/yardstick.py --sweep configs/reduced_sweep.json --workers 1
    python3 tools/yardstick.py --sweep configs/grid5_d100.json --start 0 --out DIR
    python3 tools/yardstick.py --sweep CONFIG --out DIR --compare OTHER/trials.csv

The block is each instance of ``bench.seeded_problem(d, n, p_fail, 1.0,
"cauchy", 1e-6, seed)`` for seeds ``0 .. seeds-1``, solved with ``l1``,
``mcp`` (lambda=1, beta=1000), ``capped_l1`` (beta=1000) and
``trimmed_l1`` (K=round(0.4*n)) under ``SolverConfig(time_cap_seconds=None)``.
The defaults are the seed-0 block of perfbench's ``solve-d100`` workload;
``--d 400 --n 4000 --seeds 4`` is that of ``solve-d400``.
``spectral_init`` builds its quadratic form in three row panels at
``d = 100`` and eleven at ``d = 400``, so the default hash checks the
set-up too; check a change to the set-up at d=400 as well.

It solves the block from its spectral start and from ``--starts M``
(default 0) perturbed ones.  Start ``j`` (0..M-1) moves entry ``i`` of the
spectral start one ulp up where ``default_rng([j, seed]).integers(0, 2,
d)[i] == 1``, and one ulp down otherwise.  Per loss it prints, at the
shipped start and then as min-max over the M starts:

* successes (relative error below 1e-3, up to sign);
* the iteration total;
* roundoff-limited steps, ``RunRecord.roundoff_limited_steps``;
* floor violations: steps whose gamma is below the stepsize floor
  ``min(gamma_init, 2(1-c)rho/kappa(mu))`` of acceptance criterion 4,
  with kappa from ``kappa_fn_for_loss``;
* the count of each termination.

Its last line is a 16-hex sha256 over ``HASHED`` and ``termination`` of
each shipped-start solve, seed by seed and loss by loss.  A figure of a
numerical change is an effect only where the bands of the two trees do
not overlap.

``--sweep CONFIG`` runs a sweep config instead, once, with the time cap
off, at ``--workers`` (default 2), from the shipped start or, with
``--start J``, from perturbed start ``J``, drawn as above with the
trial's seed.  Per loss label it prints successes, terminations, error
rows and summed solve seconds, then a 16-hex sha256 per written file of
its cells as ``csv.reader`` reads them, without ``TIMING_COLUMNS``; the
digests do not depend on how the CSV encoder quotes a cell.  Two runs at
different ``--workers`` must print the same digests.  ``--out DIR``
keeps the written CSVs; ``--compare TRIALS`` prints, per loss label, the
success flips against a ``trials.csv`` an earlier run wrote (``+`` now
succeeds, ``-`` now fails).  TRIALS is read before the sweep runs, so it
may be the ``trials.csv`` that ``--out`` overwrites, and it must hold
every trial row of this sweep.

BLAS runs on one thread, pinned before numpy loads: the iteration counts
differ at two.  The tool imports ``dcvs`` from the ``src`` directory of
the checkout it sits in, so a copy of this file in another checkout
measures that checkout.  The hashes are a property of the machine's BLAS
too, so compare them only between runs on one machine.
"""

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import dcvs.bench
from dcvs import SolverConfig, kappa_fn_for_loss, make_loss, solve, success
from dcvs.bench import (TIMING_COLUMNS, emit_outputs, run_sweep, seeded_problem,
                        sweep_config_from_dict)

HASHED = ("x_final", "mus", "surrogate_values", "grad_norms", "cost_values",
          "gammas", "gamma_inits", "backtrack_counts")
TERMINATIONS = ("rel_tol", "stationary", "max_iters", "time_cap")
COUNTS = ("successes", "iterations", "roundoff", "floor")
TRIAL_KEY = ("n", "p_fail", "s", "loss", "trial")


def losses(n):
    return {
        "l1": make_loss("l1", n),
        "mcp": make_loss("mcp", n, lam=1.0, beta=1000.0),
        "capped_l1": make_loss("capped_l1", n, beta=1000.0),
        "trimmed_l1": make_loss("trimmed_l1", n, K=round(0.4 * n)),
    }


def perturbed(x1, start, seed):
    """Start ``start`` of the spectral point ``x1`` of instance ``seed``:
    ``x1`` itself for None, else every entry one ulp up or down."""
    if start is None:
        return x1
    up = np.random.default_rng([start, seed]).integers(0, 2, x1.size) == 1
    return np.where(up, np.nextafter(x1, np.inf), np.nextafter(x1, -np.inf))


def floor_violations(record, kappa, config):
    """Steps of ``record`` whose gamma is below criterion 4's floor."""
    floors = np.minimum(record.gamma_inits, [2.0 * (1.0 - config.c) * config.rho / kappa(mu)
                                             for mu in record.mus[:record.iterations]])
    return int(np.sum(record.gammas < floors * (1.0 - 1e-12)))


def block_counts(problems, catalog, config, start, digest=None):
    """Per loss, ``COUNTS`` and the termination counts of one start;
    each record also feeds ``digest`` if one is given."""
    table = {name: Counter() for name in catalog}
    for seed, (inst, x1, smooth_map, kappas) in enumerate(problems):
        x = perturbed(x1, start, seed)
        for name, loss in catalog.items():
            record = solve(loss, smooth_map, x, config)
            if digest is not None:
                for attr in HASHED:
                    digest.update(np.ascontiguousarray(getattr(record, attr)).tobytes())
                digest.update(record.termination.encode())
            table[name].update(successes=int(success(record.x_final, inst.x_star)[1]),
                               iterations=record.iterations,
                               roundoff=record.roundoff_limited_steps,
                               floor=floor_violations(record, kappas[name], config))
            table[name][record.termination] += 1
    return table


def check_block(args):
    config = SolverConfig(time_cap_seconds=None)
    catalog = losses(args.n)
    problems = []
    for seed in range(args.seeds):
        inst, x1, smooth_map = seeded_problem(args.d, args.n, args.p_fail, 1.0, "cauchy",
                                              1e-6, seed)
        kappas = {name: kappa_fn_for_loss(inst.A, inst.b, loss) for name, loss in catalog.items()}
        problems.append((inst, x1, smooth_map, kappas))
    digest = hashlib.sha256()
    shipped = block_counts(problems, catalog, config, None, digest)
    band = [block_counts(problems, catalog, config, j) for j in range(args.starts)]
    print(f"d={args.d} n={args.n} p_fail={args.p_fail} seeds 0-{args.seeds - 1}, "
          f"shipped start and {args.starts} one-ulp starts")
    print(f"{'loss':12s} {'start':8s}" + "".join(f" {c:>13s}" for c in COUNTS + TERMINATIONS))
    for name in catalog:
        print(f"{name:12s} {'shipped':8s}"
              + "".join(f" {shipped[name][c]:13d}" for c in COUNTS + TERMINATIONS))
        if band:
            cells = [[counts[name][c] for counts in band] for c in COUNTS + TERMINATIONS]
            print(f"{name:12s} {'band':8s}" + "".join(f" {f'{min(v)}-{max(v)}':>13s}"
                                                       for v in cells))
    print(f"sha256 {digest.hexdigest()[:16]}")
    return 0


def read_csv(path):
    """The rows of the CSV at ``path`` as ``csv.reader`` reads them."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def read_trials(table):
    header, *rows = table
    return [dict(zip(header, row)) for row in rows]


def cells_digest(table):
    """16-hex sha256 of the cells of ``table``, without the wall-clock columns."""
    keep = [j for j, col in enumerate(table[0]) if col not in TIMING_COLUMNS]
    cells = [[row[j] for j in keep] for row in table]
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()[:16]


def trial_key(row):
    """A trial row's cell, loss label and trial index."""
    return tuple(row[col] for col in TRIAL_KEY)


def check_sweep(args):
    # read before the sweep runs: --out may overwrite the compared file
    before = ({trial_key(row): row["success"] for row in read_trials(read_csv(args.compare))}
              if args.compare else None)
    with open(args.sweep, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["solver"] = {**raw.get("solver", {}), "time_cap_seconds": None}
    shipped_init = dcvs.bench.spectral_init
    # seeded_problem looks spectral_init up at call time; forked pool
    # workers inherit the rebinding (main refuses other start methods)
    dcvs.bench.spectral_init = lambda A, b, seed: perturbed(shipped_init(A, b, seed),
                                                            args.start, seed)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = emit_outputs(run_sweep(sweep_config_from_dict(raw), workers=args.workers),
                                 args.out or tmp)
            tables = {Path(path).name: read_csv(path) for path in paths}
    finally:
        dcvs.bench.spectral_init = shipped_init
    rows = read_trials(tables["trials.csv"])
    for row in rows:
        if before is not None and trial_key(row) not in before:
            sys.exit(f"{args.compare} lacks this sweep's row "
                     + ", ".join(f"{col}={row[col]}" for col in TRIAL_KEY))
    start = "shipped" if args.start is None else args.start
    print(f"sweep {Path(args.sweep).name}, time cap off, start {start}")
    for label in dict.fromkeys(row["loss"] for row in rows):
        mine = [row for row in rows if row["loss"] == label]
        ends = Counter(row["termination"] for row in mine if not row["error"])
        line = (f"{label}: successes {sum(row['success'] == '1' for row in mine)}/{len(mine)}"
                f", errors {sum(bool(row['error']) for row in mine)}"
                f", {dict(sorted(ends.items()))}"
                f", seconds {sum(float(row['seconds']) for row in mine):.1f}")
        if before is not None:
            was = [before[trial_key(row)] for row in mine]
            gained = sum(w == "0" and row["success"] == "1" for w, row in zip(was, mine))
            lost = sum(w == "1" and row["success"] == "0" for w, row in zip(was, mine))
            line += f", flips +{gained}/-{lost}"
        print(line)
    for name, table in tables.items():
        print(f"sha256 {cells_digest(table)}  {name}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--d", type=int, default=100)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--p-fail", type=float, default=0.4)
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("--starts", type=int, default=0)
    parser.add_argument("--sweep", metavar="CONFIG", help="run a sweep config instead")
    parser.add_argument("--start", type=int, help="the sweep's perturbed start (default: shipped)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", help="directory for the sweep's CSVs")
    parser.add_argument("--compare", metavar="TRIALS", help="an earlier trials.csv")
    args = parser.parse_args(argv)
    if args.starts < 0 or (args.start is not None and args.start < 0):
        parser.error("--starts and --start must be nonnegative")
    if args.seeds < 1:
        parser.error("--seeds must be at least 1: a block of no solve hashes as any other")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    sweep_only = [flag for flag in ("--start", "--out", "--compare")
                  if getattr(args, flag[2:]) is not None]
    if sweep_only and not args.sweep:
        parser.error(f"{', '.join(sweep_only)} apply only with --sweep")
    if (args.start is not None and args.workers > 1
            and multiprocessing.get_start_method() != "fork"):
        parser.error("--start reaches pool workers only when they fork; use --workers 1")
    return check_sweep(args) if args.sweep else check_block(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
