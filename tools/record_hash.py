"""Hash every record of a block of seeded solves, to check that a change
keeps the solver's output bit for bit.

    python3 tools/record_hash.py                                # d=100, n=1000, seeds 0-31
    python3 tools/record_hash.py --d 400 --n 4000 --seeds 4
    python3 tools/record_hash.py --sweep                        # configs/reduced_sweep.json
    python3 tools/record_hash.py --sweep CONFIG

Builds each instance with ``bench.seeded_problem(d, n, p_fail, 1.0,
"cauchy", 1e-6, seed)`` for seeds ``0 .. seeds-1`` and solves it from its
spectral start with ``l1``, ``mcp`` (lambda=1, beta=1000), ``capped_l1``
(beta=1000) and ``trimmed_l1`` (K=round(0.4*n)) under
``SolverConfig(time_cap_seconds=None)``.  Prints the iteration total and
the termination counts per loss, then a 16-hex sha256 over ``x_final``,
``mus``, ``surrogate_values``, ``grad_norms``, ``cost_values``,
``gammas``, ``gamma_inits``, ``backtrack_counts`` and ``termination`` of
each solve, in that order.  The defaults are the seed-0 block of
perfbench's ``solve-d100`` workload; ``--d 400 --n 4000 --seeds 4`` is
that of ``solve-d400``.  At ``d = 100`` ``spectral_init`` builds its
quadratic form in one product, and from ``d = 192`` in row blocks, so a
change to the set-up must also be checked with ``--d 400 --n 4000
--seeds 4``.

``--sweep [CONFIG]`` checks a sweep instead (``configs/reduced_sweep.json``
by default).  It sets ``solver.time_cap_seconds`` to null and runs
``run_sweep`` and ``emit_outputs`` at workers 1 and 2, each into a
temporary directory.  It reads every written file back with
``csv.reader`` and drops the wall-clock columns ``seconds`` and
``mean_seconds``.  It exits 1 if the two worker counts wrote different
cells; otherwise it prints a 16-hex sha256 of the parsed cells per file
name.  Hashing parsed cells, not bytes, makes the lines independent of
how the CSV encoder quotes a cell.

It imports ``dcvs`` from the ``src`` directory of the checkout it sits
in, so a copy of this file in another checkout hashes that checkout.
BLAS runs on one thread, pinned before numpy loads: the iteration counts
differ at two.  The hash is a property of the machine's BLAS too, so
compare it only between runs on one machine.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from dcvs import SolverConfig, make_loss, solve
from dcvs.bench import emit_outputs, run_sweep, seeded_problem, sweep_config_from_dict

HASHED = ("x_final", "mus", "surrogate_values", "grad_norms", "cost_values",
          "gammas", "gamma_inits", "backtrack_counts")
# a copy of dcvs.bench.TIMING_COLUMNS, since the tool also runs in older checkouts without it
TIMING_COLUMNS = ("seconds", "mean_seconds")


def losses(n):
    return {
        "l1": make_loss("l1", n),
        "mcp": make_loss("mcp", n, lam=1.0, beta=1000.0),
        "capped_l1": make_loss("capped_l1", n, beta=1000.0),
        "trimmed_l1": make_loss("trimmed_l1", n, K=round(0.4 * n)),
    }


def cells_digest(path):
    """sha256 of the cells of the CSV at ``path`` as ``csv.reader`` reads
    them, with the wall-clock columns left out."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    keep = [j for j, col in enumerate(header) if col not in TIMING_COLUMNS]
    cells = [[row[j] for j in keep] for row in (header, *rows)]
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


def sweep_digests(raw, workers):
    """``{file name: cells_digest}`` for one sweep run."""
    with tempfile.TemporaryDirectory() as out:
        paths = emit_outputs(run_sweep(sweep_config_from_dict(raw), workers=workers), out)
        return {Path(path).name: cells_digest(path) for path in paths}


def check_sweep(config_path):
    with open(config_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["solver"] = {**raw.get("solver", {}), "time_cap_seconds": None}
    serial, pooled = sweep_digests(raw, 1), sweep_digests(raw, 2)
    differ = sorted(name for name in serial.keys() | pooled.keys()
                    if serial.get(name) != pooled.get(name))
    if differ:
        print(f"workers 1 and 2 wrote different cells in {differ}")
        return 1
    print(f"sweep {Path(config_path).name}, time cap off: workers 1 and 2 agree")
    for name, digest in serial.items():
        print(f"sha256 {digest[:16]}  {name}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--d", type=int, default=100)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--p-fail", type=float, default=0.4)
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("--sweep", nargs="?", metavar="CONFIG",
                        const=str(ROOT / "configs" / "reduced_sweep.json"),
                        help="check a sweep config instead (default: the reduced sweep)")
    args = parser.parse_args(argv)
    if args.sweep is not None:
        return check_sweep(args.sweep)

    config = SolverConfig(time_cap_seconds=None)
    catalog = losses(args.n)
    iterations = Counter()
    ends = {name: Counter() for name in catalog}
    digest = hashlib.sha256()
    for seed in range(args.seeds):
        _, x1, smooth_map = seeded_problem(args.d, args.n, args.p_fail, 1.0,
                                           "cauchy", 1e-6, seed)
        for name, loss in catalog.items():
            record = solve(loss, smooth_map, x1, config)
            for attr in HASHED:
                digest.update(np.ascontiguousarray(getattr(record, attr)).tobytes())
            digest.update(record.termination.encode())
            iterations[name] += record.iterations
            ends[name][record.termination] += 1
    print(f"d={args.d} n={args.n} p_fail={args.p_fail} seeds 0-{args.seeds - 1}")
    for name in catalog:
        print(f"{name:12s} iterations {iterations[name]:6d}  {dict(ends[name])}")
    print(f"sha256 {digest.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
