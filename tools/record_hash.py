"""Hash every record of a block of seeded solves, to check that a change
keeps the solver's output bit for bit.

    python3 tools/record_hash.py                                # d=100, n=1000, seeds 0-31
    python3 tools/record_hash.py --d 400 --n 4000 --seeds 4

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
that of ``solve-d400``.

It imports ``dcvs`` from the ``src`` directory of the checkout it sits
in, so a copy of this file in another checkout hashes that checkout.
BLAS runs on one thread, pinned before numpy loads: the iteration counts
differ at two.  The hash is a property of the machine's BLAS too, so
compare it only between runs on one machine.
"""

import argparse
import hashlib
import os
import sys
from collections import Counter
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from dcvs import SolverConfig, make_loss, solve
from dcvs.bench import seeded_problem

HASHED = ("x_final", "mus", "surrogate_values", "grad_norms", "cost_values",
          "gammas", "gamma_inits", "backtrack_counts")


def losses(n):
    return {
        "l1": make_loss("l1", n),
        "mcp": make_loss("mcp", n, lam=1.0, beta=1000.0),
        "capped_l1": make_loss("capped_l1", n, beta=1000.0),
        "trimmed_l1": make_loss("trimmed_l1", n, K=round(0.4 * n)),
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--d", type=int, default=100)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--p-fail", type=float, default=0.4)
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)

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
