"""Command-line driver: single seeded solves and sweeps."""

import argparse
import json
import sys

from . import bench
from .losses import loss_from_spec, loss_label
from .retrieval import OUTLIER_KINDS, success
from .solver import SolverConfig, solve, write_trace


def _cmd_solve(args):
    spec = json.loads(args.loss)
    loss = loss_from_spec(spec, args.n)
    config = SolverConfig(
        rel_tol=args.rel_tol,
        max_iters=args.max_iters,
        time_cap_seconds=None if args.time_cap <= 0 else args.time_cap,
    )
    inst, x1, smooth_map = bench.seeded_problem(
        args.d, args.n, args.p_fail, args.s, args.outlier_kind,
        args.noise_variance, args.seed)
    record = solve(loss, smooth_map, x1, config)
    rel, ok = success(record.x_final, inst.x_star)
    print(f"loss={loss_label(spec)} iterations={record.iterations} "
          f"termination={record.termination} wall={record.wall_seconds:.3f}s")
    print(f"final cost={record.cost_values[-1]:.6g} rel_error={rel:.3e} success={ok}")
    if args.trace:
        write_trace(record, args.trace)
        print(f"trace written to {args.trace}")
    return 0


def _cmd_sweep(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    config = bench.sweep_config_from_dict(raw)
    result = bench.run_sweep(config, workers=args.workers)
    written = bench.emit_outputs(result, args.out)
    for path in written:
        print(f"wrote {path}")
    for row in result.summary_rows:
        print(f"n/d={row['n_over_d']} p_fail={row['p_fail']} s={row['s']} "
              f"{row['loss']}: success_rate={row['success_rate']:.2f} "
              f"mean_iters={row['mean_iters']:.1f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcvs",
        description="Variable-smoothing DC composite solver and robust "
                    "phase retrieval benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="generate one seeded instance and solve it")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-fail", type=float, default=0.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--outlier-kind", choices=OUTLIER_KINDS,
                   default=bench.SweepConfig.outlier_kind)
    p.add_argument("--noise-variance", type=float,
                   default=bench.SweepConfig.noise_variance)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the instance and of the spectral initializer")
    p.add_argument("--loss", required=True,
                   help='JSON spec, e.g. \'{"name": "trimmed_l1", "K_over_n": 0.4}\'; '
                        "unknown keys are rejected")
    p.add_argument("--trace", help="write the per-iteration trace CSV here")
    p.add_argument("--rel-tol", type=float, default=SolverConfig.rel_tol)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--time-cap", type=float, default=SolverConfig.time_cap_seconds,
                   help="wall-clock cap in seconds; <= 0 disables it")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="run a success-rate sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at least 1 (default: 1, serial)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
