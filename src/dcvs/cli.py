"""Command-line driver: instance generation, single solves, sweeps, and
a quick self-check of the closed forms against the brute-force oracles.
"""

import argparse
import json
import sys

import numpy as np

from . import bench, oracle, prox
from .losses import make_loss, surrogate_at_residual
from .maps import rpr_map
from .retrieval import (
    generate_instance,
    kappa_fn_for_loss,
    load_instance,
    save_instance,
    spectral_init,
    success,
)
from .solver import SolverConfig, solve, surrogate_oracle, write_trace


def _cmd_gen(args):
    inst = generate_instance(
        args.d, args.n, args.p_fail, args.s,
        outlier_kind=args.outlier_kind,
        noise_variance=args.noise_variance,
        seed=args.seed,
    )
    save_instance(inst, args.out)
    print(f"wrote {args.out}: d={args.d} n={args.n} "
          f"outliers={inst.outlier_idx.size} seed={args.seed}")
    return 0


def _cmd_solve(args):
    inst = load_instance(args.instance)
    n = inst.b.size
    spec = json.loads(args.loss)
    loss = bench.loss_from_spec(spec, n)
    smooth_map = rpr_map(inst.A, inst.b)
    time_cap = args.time_cap if args.time_cap > 0 else None
    config = SolverConfig(
        rel_tol=args.rel_tol,
        max_iters=args.max_iters,
        time_cap_seconds=time_cap,
    )
    init_seed = args.init_seed if args.init_seed is not None else inst.params.seed
    x1 = spectral_init(inst.A, inst.b, init_seed)
    record = solve(loss, smooth_map, x1, config)
    rel, ok = success(record.x_final, inst.x_star)
    print(f"loss={bench.loss_label(spec)} iterations={record.iterations} "
          f"termination={record.termination} wall={record.wall_seconds:.3f}s")
    print(f"final cost={record.final_cost:.6g} rel_error={rel:.3e} success={ok}")
    if args.trace:
        write_trace(record, args.trace)
        print(f"trace written to {args.trace}")
    return 0


def _cmd_sweep(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    config = bench.sweep_config_from_dict(raw)
    out_dir = args.out or config.output_dir
    if not out_dir:
        print("no output directory: pass --out or set output_dir in the config",
              file=sys.stderr)
        return 2
    result = bench.run_sweep(config, workers=args.workers)
    written = bench.emit_outputs(result, out_dir)
    for path in written:
        print(f"wrote {path}")
    for row in result.summary_rows:
        print(f"n/d={row['n_over_d']} p_fail={row['p_fail']} s={row['s']} "
              f"{row['loss']}: success_rate={row['success_rate']:.2f} "
              f"mean_iters={row['mean_iters']:.1f}")
    return 0


def _selfcheck_scalar_prox(rng, cases=25):
    setups = [
        ("scaled abs", lambda t, mu, p: prox.prox_scaled_abs(t, mu, p),
         lambda z, p: p * np.abs(z)),
        ("huber", lambda t, mu, p: prox.prox_huber(t, 1.0, p, mu),
         lambda z, p: prox.huber_value(z, 1.0, p)),
        ("capped complement", lambda t, mu, p: prox.prox_capped_complement(t, p, mu),
         lambda z, p: np.maximum(np.abs(z) - p, 0.0)),
    ]
    worst = {}
    for name, prox_fn, value_fn in setups:
        gap = 0.0
        for _ in range(cases):
            t = rng.uniform(-4, 4)
            mu = rng.uniform(0.05, 1.0)
            p = rng.uniform(0.2, 2.0)
            closed = float(prox_fn(t, mu, p))
            zo = oracle.brute_prox_1d(lambda z: value_fn(z, p), t, mu,
                                      radius=max(2 * mu * p, 2 * mu, 0.1),
                                      step=1e-5)
            obj = lambda z: float(value_fn(np.asarray(z), p)) + (z - t) ** 2 / (2 * mu)
            gap = max(gap, obj(closed) - obj(zo))
        worst[name] = gap
    ok = all(g <= 1e-8 for g in worst.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    return ok, f"scalar prox vs grid oracle ({detail})"


def _selfcheck_topk(rng, cases=20):
    gap = 0.0
    for _ in range(cases):
        dim = rng.integers(1, 4)
        K = int(rng.integers(0, dim + 1))
        mu = rng.uniform(0.05, 0.25)
        z = rng.uniform(-1.5, 1.5, dim)
        p = prox.prox_topk(z, K, mu)
        if K == 0:
            gap = max(gap, float(np.abs(p - z).max()))
            continue
        value = lambda W: np.sort(np.abs(W), axis=-1)[..., -K:].sum(axis=-1)
        w = oracle.brute_prox_nd(value, z, mu, radius=mu + 0.01, step=1e-3)
        obj = lambda q: float(value(q)) + float(np.sum((q - z) ** 2)) / (2 * mu)
        gap = max(gap, obj(p) - obj(w))
    return gap <= 1e-6, f"top-K prox vs grid oracle (max objective gap {gap:.2e})"


def _selfcheck_gradient(rng):
    d, n = 10, 40
    inst = generate_instance(d, n, 0.2, 1.0, seed=7)
    smooth_map = rpr_map(inst.A, inst.b)
    worst = 0.0
    for name, kwargs in (("l1", {}), ("mcp", {"lam": 1.0, "beta": 5.0}),
                         ("capped_l1", {"beta": 5.0}), ("trimmed_l1", {"K": 8})):
        loss = make_loss(name, n, **kwargs)
        x = rng.standard_normal(d)
        mu = 0.37
        _, grad = surrogate_oracle(loss, smooth_map, x, mu)
        fd = oracle.fd_grad(
            lambda y: surrogate_at_residual(loss, smooth_map.eval(y), mu)[0], x)
        worst = max(worst, float(np.linalg.norm(fd - grad))
                    / (1.0 + float(np.linalg.norm(grad))))
    return worst <= 1e-5, f"surrogate gradient vs finite differences (worst {worst:.2e})"


def _selfcheck_descent(rng, cases=200):
    d, n = 10, 40
    inst = generate_instance(d, n, 0.25, 1.0, seed=11)
    smooth_map = rpr_map(inst.A, inst.b)
    loss = make_loss("trimmed_l1", n, K=10)
    kappa = kappa_fn_for_loss(inst.A, inst.b, loss)
    bad = 0
    for _ in range(cases):
        mu = rng.uniform(0.01, 1.0)
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        ok = oracle.check_descent(
            lambda p: surrogate_oracle(loss, smooth_map, p, mu), x, y, kappa(mu))
        bad += not ok
    return bad == 0, f"descent inequality fuzz ({cases} triples, {bad} violations)"


def _cmd_selfcheck(_args):
    rng = np.random.default_rng(0)
    checks = (
        _selfcheck_scalar_prox(rng),
        _selfcheck_topk(rng),
        _selfcheck_gradient(rng),
        _selfcheck_descent(rng),
    )
    failures = 0
    for ok, message in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {message}")
        failures += not ok
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcvs",
        description="Variable-smoothing DC composite solver and robust "
                    "phase retrieval benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-fail", type=float, default=0.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--outlier-kind", choices=("cauchy", "uniform"), default="cauchy")
    p.add_argument("--noise-variance", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--loss", required=True,
                   help='JSON spec, e.g. \'{"name": "trimmed_l1", "K_over_n": 0.4}\'; '
                        "unknown keys are rejected")
    p.add_argument("--trace", help="write the per-iteration trace CSV here")
    p.add_argument("--rel-tol", type=float, default=1e-7)
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--time-cap", type=float, default=30.0,
                   help="wall-clock cap in seconds; <= 0 disables it")
    p.add_argument("--init-seed", type=int, default=None,
                   help="seed for the spectral initializer "
                        "(defaults to the instance seed)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="run a success-rate sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes; the DCVS_WORKERS environment "
                        "variable overrides this")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("selfcheck", help="run the oracle cross-check suite")
    p.set_defaults(func=_cmd_selfcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
