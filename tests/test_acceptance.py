"""End-to-end acceptance gate.

One test per numbered criterion, each enforcing its stated tolerance and
printing a single pass/fail line (visible with ``pytest -s`` or on
failure).  Budgets are kept by sampling parameter ranges that keep the
brute-force grids affordable; tolerances are never loosened.
"""

import math

import numpy as np
import pytest
from helpers import draw_x_away_from_kinks, replay_iterates, sweep_cells, topk_grid_value

from dcvs import (
    SolverConfig,
    generate_instance,
    kappa_fn_for_loss,
    make_loss,
    rpr_map,
    solve,
    spectral_init,
    success,
    surrogate_at_residual,
    surrogate_oracle,
)
from dcvs.bench import SweepConfig, emit_outputs, run_sweep
from dcvs.oracle import brute_prox_nd, check_descent, fd_grad
from dcvs.prox import (
    huber_value,
    prox_capped_complement,
    prox_huber,
    prox_scaled_abs,
    prox_topk,
)


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


# --------------------------------------------------------------------------
# 1. prox oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_1_prox_oracle_equivalence():
    rng = np.random.default_rng(100)
    families = [
        ("scaled_abs",
         lambda t, mu, p: prox_scaled_abs(t, mu, p),
         lambda z, p: p * np.abs(z),
         lambda p: p),
        ("huber",
         lambda t, mu, p: prox_huber(t, 1.0, p, mu),
         lambda z, p: huber_value(z, 1.0, p),
         lambda p: 1.0),
        ("capped_complement",
         lambda t, mu, p: prox_capped_complement(t, p, mu),
         lambda z, p: np.maximum(np.abs(z) - p, 0.0),
         lambda p: 1.0),
    ]
    worst_scalar = 0.0
    for _name, prox_fn, value_fn, lip in families:
        for _ in range(1000):
            mu = float(rng.uniform(0.02, 0.4))
            p = float(rng.uniform(0.1, 1.0))
            t = float(rng.uniform(-4.0, 4.0))
            closed = float(prox_fn(t, mu, p))
            radius = 10.0 * mu * lip(p)
            z_star = brute_prox_nd(lambda zz: value_fn(zz, p), t, mu,
                                   radius=max(radius, 1e-3), step=1e-5)[0]

            def objective(zz):
                return float(value_fn(np.asarray(zz), p)) + (zz - t) ** 2 / (2 * mu)

            worst_scalar = max(worst_scalar, objective(closed) - objective(z_star))

    worst_topk = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        K = int(rng.integers(1, dim + 1))
        mu = float(rng.uniform(0.03, 0.12 if dim == 3 else 0.3))
        z = rng.uniform(-1.5, 1.5, dim)
        p = prox_topk(z, K, mu)

        def value(W):
            return topk_grid_value(W, K)

        def objective_nd(w):
            return float(value(np.atleast_2d(w))[0]) + float(
                np.sum((w - z) ** 2)) / (2 * mu)

        # a prox coordinate cannot move farther than mu from z
        w_star = brute_prox_nd(value, z, mu, radius=mu + 3e-3, step=1e-3)
        worst_topk = max(worst_topk, objective_nd(p) - objective_nd(w_star))

    ok = worst_scalar <= 1e-8 and worst_topk <= 1e-6
    _line(1, ok, f"prox oracle gaps: scalar {worst_scalar:.2e} (tol 1e-8), "
                 f"top-K {worst_topk:.2e} (tol 1e-6)")
    assert worst_scalar <= 1e-8
    assert worst_topk <= 1e-6


# --------------------------------------------------------------------------
# 2. gradient consistency
# --------------------------------------------------------------------------

def test_criterion_2_gradient_consistency():
    rng = np.random.default_rng(200)
    worst = 0.0
    for loss_builder in (
        lambda n: make_loss("l1", n),
        lambda n: make_loss("mcp", n, lam=1.0, beta=10.0),
        lambda n: make_loss("capped_l1", n, beta=10.0),
        lambda n: make_loss("trimmed_l1", n, K=25),
    ):
        loss = loss_builder(100)
        for i in range(100):
            inst = generate_instance(20, 100, 0.2, 1.0, seed=2000 + i)
            m = rpr_map(inst.A, inst.b)
            mu = float(rng.uniform(0.05, 1.0))
            x = draw_x_away_from_kinks(rng, loss, inst.A, m, mu, scale=0.5)
            _, grad = surrogate_oracle(loss, m, x, mu)
            fd = fd_grad(
                lambda y: surrogate_at_residual(loss, m.eval(y)[0], mu)[0], x)
            worst = max(worst, float(np.linalg.norm(fd - grad))
                        / (1.0 + float(np.linalg.norm(grad))))
    ok = worst <= 1e-5
    _line(2, ok, f"surrogate gradient vs finite differences, worst relative "
                 f"error {worst:.2e} (tol 1e-5)")
    assert ok


# --------------------------------------------------------------------------
# 3. descent-assumption fuzz
# --------------------------------------------------------------------------

def test_criterion_3_descent_assumption_fuzz():
    rng = np.random.default_rng(300)
    violations = 0
    total = 0
    for loss_builder in (
        lambda n: make_loss("l1", n),
        lambda n: make_loss("mcp", n, lam=1.0, beta=10.0),
        lambda n: make_loss("capped_l1", n, beta=10.0),
        lambda n: make_loss("trimmed_l1", n, K=30),
    ):
        loss = loss_builder(100)
        for block in range(5):
            inst = generate_instance(20, 100, 0.25, 1.0, seed=3000 + block)
            m = rpr_map(inst.A, inst.b)
            kap = kappa_fn_for_loss(inst.A, inst.b, loss)
            for _ in range(2000):
                mu = float(rng.uniform(0.01, 1.0))
                x = rng.standard_normal(20)
                y = rng.standard_normal(20)
                total += 1
                if not check_descent(
                    lambda p: surrogate_oracle(loss, m, p, mu), x, y, kap(mu)
                ):
                    violations += 1
    ok = violations == 0
    _line(3, ok, f"quadratic upper bound held in {total - violations}/{total} "
                 f"random triples")
    assert ok


# --------------------------------------------------------------------------
# 4. per-iteration inequalities on full runs
# --------------------------------------------------------------------------

def test_criterion_4_per_iteration_inequalities():
    p_fails = (0.0, 0.1, 0.2, 0.3, 0.4)
    n = 500
    losses = (
        ("l1", lambda: make_loss("l1", n)),
        ("mcp", lambda: make_loss("mcp", n, lam=1.0, beta=500.0)),
        ("capped_l1", lambda: make_loss("capped_l1", n, beta=500.0)),
        ("trimmed_l1", lambda: make_loss("trimmed_l1", n, K=150)),
    )
    cfg = SolverConfig(max_iters=3000, time_cap_seconds=None)
    runs = 0
    checked_iters = 0
    for run_idx, (p_fail, (label, build)) in enumerate(
        (p, l) for l in losses for p in p_fails
    ):
        inst = generate_instance(50, n, p_fail, 1.0, seed=4000 + run_idx)
        m = rpr_map(inst.A, inst.b)
        loss = build()
        kap = kappa_fn_for_loss(inst.A, inst.b, loss)
        x1 = spectral_init(inst.A, inst.b, 4000 + run_idx)
        rec = solve(loss, m, x1, cfg)
        xs, _ = replay_iterates(loss, m, x1, rec)
        runs += 1
        c, rho = cfg.c, cfg.rho
        for i in range(rec.iterations):
            checked_iters += 1
            mu = rec.mus[i]
            kappa = kap(mu)
            # Armijo re-verification
            lhs = surrogate_at_residual(loss, m.eval(xs[i + 1])[0], mu, grad=False)
            rhs = rec.surrogate_values[i] - c * rec.gammas[i] * rec.grad_norms[i] ** 2
            assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs)), (label, p_fail, i)
            # stepsize floor
            floor = min(rec.gamma_inits[i], 2.0 * (1.0 - c) * rho / kappa)
            assert rec.gammas[i] >= floor * (1.0 - 1e-12), (label, p_fail, i)
            # backtrack-count ceiling
            arg = 2.0 * (1.0 - c) / (kappa * rec.gamma_inits[i])
            ceiling = max(0, math.ceil(math.log(arg) / math.log(rho) - 1e-12))
            assert rec.backtrack_counts[i] <= ceiling, (label, p_fail, i)
        # telescoped descent across the recorded evaluations
        L_f2 = loss.L_f**2
        for i in range(rec.mus.size - 1):
            bound = (
                rec.surrogate_values[i]
                - c * rec.gammas[i] * rec.grad_norms[i] ** 2
                + (rec.mus[i] - rec.mus[i + 1]) * L_f2
            )
            assert rec.surrogate_values[i + 1] <= bound + 1e-9 * (1.0 + abs(bound)), (
                label, p_fail, i,
            )
    _line(4, True, f"Armijo, stepsize floor, backtrack ceiling, telescoped "
                   f"descent held on {runs} runs / {checked_iters} iterations")


# --------------------------------------------------------------------------
# 5 + 8. desk-scale success rates and byte-level determinism
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def outlier_sweep(tmp_path_factory):
    config = SweepConfig(
        d=100,
        n_over_d=[10],
        p_fail=[0.4],
        s=[1.0],
        losses=[{"name": "trimmed_l1", "K_over_n": 0.4}, {"name": "l1"}],
        trials=20,
        base_seed=0,
        outlier_kind="cauchy",
        # no wall-clock cap: outcomes must depend only on seeds
        solver=SolverConfig(time_cap_seconds=None),
    )
    res1 = run_sweep(config, workers=1)
    res8 = run_sweep(config, workers=8)
    dir1 = tmp_path_factory.mktemp("sweep_w1")
    dir8 = tmp_path_factory.mktemp("sweep_w8")
    emit_outputs(res1, dir1)
    emit_outputs(res8, dir8)
    return res1, res8, dir1, dir8


def test_criterion_5_success_rate_reproduction(outlier_sweep):
    res1, _, _, _ = outlier_sweep
    rates = {row["loss"]: row["success_rate"] for row in res1.summary_rows}
    trimmed = rates["trimmed_l1_Kn0.4"]
    plain = rates["l1"]
    ok = trimmed >= 0.8 and plain < trimmed
    _line(5, ok, f"20 trials at p_fail=0.4: trimmed l1 success {trimmed:.2f} "
                 f"(needs >= 0.8), plain l1 {plain:.2f} (needs strictly lower)")
    assert trimmed >= 0.8
    assert plain < trimmed


def test_criterion_8_determinism_across_workers(outlier_sweep):
    _, _, dir1, dir8 = outlier_sweep
    mismatches = []
    for name in ("summary.csv", "trials.csv", "heatmap_trimmed_l1_Kn0.4.csv",
                 "heatmap_l1.csv"):
        if sweep_cells(dir1 / name) != sweep_cells(dir8 / name):
            mismatches.append(name)
    ok = not mismatches
    _line(8, ok, "1-worker and 8-worker sweeps identical cell for cell outside "
                 "the wall-clock columns"
                 + ("" if ok else f"; mismatched: {mismatches}"))
    assert ok


# --------------------------------------------------------------------------
# 6. outlier-free sanity
# --------------------------------------------------------------------------

def test_criterion_6_outlier_free_sanity():
    cfg = SolverConfig(time_cap_seconds=None)
    successes = 0
    clean_stops = 0
    for seed in range(20):
        inst = generate_instance(100, 1000, 0.0, 1.0, seed=seed)
        m = rpr_map(inst.A, inst.b)
        rec = solve(make_loss("l1", 1000), m, spectral_init(inst.A, inst.b, seed), cfg)
        _, ok = success(rec.x_final, inst.x_star)
        successes += ok
        clean_stops += rec.termination == "rel_tol" and rec.iterations < 10000
    ok = successes == 20 and clean_stops == 20
    _line(6, ok, f"outlier-free l1 recovery {successes}/20, "
                 f"relative-change stops before the iteration cap {clean_stops}/20")
    assert successes == 20
    assert clean_stops == 20


# --------------------------------------------------------------------------
# 7. iteration-count plausibility
# --------------------------------------------------------------------------

def test_criterion_7_iteration_count_plausibility():
    cfg = SolverConfig(time_cap_seconds=None)
    iters = []
    for seed in range(20):
        inst = generate_instance(100, 1000, 0.35, 1.0, seed=seed)
        m = rpr_map(inst.A, inst.b)
        rec = solve(make_loss("capped_l1", 1000, beta=1000.0), m,
                    spectral_init(inst.A, inst.b, seed), cfg)
        iters.append(rec.iterations)
    median = float(np.median(iters))
    ok = 20 <= median <= 2000
    _line(7, ok, f"capped l1 (beta=1000) at p_fail=0.35: median iterations "
                 f"{median:.0f}, allowed [20, 2000]")
    assert ok
