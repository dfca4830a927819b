import csv
import dataclasses

import numpy as np
import pytest
from helpers import catalog_losses, replay_iterates, small_instance

from dcvs import (
    SolverConfig,
    backtrack,
    generate_instance,
    make_loss,
    mu_schedule,
    rpr_map,
    solve,
    spectral_init,
    surrogate_at_residual,
    surrogate_oracle,
)
import dcvs.solver
from dcvs.bench import seeded_problem
from dcvs.solver import SolverError, write_csv, write_trace


def test_mu_schedule_values():
    assert mu_schedule(1, 0.5, 3) == pytest.approx(1.0)
    assert mu_schedule(8, 0.5, 3) == pytest.approx(0.5)
    assert mu_schedule(1, 1.0, 1) == pytest.approx(0.5)


def test_mu_schedule_monotone_and_capped():
    vals = [mu_schedule(k, 0.5, 3) for k in range(1, 200)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert max(vals) <= 1.0
    with pytest.raises(ValueError):
        mu_schedule(0, 0.5, 3)
    with pytest.raises(ValueError):
        mu_schedule(2, 0.5, 0.5)


def test_surrogate_oracle_exact_instance():
    inst = generate_instance(5, 20, 0.0, 1.0, noise_variance=0.0, seed=0)
    m = rpr_map(inst.A, inst.b)
    for name in ("l1", "trimmed_l1"):
        loss = make_loss(name, 20, K=5) if name == "trimmed_l1" else make_loss(name, 20)
        val, grad = surrogate_oracle(loss, m, inst.x_star, 0.7)
        assert val == pytest.approx(0.0)
        assert np.allclose(grad, 0.0)


def test_surrogate_oracle_1d_frozen_example():
    m = rpr_map(np.array([[1.0]]), np.array([1.0]))
    val, grad = surrogate_oracle(make_loss("l1", 1), m, np.array([2.0]), 1.0)
    assert val == pytest.approx(2.5)
    assert np.allclose(grad, [4.0])


def test_surrogate_oracle_trimmed_k0_matches_l1():
    inst, m = small_instance(seed=1, d=10, n=40)
    x = np.random.default_rng(3).standard_normal(10)
    v1, g1 = surrogate_oracle(make_loss("l1", 40), m, x, 0.5)
    v2, g2 = surrogate_oracle(make_loss("trimmed_l1", 40, K=0), m, x, 0.5)
    assert v1 == pytest.approx(v2)
    assert np.allclose(g1, g2)


def test_backtrack_immediate_accept():
    # evaluator already satisfying the Armijo test at gamma_init
    gamma, count, _ = backtrack(lambda g: (0.0, g), 1.0, 1.0, 0.5, 0.8, 1e-4)
    assert (gamma, count) == (0.5, 0)


def test_backtrack_frozen_quadratic_example():
    gamma, count, _ = backtrack(
        lambda g: (float((1.0 - g * 2.0) ** 2), g), 1.0, 4.0, 1.0, 0.8, 1e-4,
    )
    assert gamma == pytest.approx(0.8)
    assert count == 1


def test_backtrack_returns_the_accepted_trial():
    # the quadratic rejects gamma = 1 and accepts 0.8; the trial handed back
    # is the one evaluated at the returned gamma, not an earlier one
    x, grad = np.array([1.0, -0.5]), np.array([2.0, -1.0])
    f = lambda y: float(y @ y)
    gamma, count, trial = backtrack(lambda g: (f(x - g * grad), x - g * grad), f(x),
                                    float(grad @ grad), 1.0, 0.8, 1e-4)
    assert count >= 1
    assert np.array_equal(trial, x - gamma * grad)


def test_backtrack_tries_geometric_stepsizes():
    # the ray is searched at gamma_init, gamma_init*rho, ... (repeated *=),
    # and the stepsize returned is the last one tried
    tried = []

    def eval_ray(gamma):
        tried.append(gamma)
        return (1.0 if len(tried) < 4 else 0.0), len(tried)

    gamma, count, trial = backtrack(eval_ray, 1.0, 1.0, 0.7, 0.3, 1e-4)
    expected = [0.7]
    for _ in range(3):
        expected.append(expected[-1] * 0.3)
    assert tried == expected
    assert (gamma, count, trial) == (tried[-1], 3, 4)


def test_backtrack_rejects_a_nan_trial():
    # a NaN satisfies no Armijo inequality: the gamma = 1 trial is refused
    # and the search goes on to gamma = 0.5
    gamma, count, trial = backtrack(lambda g: (np.nan if g > 0.5 else 0.5, g),
                                    1.0, 1.0, 1.0, 0.5, 1e-4)
    assert (gamma, count, trial) == (0.5, 1, 0.5)


def test_backtrack_zero_gradient_rejected():
    # g2 = ||grad||^2 must be positive and finite: 0 is a stationary point,
    # and a NaN, inf or negative g2 would make the Armijo threshold
    # meaningless; the first trial stepsize must be positive too
    for g2, gamma_init in ((0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (-1.0, 1.0),
                           (1.0, 0.0), (1.0, -1.0), (1.0, np.nan)):
        with pytest.raises(ValueError):
            backtrack(lambda g: (0.0, g), 1.0, g2, gamma_init, 0.8, 1e-4)


def test_backtrack_cap_is_loud(monkeypatch):
    monkeypatch.setattr(dcvs.solver, "MAX_BACKTRACKS", 20)
    with pytest.raises(SolverError):
        backtrack(lambda g: (np.inf, g), 1.0, 1.0, 1.0, 0.8, 1e-4)


def test_backtrack_below_descent_threshold_accepts_first():
    # quadratic with curvature kappa = 2: any gamma_init < 2(1-c)/kappa
    # passes the Armijo test immediately
    c = 1e-6
    for gamma_init in (0.2, 0.5, 0.9):
        gamma, count, _ = backtrack(
            lambda g: (float((1.0 - g * 2.0) ** 2), g), 1.0, 4.0, gamma_init, 0.8, c,
        )
        assert gamma == gamma_init and count == 0


def test_solve_exact_start_terminates_immediately():
    inst = generate_instance(6, 24, 0.0, 1.0, noise_variance=0.0, seed=2)
    m = rpr_map(inst.A, inst.b)
    loss = make_loss("l1", 24)
    rec = solve(loss, m, inst.x_star, SolverConfig())
    assert rec.termination == "stationary"
    assert rec.iterations == 0
    assert np.allclose(rec.x_final, inst.x_star)
    assert rec.grad_norms[0] == 0.0
    # a run with no step has one iterate, the start
    xs, _ = replay_iterates(loss, m, inst.x_star, rec)
    assert xs.shape == (1, 6)
    assert np.array_equal(xs[0], inst.x_star)


def test_solve_1d_reaches_minimizer_set():
    # minimizers of |x^2 - 1| are +-1; the first accepted step determines
    # which basin the iterates fall into
    m = rpr_map(np.array([[1.0]]), np.array([1.0]))
    rec = solve(make_loss("l1", 1), m, np.array([2.0]), SolverConfig())
    assert min(abs(rec.x_final[0] - 1.0), abs(rec.x_final[0] + 1.0)) < 1e-3


def test_solve_records_are_consistent():
    inst, m = small_instance(seed=3, d=15, n=75)
    loss = make_loss("capped_l1", 75, beta=20.0)
    cfg = SolverConfig(max_iters=300, time_cap_seconds=None)
    rec = solve(loss, m, spectral_init(inst.A, inst.b, 3), cfg)
    steps = rec.iterations
    assert rec.mus.size in (steps, steps + 1)
    assert np.all(rec.backtrack_counts >= 0)
    assert np.allclose(
        rec.gammas, rec.gamma_inits * cfg.rho**rec.backtrack_counts
    )
    running_min = np.minimum.accumulate(rec.grad_norms)
    assert np.all(np.diff(running_min) <= 0.0)
    # warm-started stepsizes never increase
    assert np.all(np.diff(rec.gammas) <= 1e-15)
    # the first trial step is max(1, 1/||grad||), then the previous step
    assert rec.gamma_inits[0] == max(1.0, 1.0 / rec.grad_norms[0])
    assert np.array_equal(rec.gamma_inits[1:], rec.gammas[:-1])


def test_solve_armijo_holds_post_hoc():
    inst, m = small_instance(seed=4, d=12, n=60)
    loss = make_loss("trimmed_l1", 60, K=15)
    cfg = SolverConfig(max_iters=200, time_cap_seconds=None)
    x1 = spectral_init(inst.A, inst.b, 4)
    rec = solve(loss, m, x1, cfg)
    xs, _ = replay_iterates(loss, m, x1, rec)
    c = cfg.c
    for i in range(rec.iterations):
        lhs = surrogate_at_residual(loss, m.eval(xs[i + 1])[0], rec.mus[i], grad=False)
        rhs = (
            rec.surrogate_values[i]
            - c * rec.gammas[i] * rec.grad_norms[i] ** 2
        )
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


def test_solve_reused_residuals_are_exact():
    # solve evaluates the map once at x1 and then carries the accepted
    # line-search trial's linearisation over; every recorded value must
    # equal, bit for bit, the one at the replayed linearisation.  Its
    # residual is that of the replayed iterate up to roundoff: per entry,
    # the carry's i roundings of Ax - gamma*Ag (eps/2 each), the fresh
    # product's d-term sum (d*eps), doubled by the square, and one rounding
    # of the subtraction, on the scale (|A||x|)^2 + |b| (measured: <= 4.9 eps)
    inst, m = small_instance(seed=12, d=10, n=50)
    cfg = SolverConfig(max_iters=60, time_cap_seconds=None)
    x1 = spectral_init(inst.A, inst.b, 12)
    eps, d = np.finfo(float).eps, inst.A.shape[1]
    for loss in catalog_losses(50):
        rec = solve(loss, m, x1, cfg)
        assert rec.iterations > 0
        xs, Axs = replay_iterates(loss, m, x1, rec)
        for i in range(rec.mus.size):
            z, mu = m.residual(Axs[i]), rec.mus[i]
            assert rec.surrogate_values[i] == surrogate_at_residual(loss, z, mu, grad=False)
            assert rec.cost_values[i] == loss.phi_value(z)
            scale = (np.abs(inst.A) @ np.abs(xs[i])) ** 2 + np.abs(inst.b)
            distance = np.abs(z - m.eval(xs[i])[0])
            assert np.all(distance <= (i + 2 * d + 1) * eps * scale), (loss.name, i)


def test_solve_map_call_counts():
    # one evaluation at x1; per step one transposed product, one product
    # A @ grad, and one residual per line-search trial, formed from the
    # carried linearisation with no matvec; the accepted trial seeds the
    # next iterate
    inst, m = small_instance(seed=5, d=10, n=50)
    calls = dict.fromkeys(("eval", "jt_vec", "matvec", "residual"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    counting = dataclasses.replace(m, **{name: counted(name, getattr(m, name)) for name in calls})
    cfg = SolverConfig(max_iters=200, time_cap_seconds=None)
    rec = solve(make_loss("trimmed_l1", 50, K=12), counting,
                spectral_init(inst.A, inst.b, 5), cfg)
    assert rec.backtrack_counts.sum() > 0
    assert calls == {"eval": 1, "jt_vec": rec.mus.size, "matvec": rec.iterations,
                     "residual": int(np.sum(rec.backtrack_counts + 1))}


def test_solve_carried_linearisation_drift_is_bounded():
    # a 10,000-step solve of the solve-d100 benchmark's seed-0 trimmed_l1
    # problem, never stopped by rel_tol: the carried Ax at x_final against
    # A @ x_final.  Each step rounds every entry of Ax - gamma*Ag once, by
    # at most eps/2 of it, so 10,000 steps that all rounded one way would
    # drift by 10^4 * eps/2 = 1.1e-12 of max |Ax|; this solve measures
    # 1.3e-13 (one BLAS thread), as the tail's tiny steps round with a
    # bias.  The bound is that worst case, 8x above the measured drift.
    _, x1, m = seeded_problem(100, 1000, 0.4, 1.0, "cauchy", 1e-6, 0)
    carried = []

    def keep_last(Ax):
        carried[:] = [Ax]
        return m.residual(Ax)

    cfg = SolverConfig(rel_tol=0.0, max_iters=10_000, time_cap_seconds=None)
    rec = solve(make_loss("trimmed_l1", 1000, K=400), dataclasses.replace(m, residual=keep_last),
                x1, cfg)
    assert rec.termination == "max_iters" and rec.iterations == 10_000
    # the last trial formed is the accepted one of the last step
    fresh = m.eval(rec.x_final)[1]
    drift = np.abs(carried[0] - fresh).max() / np.abs(fresh).max()
    assert drift <= 10_000 * np.finfo(float).eps / 2
def test_solve_gradient_decay_on_clean_instance():
    inst = generate_instance(15, 90, 0.0, 1.0, noise_variance=0.0, seed=6)
    m = rpr_map(inst.A, inst.b)
    cfg = SolverConfig(rel_tol=1e-14, max_iters=2000, time_cap_seconds=None)
    rec = solve(make_loss("l1", 90), m, spectral_init(inst.A, inst.b, 6), cfg)
    assert rec.grad_norms.min() < 1e-3


def test_solve_max_iters_termination():
    inst, m = small_instance(seed=7, d=8, n=40)
    cfg = SolverConfig(rel_tol=0.0, max_iters=5, time_cap_seconds=None)
    rec = solve(make_loss("l1", 40), m, spectral_init(inst.A, inst.b, 7), cfg)
    assert rec.termination == "max_iters"
    assert rec.iterations == 5


def test_solve_time_cap_termination():
    inst, m = small_instance(seed=8, d=20, n=100)
    cfg = SolverConfig(rel_tol=0.0, max_iters=10**6, time_cap_seconds=0.05)
    rec = solve(make_loss("l1", 100), m, spectral_init(inst.A, inst.b, 8), cfg)
    assert rec.termination == "time_cap"


def test_solve_validates_inputs():
    inst, m = small_instance(seed=9, d=5, n=25)
    loss = make_loss("l1", 25)
    with pytest.raises(ValueError):
        solve(loss, m, np.full(5, np.nan), SolverConfig())
    with pytest.raises(ValueError):
        solve(loss, m, np.zeros(4), SolverConfig())
    with pytest.raises(ValueError, match="residuals"):
        # a loss built for another residual dimension
        solve(make_loss("trimmed_l1", 50, K=10), m, np.zeros(5),
              SolverConfig(max_iters=5))
    with pytest.raises(ValueError):
        # schedule starts above the loss smoothing cap
        solve(loss, m, np.zeros(5), SolverConfig(eta=0.25))


def test_solve_rejects_non_finite_surrogate():
    inst, m = small_instance(seed=10, d=5, n=25)
    x1 = spectral_init(inst.A, inst.b, 10)
    loss = make_loss("l1", 25)

    def inf_residual(x):
        z, Ax = m.eval(x)
        z[2] = np.inf
        return z, Ax

    def nan_gradient(Ax, v):
        g = m.jt_vec(Ax, v)
        g[3] = np.nan
        return g

    # F_k non-finite; then a NaN gradient entry under a finite F_k
    for broken in (dataclasses.replace(m, eval=inf_residual),
                   dataclasses.replace(m, jt_vec=nan_gradient)):
        with pytest.raises(SolverError, match="non-finite surrogate at iteration 1") as err, \
                np.errstate(invalid="ignore"):
            solve(loss, broken, x1, SolverConfig(time_cap_seconds=None))
        assert err.value.iteration == 1
        assert isinstance(err.value.seconds, float) and err.value.seconds > 0


def test_solve_rejects_finite_gradient_whose_square_sum_overflows():
    # every entry finite but ||grad||^2 = inf: no Armijo threshold exists,
    # so iteration 1 stops before it steps
    inst, m = small_instance(seed=10, d=5, n=25)
    huge = dataclasses.replace(m, jt_vec=lambda Ax, v: np.full(5, 1e160))
    with pytest.raises(SolverError, match="non-finite surrogate at iteration 1") as err, \
            np.errstate(over="ignore"):
        solve(make_loss("l1", 25), huge, spectral_init(inst.A, inst.b, 10),
              SolverConfig(time_cap_seconds=None))
    assert err.value.iteration == 1
    assert isinstance(err.value.seconds, float) and err.value.seconds > 0


def test_solve_steps_past_trials_whose_residual_overflows():
    # trials beyond 1.5 ||x1|| get an infinite residual, so their surrogate
    # is not finite; the line search must shrink past them, not accept one.
    # A trial is formed as a linearisation Ax_y, so its point is recovered
    # as pinv(A) @ Ax_y
    inst = generate_instance(5, 25, 0.2, 1.0, seed=10)
    m = rpr_map(inst.A, inst.b)
    x1 = spectral_init(inst.A, inst.b, 10)
    radius = 1.5 * np.linalg.norm(x1)
    pinv = np.linalg.pinv(inst.A)

    def capped_residual(Ax):
        z = m.residual(Ax)
        if np.linalg.norm(pinv @ Ax) > radius:
            z = np.full_like(z, np.inf)
        return z

    with np.errstate(invalid="ignore"):
        rec = solve(make_loss("l1", 25), dataclasses.replace(m, residual=capped_residual), x1,
                    SolverConfig(time_cap_seconds=None))
    assert rec.iterations >= 1
    assert np.all(np.isfinite(rec.surrogate_values))
    assert np.linalg.norm(rec.x_final) <= radius


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0)
    with pytest.raises(ValueError):
        SolverConfig(c=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.5)
    # the schedule must start within the smoothing cap: mu_1 = 1/(2*eta) <= 1,
    # with the boundary eta = 0.5 accepted
    for eta in (0.25, 0.0, -1.0):
        with pytest.raises(ValueError):
            SolverConfig(eta=eta)
    assert SolverConfig(eta=0.5).eta == 0.5
    # a schedule whose scale underflows to 0 fails every solve at step 1,
    # and an infinite alpha never decays: both fail when the config is built
    for bad in ({"eta": float("inf")}, {"eta": 1e308}, {"alpha": float("inf")}):
        with pytest.raises(ValueError, match=rf"^{next(iter(bad))} must"):
            SolverConfig(**bad)
    # a NaN rel_tol would never stop, a non-positive time cap would stop
    # after one step and a NaN one never, and the budget counts steps
    for bad in ({"rel_tol": float("nan")}, {"rel_tol": -1e-9},
                {"time_cap_seconds": -1.0}, {"time_cap_seconds": 0.0},
                {"time_cap_seconds": float("nan")},
                {"max_iters": 2.5}, {"max_iters": 3.0}, {"max_iters": 0}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(max_iters=np.int64(7), time_cap_seconds=None).max_iters == 7
    # a JSON integer of 309+ digits is no budget a float schedule can reach
    with pytest.raises(ValueError, match="^max_iters must be"):
        SolverConfig(max_iters=10**400)
    # a bool is no number (max_iters=True would run one step, a true cap
    # would stop after 1 s), nor is a numeric string or None
    for bad in ({"max_iters": True}, {"time_cap_seconds": True}, {"alpha": True},
                {"eta": True}, {"rel_tol": True}, {"rel_tol": np.False_},
                {"rho": "0.5"}, {"time_cap_seconds": "30"}, {"alpha": "3"},
                {"c": "1e-4"}, {"rel_tol": None}, {"alpha": None}, {"eta": None}):
        with pytest.raises(ValueError, match=rf"^{next(iter(bad))} must be a number"):
            SolverConfig(**bad)


def test_write_trace_round_trip(tmp_path):
    inst, m = small_instance(seed=10, d=6, n=30)
    cfg = SolverConfig(max_iters=20, time_cap_seconds=None)
    rec = solve(make_loss("l1", 30), m, spectral_init(inst.A, inst.b, 10), cfg)
    path = tmp_path / "trace.csv"
    write_trace(rec, path)
    body = path.read_text(encoding="utf-8").strip().split("\n")
    assert body[0] == "k,mu,F_k,grad_norm,gamma,backtracks,true_cost,roundoff"
    assert len(body) == 1 + rec.iterations
    first = body[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == rec.mus[0]
    assert float(first[4]) == rec.gammas[0]
    assert float(first[6]) == rec.cost_values[0]


def test_roundoff_limited_matches_a_recount(tmp_path):
    # step by step in Python floats, as (c*gamma)*(gn*gn) against
    # eps*|F_k|; the trace writes each flag as 0 or 1
    inst, m = small_instance(seed=11, d=8, n=40)
    cfg = SolverConfig(max_iters=300, time_cap_seconds=None)
    eps = float(np.finfo(float).eps)
    for loss in catalog_losses(40):
        rec = solve(loss, m, spectral_init(inst.A, inst.b, 11), cfg)
        recount = [cfg.c * float(gamma) * (float(gn) * float(gn)) < eps * abs(float(fk))
                   for gamma, gn, fk in zip(rec.gammas, rec.grad_norms, rec.surrogate_values)]
        assert rec.roundoff_limited.dtype == bool
        assert rec.roundoff_limited.tolist() == recount
        assert rec.roundoff_limited_steps == sum(recount)
        write_trace(rec, tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", encoding="utf-8", newline="") as fh:
            assert [int(row["roundoff"]) for row in csv.DictReader(fh)] == recount
    # the count of a record with known flags
    flags = np.array([True, False, True])
    assert dataclasses.replace(rec, roundoff_limited=flags).roundoff_limited_steps == 2


def test_write_csv_round_trips_any_cell(tmp_path):
    # a JSON params cell, a comma, a leading quote, a line break, an empty
    # cell and numbers all read back as their str
    row = ['{"beta": 1000.0}', "a,b", '"q"', "line\nbreak", "",
           np.float64(0.1), np.int64(3), float("inf")]
    path = tmp_path / "cells.csv"
    write_csv(path, [f"c{i}" for i in range(len(row))], [row])
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh))[1] == [str(v) for v in row]


def test_write_csv_rejects_a_carriage_return(tmp_path):
    # the writer would leave 'x\ry' bare and a reader would split its row
    # there, so the call fails before the file is opened
    path = tmp_path / "cells.csv"
    with pytest.raises(ValueError, match="must not hold"):
        write_csv(path, ["a", "b"], [[1, "x\ry"]])
    assert not path.exists()


def test_mirrored_trajectory_from_negated_start():
    inst, m = small_instance(seed=11, d=10, n=50)
    loss = make_loss("trimmed_l1", 50, K=12)
    x1 = spectral_init(inst.A, inst.b, 11)
    cfg = SolverConfig(max_iters=100, time_cap_seconds=None)
    rec_pos = solve(loss, m, x1, cfg)
    rec_neg = solve(loss, m, -x1, cfg)
    assert rec_pos.termination == rec_neg.termination
    for pos, neg in zip(replay_iterates(loss, m, x1, rec_pos),
                        replay_iterates(loss, m, -x1, rec_neg)):
        assert np.array_equal(pos, -neg)
    assert np.array_equal(rec_pos.gammas, rec_neg.gammas)
