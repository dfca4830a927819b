"""Variable-smoothing gradient descent for DC composite objectives.

Minimizes ``F(x) = (f - g)(S(x))`` by running plain gradient descent on
the smoothed surrogates ``F_k = (f^{mu_k} - g^{mu_k}) o S`` whose
smoothing scale ``mu_k = (2*eta)^{-1} k^{-1/alpha}`` decays to zero, so
the surrogate tightens as the iteration proceeds.  Stepsizes come from
Armijo backtracking; no inner subproblem loop is needed.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .losses import MU_MAX, _number, surrogate_at_residual
from .maps import _vector

# Armijo shrinkages per step before a solve gives up loudly.
MAX_BACKTRACKS = 200

TRACE_COLUMNS = ("k", "mu", "F_k", "grad_norm", "gamma", "backtracks", "true_cost",
                 "roundoff")


class SolverError(RuntimeError):
    """Numerical failure inside a solve.  :func:`solve` sets
    ``iteration``, the step the failure happened in, and ``seconds``, the
    time the solve had run, on its way out."""

    iteration = seconds = None


@dataclass
class SolverConfig:
    """Schedule, line-search, and stopping parameters.

    Defaults reproduce the benchmark protocol: ``mu_k = k^{-1/3}`` (via
    ``eta = 0.5``), Armijo constants ``(rho, c) = (0.8, 1e-4)``, warm-
    started initial stepsizes with ``gamma_0 = max(1, 1/||grad_1||)``,
    relative cost-change tolerance ``1e-7``, at most 10000 iterations,
    and a 30 second wall-clock cap.
    """

    alpha: float = 3.0
    eta: float = 0.5
    rho: float = 0.8
    c: float = 1e-4
    rel_tol: float = 1e-7
    max_iters: int = 10000
    time_cap_seconds: Optional[float] = 30.0

    def __post_init__(self):
        for key in ("alpha", "eta", "rho", "c"):
            setattr(self, key, _number(getattr(self, key), key))
        self.rel_tol = _number(self.rel_tol, "rel_tol", low=0.0)
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must lie in (0, 1)")
        # mu_schedule rejects eta <= 0 and an alpha outside [1, inf); its
        # first, largest scale 1/(2*eta) must respect the smoothing cap
        if mu_schedule(1, self.eta, self.alpha) > MU_MAX * (1.0 + 1e-12):
            raise ValueError(f"schedule exceeds the smoothing cap {MU_MAX}: "
                             f"need eta >= {1.0 / (2.0 * MU_MAX)}")
        # an integer type only: max_iters=3.0 is an error, not read as 3
        if not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        self.max_iters = _number(self.max_iters, "max_iters", integral=True, low=1)
        # the schedule's last, smallest scale must not underflow to 0 (a huge eta)
        if not mu_schedule(self.max_iters, self.eta, self.alpha) > 0.0:
            raise ValueError(f"eta must keep mu_{self.max_iters} > 0, got {self.eta}")
        if self.time_cap_seconds is not None:
            self.time_cap_seconds = _number(self.time_cap_seconds, "time_cap_seconds")
            if not self.time_cap_seconds > 0.0:
                raise ValueError("time_cap_seconds must be positive or None")


@dataclass
class RunRecord:
    """Full trace of one solve.

    The per-evaluation arrays (``mus``, ``surrogate_values``,
    ``grad_norms``, ``cost_values``) cover every iterate the solver
    evaluated, including a terminal iterate that stopped the run before
    a step was taken.  The per-step arrays (``gammas``, ``gamma_inits``,
    ``backtrack_counts``) cover the gradient steps actually performed,
    so they are one shorter when the run ends on the stopping test.
    ``roundoff_limited`` is per step too: True where the Armijo decrease
    ``c*gamma*grad_norm**2`` is below ``eps*|F_k|``, the rounding error of
    the surrogate value it is compared against.

    ``termination`` is ``rel_tol`` when the relative change of the true
    cost fell below ``rel_tol``, ``stationary`` when the surrogate
    gradient was exactly zero, and ``max_iters`` or ``time_cap`` when a
    budget ran out.

    The record determines the iterates: from ``x1``, step ``k`` moves
    ``x`` to ``x - gammas[k] * grad F_k`` with ``F_k`` at ``mus[k]``, so
    no copy of them is kept.  The gradient is taken at the carried
    linearisation: ``Ax`` starts as ``A @ x1`` and moves with each step to
    ``Ax - gammas[k] * (A @ grad F_k)``, which differs from ``A @ x`` by
    roundoff only.  ``tests/helpers.replay_iterates`` rebuilds both bit
    for bit.
    """

    x_final: np.ndarray
    mus: np.ndarray
    surrogate_values: np.ndarray
    grad_norms: np.ndarray
    cost_values: np.ndarray
    gammas: np.ndarray
    gamma_inits: np.ndarray
    backtrack_counts: np.ndarray
    roundoff_limited: np.ndarray
    termination: str  # rel_tol | stationary | max_iters | time_cap
    wall_seconds: float

    @property
    def iterations(self):
        """Number of gradient steps performed."""
        return int(self.gammas.size)

    @property
    def roundoff_limited_steps(self):
        """Number of steps whose Armijo decrease is below roundoff."""
        return int(np.count_nonzero(self.roundoff_limited))


def mu_schedule(k, eta, alpha):
    """Smoothing scale at iteration ``k``: ``(2*eta)^{-1} * k^{-1/alpha}``.

    Nonincreasing in ``k``, bounded by ``(2*eta)^{-1}``, and summing to
    infinity for any finite ``alpha >= 1``.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not eta > 0:
        raise ValueError("eta must be positive")
    if not 1 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    return float(k) ** (-1.0 / alpha) / (2.0 * eta)


def surrogate_oracle(loss, smooth_map, x, mu):
    """Value and gradient of the smoothed composite at ``x``.

    Chains the envelope gradient at the residual through the transposed
    derivative of the inner map.
    """
    z, Ax = smooth_map.eval(np.asarray(x, dtype=float))
    value, zgrad = surrogate_at_residual(loss, z, mu)
    return value, smooth_map.jt_vec(Ax, zgrad)


def backtrack(eval_ray, Fk_x, g2, gamma_init, rho, c):
    """Armijo backtracking along the negative gradient: a search of the
    ray ``phi(gamma) = F_k(x - gamma*grad)``.

    ``eval_ray(gamma)`` returns ``(phi(gamma), trial)``, where ``trial``
    is what the caller wants back for an accepted point; the caller forms
    the point.  Returns the largest ``gamma in {gamma_init * rho^j}`` with
    ``phi(gamma) <= Fk_x - c*gamma*g2``, the number of shrinkages and the
    accepted point's ``trial``.  ``Fk_x`` is ``phi(0)`` and ``g2`` is
    ``grad.dot(grad)``, which the caller has already formed; it must be
    positive and finite, else a ``ValueError`` (a stationary point admits
    no line search).  A NaN ``phi(gamma)`` satisfies no Armijo inequality,
    so it is never accepted; a hard cap of :data:`MAX_BACKTRACKS`
    shrinkages turns floating-point pathologies into a loud failure
    instead of a hang.
    """
    if not 0.0 < g2 < math.inf:
        raise ValueError(f"g2 = ||grad||^2 must be positive and finite, got {g2}")
    if not gamma_init > 0:
        raise ValueError("gamma_init must be positive")
    gamma, count = float(gamma_init), 0
    while True:
        value, trial = eval_ray(gamma)
        if value <= Fk_x - c * gamma * g2:
            return gamma, count, trial
        gamma *= rho
        count += 1
        if count > MAX_BACKTRACKS:
            raise SolverError(
                f"Armijo backtracking exceeded {MAX_BACKTRACKS} shrinkages"
            )


def solve(loss, smooth_map, x1, config=None):
    """Run the variable-smoothing descent from ``x1``.

    Each iteration evaluates the surrogate at the current smoothing scale,
    checks the stopping rules (relative change of the true cost from the
    second evaluation on, iteration budget, wall-clock cap), then takes a
    backtracked gradient step.  An exactly zero gradient ends the run
    immediately as ``stationary``.  Returns a :class:`RunRecord`.

    A :class:`SolverError` ends the run when ``F_k`` or ``||grad F_k||^2``
    is not finite at an iterate (a gradient whose entries are finite but
    whose squares overflow included), or when a line search exceeds
    :data:`MAX_BACKTRACKS` shrinkages.

    The map is evaluated once, at ``x1``.  Each step forms ``A·grad``
    once; a line-search trial at ``x - gamma*grad`` then takes its
    linearisation as ``Ax - gamma*(A·grad)`` and its residual from that,
    with no matvec.  The accepted trial's residual and linearisation
    carry over to the next iterate, so every gradient after the first is
    taken at the carried ``Ax``, which differs from ``A @ x`` by roundoff
    only.  A step costs two matvecs: ``jt_vec`` and ``A·grad``.
    """
    cfg = config if config is not None else SolverConfig()
    x = _vector("x1", x1, smooth_map.in_dim).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("x1 must be finite")
    if loss.n != smooth_map.out_dim:
        raise ValueError(f"loss is built for {loss.n} residuals, the map has "
                         f"{smooth_map.out_dim}")

    t0 = time.perf_counter()
    mus, f_vals, grad_norms, costs = [], [], [], []
    gammas, gamma_inits, backtracks = [], [], []
    termination = None

    def eval_ray(gamma):
        # the one place a trial is formed, from the linearisation along the
        # ray; Ax, Ag and mu are the current step's when backtrack calls this
        Ax_y = Ax - gamma * Ag
        z_y = smooth_map.residual(Ax_y)
        return surrogate_at_residual(loss, z_y, mu, grad=False), (z_y, Ax_y)

    # one residual serves the surrogate, the gradient and the true cost
    z, Ax = smooth_map.eval(x)
    k = 0
    try:
        while True:
            k += 1
            mu = mu_schedule(k, cfg.eta, cfg.alpha)
            Fk, zgrad = surrogate_at_residual(loss, z, mu)
            grad = smooth_map.jt_vec(Ax, zgrad)
            # np.linalg.norm(grad) is sqrt(grad.dot(grad))
            g2 = float(grad.dot(grad))
            if not (math.isfinite(Fk) and math.isfinite(g2)):
                raise SolverError(f"non-finite surrogate at iteration {k}")
            gn = math.sqrt(g2)
            cost = float(loss.phi_value(z))

            mus.append(mu)
            f_vals.append(Fk)
            grad_norms.append(gn)
            costs.append(cost)

            if len(costs) > 1:
                prev_cost = costs[-2]
                change = abs(cost - prev_cost)
                # exact-fit instances drive the denominator to zero; fall back
                # to the absolute change there
                rel = change if abs(prev_cost) < 1e-300 else change / abs(prev_cost)
                if rel < cfg.rel_tol:
                    termination = "rel_tol"
                    break

            if gn == 0.0:
                termination = "stationary"
                break

            Ag = smooth_map.matvec(grad)
            ginit = gammas[-1] if gammas else max(1.0, 1.0 / gn)
            gamma, nbt, (z, Ax) = backtrack(eval_ray, Fk, g2, ginit, cfg.rho, cfg.c)
            x = x - gamma * grad
            gammas.append(gamma)
            gamma_inits.append(ginit)
            backtracks.append(nbt)

            if k >= cfg.max_iters:
                termination = "max_iters"
                break
            if (
                cfg.time_cap_seconds is not None
                and time.perf_counter() - t0 > cfg.time_cap_seconds
            ):
                termination = "time_cap"
                break
    except SolverError as err:
        # the one place a failed solve is stamped: its step and its time
        err.iteration, err.seconds = k, time.perf_counter() - t0
        raise

    f_vals, grad_norms, gammas = np.asarray(f_vals), np.asarray(grad_norms), np.asarray(gammas)
    steps = gammas.size
    return RunRecord(
        x_final=x,
        mus=np.asarray(mus),
        surrogate_values=f_vals,
        grad_norms=grad_norms,
        cost_values=np.asarray(costs),
        gammas=gammas,
        gamma_inits=np.asarray(gamma_inits),
        backtrack_counts=np.asarray(backtracks, dtype=int),
        roundoff_limited=(cfg.c * gammas * grad_norms[:steps]**2
                          < np.finfo(float).eps * np.abs(f_vals[:steps])),
        termination=termination,
        wall_seconds=time.perf_counter() - t0,
    )


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` (sequences of values) as CSV through
    the standard :mod:`csv` writer: UTF-8, '\\n' line ends, every value as
    its ``str`` (a float's shortest round-trip form, numpy scalars
    included).  A cell holding a comma, a ``"`` or a '\\n' is quoted, with
    its ``"`` doubled (RFC 4180); every other cell is written bare.  A
    ``str`` cell holding a '\\r' is a ``ValueError``, raised before the
    file is opened: the writer would leave it bare, and a reader would
    split its row there."""
    import csv  # loaded on first write: a solve that writes no CSV does not pay for it

    table = [header, *rows]
    if any(isinstance(cell, str) and "\r" in cell for row in table for cell in row):
        raise ValueError("a CSV cell must not hold a '\\r'")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


def write_trace(record, path):
    """Dump the per-step trace as CSV.

    One row per completed gradient step with columns
    ``k,mu,F_k,grad_norm,gamma,backtracks,true_cost,roundoff``, where
    ``roundoff`` is 1 for a roundoff-limited step and 0 otherwise.  A terminal
    evaluation that only triggered the stopping test has no step and
    therefore no row; it remains available on the :class:`RunRecord`
    arrays.
    """
    # zip stops at the per-step length, before any terminal evaluation
    write_csv(path, TRACE_COLUMNS, zip(range(1, record.iterations + 1), record.mus,
                                       record.surrogate_values, record.grad_norms,
                                       record.gammas, record.backtrack_counts, record.cost_values,
                                       record.roundoff_limited.astype(int)))
