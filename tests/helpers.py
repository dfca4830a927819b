"""Shared fixtures-in-code for the test suite: loss catalogs, random
instances, the iterates of a recorded solve, the cells of a written sweep,
breakpoint-distance predicates for finite-difference checks, the grid
oracle's gap for prox checks, and the direct expressions that the
package's leaner forms are checked against."""

import csv
import functools
import operator

import numpy as np

from dcvs import generate_instance, make_loss, rpr_map, surrogate_at_residual
from dcvs.bench import TIMING_COLUMNS
from dcvs.oracle import brute_prox_nd
from dcvs.prox import (
    _clip_threshold,
    huber_value,
    moreau_value_and_grad,
    prox_capped_complement,
    prox_huber,
    prox_scaled_abs,
    prox_topk,
)
from dcvs.retrieval import SPECTRAL_CAP_MULTIPLE, _spectral_form


def catalog_losses(n):
    """One representative loss per catalog family, sized for residual
    dimension n."""
    return [
        make_loss("l1", n),
        make_loss("mcp", n, lam=1.0, beta=2.0),
        make_loss("capped_l1", n, beta=1.5),
        make_loss("trimmed_l1", n, K=max(1, int(0.3 * n)) if n > 1 else 0),
    ]


# loss specs the spec table rejects: a misspelt key with and without the
# required one, a missing required key, a key the loss does not take, an
# unknown name, a bool, a numeric string or null where a number belongs,
# and an infinite or NaN number
BAD_LOSS_SPECS = [
    {"name": "mcp", "lam": 5},
    {"name": "mcp", "lam": 5, "beta": 1000},
    {"name": "trimmed_l1"},
    {"name": "l1", "beta": 1},
    {"name": "nope"},
    {"name": "capped_l1", "beta": True},
    {"name": "capped_l1", "beta": "1000"},
    {"name": "mcp", "beta": None},
    {"name": "trimmed_l1", "K_over_n": float("inf")},
    {"name": "trimmed_l1", "K_over_n": float("nan")},
]


# the scalar proxes checked against the grid oracle, each as (name,
# prox(t, mu, p), value(z, p), a Lipschitz constant of value(., p))
SCALAR_PROX_FAMILIES = [
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


def grid_gap(point, value_fn, z, mu, radius, step):
    """Prox objective ``value_fn(w) + ||w - z||^2/(2*mu)`` at ``point``
    minus its value at ``brute_prox_nd(value_fn, z, mu, radius, step)``:
    at most roundoff when ``point`` is the prox of ``value_fn`` at ``z``
    and the grid spans it.  ``value_fn`` takes an ``(m, dim)`` array, as
    the oracle's does; ``point`` and ``z`` are scalars or vectors."""
    z = np.atleast_1d(z)

    def objective(w):
        w = np.atleast_1d(w)
        return float(np.ravel(value_fn(w[None, :]))[0]) + float(np.sum((w - z) ** 2)) / (2 * mu)

    return objective(point) - objective(brute_prox_nd(value_fn, z, mu, radius, step))


def small_instance(seed, d=20, n=100, p_fail=0.25, s=1.0):
    inst = generate_instance(d, n, p_fail, s, seed=seed)
    return inst, rpr_map(inst.A, inst.b)


def replay_iterates(loss, smooth_map, x1, record):
    """The iterates of the solve from ``x1`` that wrote ``record`` and the
    linearisations it carried, as arrays of shapes ``(record.iterations +
    1, d)`` and ``(record.iterations + 1, n)``: ``x1`` and ``A @ x1``, then
    ``x - gamma_k * grad`` and ``Ax - gamma_k * (A @ grad)`` for each
    recorded step, with ``grad`` the gradient of ``F_k`` at ``mus[k]``
    taken at the carried ``Ax``, by the same expressions as ``solve``.
    Asserts that the last point is ``record.x_final`` bit for bit, so a
    replay that left the solver's path fails here."""
    x = np.asarray(x1, dtype=float)
    Ax = smooth_map.eval(x)[1]
    points, linearisations = [x], [Ax]
    for mu, gamma in zip(record.mus, record.gammas):
        zgrad = surrogate_at_residual(loss, smooth_map.residual(Ax), mu)[1]
        grad = smooth_map.jt_vec(Ax, zgrad)
        x, Ax = x - gamma * grad, Ax - gamma * smooth_map.matvec(grad)
        points.append(x)
        linearisations.append(Ax)
    assert x.tobytes() == record.x_final.tobytes(), "the replay left the solver's path"
    return np.asarray(points), np.asarray(linearisations)


def sweep_cells(path):
    """The cells of the sweep CSV at ``path`` as ``csv.reader`` reads them,
    header row first, without the wall-clock ``TIMING_COLUMNS``: what two
    runs of one config must agree on.  A quoted ``params`` cell can hold a
    comma, so rows are parsed, not split."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    keep = [j for j, col in enumerate(header) if col not in TIMING_COLUMNS]
    return [[row[j] for j in keep] for row in (header, *rows)]


def breakpoint_gap(loss, z, mu):
    """Distance from the residual z to the nearest kink of the smoothed
    loss gradient.  Finite-difference checks redraw their sample when
    this is small."""
    a = np.abs(np.asarray(z, dtype=float))
    lam = loss.params.get("lam", 1.0)
    gaps = [float(np.min(np.abs(a - mu * lam)))]
    if loss.name == "mcp":
        beta = loss.params["beta"]
        gaps.append(float(np.min(np.abs(a - (beta + mu) * lam))))
    elif loss.name == "capped_l1":
        beta = loss.params["beta"]
        gaps.append(float(np.min(np.abs(a - beta))))
        gaps.append(float(np.min(np.abs(a - (beta + mu)))))
    elif loss.name == "trimmed_l1":
        K = loss.params["K"]
        if K > 0:
            theta = _clip_threshold(a, mu, K)
            slack = float(np.minimum(a, mu).sum() - mu * K)
            if theta > 0.0:
                gaps.append(float(np.min(np.abs(a - theta))))
            gaps.append(float(np.min(np.abs(a - (theta + mu)))))
            # theta switching between zero and positive is itself a kink
            gaps.append(abs(slack) / a.size)
    return min(gaps)


def draw_x_away_from_kinks(rng, loss, A, smooth_map, mu, scale=1.0, h=1e-6):
    """Random point whose residual keeps a safe margin from every
    envelope kink, so central differences stay on one smooth piece."""
    a_max = float(np.abs(A).max())
    for _ in range(200):
        x = scale * rng.standard_normal(smooth_map.in_dim)
        z, Ax = smooth_map.eval(x)
        # one fd probe x +- h*e_j moves residual i by at most
        # 2h|<a_i,x>||a_ij| + h^2 a_ij^2
        shift = 2.0 * h * float(np.abs(Ax).max()) * a_max + h * h * a_max**2
        margin = max(1e-4, 10.0 * shift)
        if breakpoint_gap(loss, z, mu) > margin:
            return x
    raise RuntimeError("could not find an x clear of envelope kinks")


def clip_threshold_all_kinks(a, box, K):
    """Reference for :func:`dcvs.prox._clip_threshold`: the same slack,
    prefix sums and interpolation, evaluated at every kink ``>= 0``.

    Returns ``(theta, wrapped)``.  ``wrapped`` is true where the computed
    slack at the first kink (``theta = 0``) is already ``<= 0``: then
    ``lo = hi - 1 = -1`` wraps to the largest kink and ``theta`` is a
    roundoff-sized number of either sign, where ``_clip_threshold``
    returns 0.
    """
    total = box * K
    if np.minimum(a, box).sum() <= total:
        return 0.0, False

    kinks = np.unique(np.concatenate([a, a - box, [0.0]]))
    kinks = kinks[kinks >= 0.0]
    a_sorted = np.sort(a)
    prefix = np.concatenate([[0.0], np.cumsum(a_sorted)])

    def min_sum(t):
        # sum_i min(a_i, t) for an array of thresholds t
        pos = np.searchsorted(a_sorted, t)
        return prefix[pos] + t * (a.size - pos)

    # clip(a - theta, 0, box) = min(a, theta + box) - min(a, theta)
    slack = min_sum(kinks + box) - min_sum(kinks) - total
    hi = int(np.argmax(slack <= 0.0))
    lo = hi - 1
    theta = kinks[lo] + slack[lo] * (kinks[hi] - kinks[lo]) / (slack[lo] - slack[hi])
    return float(theta), hi == 0


def surrogate_reference(loss, z, mu):
    """Reference for :func:`dcvs.surrogate_at_residual`, composed from the
    checked public operators: each part's prox from :mod:`dcvs.prox`, the
    loss's value at that prox, and :func:`dcvs.prox.moreau_value_and_grad`.
    Returns ``(value, gradient)``."""
    p = loss.params
    lam = p.get("lam", 1.0)
    g_prox = {
        "l1": lambda: np.asarray(z, dtype=float).copy(),
        "mcp": lambda: prox_huber(z, lam, p.get("beta"), mu),
        "capped_l1": lambda: prox_capped_complement(z, p.get("beta"), mu),
        "trimmed_l1": lambda: prox_topk(z, p.get("K"), mu),
    }[loss.name]
    pf = prox_scaled_abs(z, mu, lam)
    f_env, f_grad = moreau_value_and_grad(pf, z, loss.f_value(pf), mu)
    pg = g_prox()
    g_env, g_grad = moreau_value_and_grad(pg, z, loss.g_value(pg), mu)
    return f_env - g_env, f_grad - g_grad


# Direct expressions of the prox formulas (sign, abs, nested where), kept
# as test-only references: each :mod:`dcvs.prox` function computes the same
# numbers with fewer ufunc calls (``==``; only the sign of a zero may differ).

def prox_scaled_abs_reference(t, mu, lam):
    t = np.asarray(t, dtype=float)
    return np.sign(t) * np.maximum(np.abs(t) - mu * lam, 0.0)


def prox_huber_reference(t, lam, beta, mu):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    return np.where(a <= (beta + mu) * lam, beta / (beta + mu) * t, t - mu * lam * np.sign(t))


def prox_capped_complement_reference(t, beta, mu):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    s = np.sign(t)
    return np.where(a <= beta, t, np.where(a <= beta + mu, s * beta, t - mu * s))


def prox_topk_reference(z, K, mu):
    z = np.asarray(z, dtype=float)
    if K == 0:
        return z.copy()
    a = np.abs(z)
    theta = _clip_threshold(a, mu, K)
    return z - np.sign(z) * np.minimum(np.maximum(a - theta, 0.0), mu)


def huber_value_reference(t, lam, beta):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    return np.where(a <= beta * lam, t * t / (2.0 * beta), lam * a - beta * lam**2 / 2.0)


def topk_value_reference(z, K):
    z = np.asarray(z, dtype=float)
    n = z.size
    return 0.0 if K == 0 else float(np.partition(np.abs(z), n - K)[n - K:].sum())


def topk_grid_value(W, K):
    """``np.sort(np.abs(W), axis=-1)[..., -K:].sum(axis=-1)`` for ``W`` of
    at most 3 columns, bit for bit, without the sort: the grid oracles'
    top-K value.  The order statistics come from ``np.minimum`` and
    ``np.maximum``, and the K largest are added left to right, the order in
    which the sorted sum adds them."""
    a = np.abs(W)
    dim = a.shape[-1]
    if dim == 1:
        cols = [a[..., 0]]
    else:
        lo, hi = np.minimum(a[..., 0], a[..., 1]), np.maximum(a[..., 0], a[..., 1])
        cols = [lo, hi]
        if dim == 3:
            c = a[..., 2]
            cols = [np.minimum(lo, c), np.maximum(lo, np.minimum(hi, c)), np.maximum(hi, c)]
    return functools.reduce(operator.add, cols[dim - K:])


def spectral_form_reference(A, b, keep, tau):
    """Reference for :func:`dcvs.retrieval._spectral_form`: the single
    product ``A_k^T (w * A_k) / n`` that its panels replace."""
    Ak = A[keep]
    return Ak.T @ (np.minimum(b[keep], tau)[:, None] * Ak) / A.shape[0]


def spectral_form_mismatches(shapes, seed=0):
    """The ``(d, n)`` of ``shapes`` at which :func:`_spectral_form` and
    :func:`spectral_form_reference` differ in any bit, each on an instance
    with 30% Cauchy outliers, weighted as ``spectral_init`` weights it."""
    differ = []
    for d, n in shapes:
        inst = generate_instance(d, n, 0.3, 1.0, seed=seed)
        A, b = inst.A, inst.b
        keep, tau = b >= 0.0, SPECTRAL_CAP_MULTIPLE * float(np.median(np.abs(b)))
        if not np.array_equal(_spectral_form(A, b, keep, tau),
                              spectral_form_reference(A, b, keep, tau)):
            differ.append((d, n))
    return differ
