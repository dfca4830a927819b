"""Catalog of difference-of-convex loss functions on residual vectors.

Every loss is ``phi = f - g`` with convex, Lipschitz, prox-friendly parts.
Every catalog loss has ``f = lam*||.||_1``, with ``lam = 1`` except for
the MCP; only ``g`` differs:

* ``l1``          — ``g = 0``
* ``mcp``         — ``g = sum of Huber terms``
* ``capped_l1``   — ``g = sum max(|z_i| - beta, 0)``
* ``trimmed_l1``  — ``g = top-K norm`` (drops the K largest residuals
  from the penalty)

A :class:`DcLoss` bundles the value/prox callables together with the
Lipschitz constants used by the test-suite bounds.  Envelope scales are
admissible up to :data:`MU_MAX`.  :data:`LOSS_SPECS` is the one table of
loss names and of the JSON loss specs that the CLI and sweeps take.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .maps import _vector
from .prox import (
    _moreau_step,
    huber_value,
    prox_capped_complement,
    prox_huber,
    prox_scaled_abs,
    prox_topk,
    topk_value,
)

REQUIRED = None

# The loss-spec schema, per loss name: every key a spec may carry, with its
# default (REQUIRED when it must be given), the label template used in
# file names and CSV rows, and the make_loss arguments that the spec's
# parameters stand for at residual dimension n.  Any other key is rejected.
LOSS_SPECS = {
    "l1": ({}, "l1", lambda p, n: {}),
    "mcp": ({"lambda": 1.0, "beta": REQUIRED}, "mcp_lam{lambda:g}_beta{beta:g}",
            lambda p, n: {"lam": p["lambda"], "beta": p["beta"]}),
    "capped_l1": ({"beta": REQUIRED}, "capped_l1_beta{beta:g}",
                  lambda p, n: {"beta": p["beta"]}),
    "trimmed_l1": ({"K_over_n": REQUIRED}, "trimmed_l1_Kn{K_over_n:g}",
                   lambda p, n: {"K": round(p["K_over_n"] * n)}),
}

# Largest admissible smoothing scale, 1/(2*eta) at the smoothing cap eta = 0.5.
MU_MAX = 1.0


@dataclass(frozen=True)
class DcLoss:
    """A DC pair (f, g) on residuals of dimension ``n``, with prox access
    and its analysis constants."""

    name: str
    params: dict
    n: int
    f_value: Callable = field(repr=False)
    g_value: Callable = field(repr=False)
    f_prox: Callable = field(repr=False)
    g_prox: Callable = field(repr=False)
    L_f: float = 0.0
    L_g: float = 0.0

    def phi_value(self, z):
        """The actual loss value f(z) - g(z) at a residual of shape ``(n,)``."""
        z = _vector("z", z, self.n)
        return self.f_value(z) - self.g_value(z)


def make_loss(name, n, lam=1.0, beta=None, K=None):
    """Build a catalog loss for residual dimension ``n``.

    ``lam``/``beta`` parametrize the MCP, ``beta`` alone the capped l1,
    and ``K`` (the integer number of ignored largest residuals,
    ``0 <= K < n``) the trimmed l1; a parameter the loss does not take,
    or anything but a number in place of one, is rejected.  The closures
    call the :mod:`dcvs.prox` functions.
    """
    n, lam = _number(n, "n", integral=True, low=1), _number(lam, "lam")
    beta = None if beta is None else _number(beta, "beta")
    sqrt_n = float(np.sqrt(n))

    if name == "l1":
        params, L_g = {}, 0.0
        g_value = lambda z: 0.0
        g_prox = lambda z, mu: z.copy()
    elif name == "mcp":
        if not (0 < lam < np.inf and beta is not None and 0 < beta < np.inf):
            raise ValueError("mcp needs finite lam > 0 and beta > 0")
        params, L_g = {"lam": lam, "beta": beta}, lam * sqrt_n
        g_value = lambda z: float(np.add.reduce(huber_value(z, lam, beta)))
        g_prox = lambda z, mu: prox_huber(z, lam, beta, mu)
    elif name == "capped_l1":
        if beta is None or not 0 < beta < np.inf:
            raise ValueError("capped_l1 needs a finite beta > 0")
        params, L_g = {"beta": beta}, sqrt_n

        def g_value(z):
            excess = np.abs(z)
            excess -= beta
            return float(np.add.reduce(np.maximum(excess, 0.0, out=excess)))
        g_prox = lambda z, mu: prox_capped_complement(z, beta, mu)
    elif name == "trimmed_l1":
        # an integer type only: K=2.0 is an error, not read as 2
        if not isinstance(K, (int, np.integer)):
            raise ValueError(f"K must be an integer, got {K!r}")
        K = _number(K, "K", integral=True, low=0)
        if K >= n:
            raise ValueError(f"K must be < n = {n}, got {K}")
        params, L_g = {"K": K}, float(np.sqrt(K))
        g_value = lambda z: topk_value(z, K)
        g_prox = lambda z, mu: prox_topk(z, K, mu)
    else:
        raise ValueError(f"unknown loss {name!r}; choose one of {tuple(LOSS_SPECS)}")
    given = {"lam": lam != 1.0, "beta": beta is not None, "K": K is not None}
    unused = [key for key, on in given.items() if on and key not in params]
    if unused:
        raise ValueError(f"{name} takes no {', '.join(unused)}")

    return DcLoss(
        name=name, params=params, n=n,
        f_value=lambda z: lam * float(np.add.reduce(np.abs(z))),
        g_value=g_value,
        f_prox=lambda z, mu: prox_scaled_abs(z, mu, lam),
        g_prox=g_prox,
        L_f=lam * sqrt_n, L_g=L_g,
    )


def _check_keys(what, keys, allowed, required=()):
    unknown = sorted(set(keys) - set(allowed))
    missing = sorted(set(required) - set(keys))
    if unknown or missing:
        raise ValueError(f"{what}: unknown keys {unknown}, missing keys "
                         f"{missing} (allowed: {sorted(allowed)})")


def _number(value, name, integral=False, low=None):
    """``value``, a Python or numpy int or float, as a float, or as an int
    when ``integral`` (``5.0`` reads as 5), no less than ``low`` when it is
    given.  Anything else is a ``ValueError`` that names ``name``: a bool
    (JSON ``true`` is no number), a string, ``None``, an int beyond the
    float range, a value below ``low`` (or NaN, there), and for a count a
    fraction, inf or NaN.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a Python int: its digits are not worth printing
        raise ValueError(f"{name} must be within the float range, got a "
                         f"{value.bit_length()}-bit int") from None
    if integral and not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    number = int(value) if integral else number  # an int compares exactly
    if low is not None and not number >= low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return number


def spec_params(spec):
    """Check a loss spec against :data:`LOSS_SPECS`; return its name and
    every parameter as a finite float, defaults filled in."""
    name = spec.get("name") if isinstance(spec, dict) else None
    if name not in LOSS_SPECS:
        raise ValueError(f"loss spec {spec!r}: name must be one of {tuple(LOSS_SPECS)}")
    keys = LOSS_SPECS[name][0]
    _check_keys(f"loss spec {spec!r}", spec, {"name", *keys},
                required=[k for k, default in keys.items() if default is REQUIRED])
    params = {k: _number(spec.get(k, default), k) for k, default in keys.items()}
    for k, v in params.items():
        if not np.isfinite(v):
            raise ValueError(f"{k} must be finite, got {v}")
    return name, params


def loss_from_spec(spec, n):
    """Build a catalog loss from a spec like
    ``{"name": "trimmed_l1", "K_over_n": 0.4}``.

    MCP takes ``beta`` and optionally ``lambda``; capped l1 takes
    ``beta``; trimmed l1 takes ``K_over_n``, rounded to a count ``K`` for
    residual dimension ``n``.  See :data:`LOSS_SPECS`.
    """
    name, p = spec_params(spec)
    return make_loss(name, n, **LOSS_SPECS[name][2](p, n))


def loss_label(spec):
    """Short deterministic label for file names and CSV rows."""
    name, p = spec_params(spec)
    return LOSS_SPECS[name][1].format(**p)


def surrogate_at_residual(loss, z, mu, grad=True):
    """Smoothed loss value and gradient at the residual ``z``.

    Returns ``(f_env - g_env, grad_f_env - grad_g_env)`` where each
    envelope term comes from the corresponding prox at scale ``mu``; with
    ``grad=False``, only the value ``f_env - g_env``, for line-search
    trials.  ``mu`` must lie in ``(0, MU_MAX]`` and ``z`` must have shape
    ``(loss.n,)``.
    """
    if not 0.0 < mu <= MU_MAX * (1.0 + 1e-12):
        raise ValueError(f"mu must lie in (0, {MU_MAX}], got {mu}")
    z = _vector("z", z, loss.n)
    pf = loss.f_prox(z, mu)
    f_env, f_step = _moreau_step(pf, z, loss.f_value(pf), mu)
    pg = loss.g_prox(z, mu)
    g_env, g_step = _moreau_step(pg, z, loss.g_value(pg), mu)
    if not grad:
        return f_env - g_env
    # f_step / mu - g_step / mu, in the steps _moreau_step made
    f_step /= mu
    g_step /= mu
    f_step -= g_step
    return f_env - g_env, f_step
