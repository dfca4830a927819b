"""Catalog of difference-of-convex loss functions on residual vectors.

Every loss is ``phi = f - g`` with convex, Lipschitz, prox-friendly parts:

* ``l1``          — ``f = ||.||_1``, ``g = 0``
* ``mcp``         — ``f = lam*||.||_1``, ``g = sum of Huber terms``
* ``capped_l1``   — ``f = ||.||_1``, ``g = sum max(|z_i| - beta, 0)``
* ``trimmed_l1``  — ``f = ||.||_1``, ``g = top-K norm`` (drops the K
  largest residuals from the penalty)

A :class:`DcLoss` bundles the value/prox callables together with the
Lipschitz constants used by the test-suite bounds.  Envelope scales are
admissible up to :data:`MU_MAX`.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .prox import (
    huber_value,
    moreau_value_and_grad,
    prox_capped_complement,
    prox_huber,
    prox_scaled_abs,
    prox_topk,
    topk_value,
)

__all__ = ("DcLoss", "LOSS_NAMES", "MU_MAX", "make_loss", "surrogate_at_residual")

LOSS_NAMES = ("l1", "mcp", "capped_l1", "trimmed_l1")

# Largest admissible smoothing scale, 1/(2*eta) at the smoothing cap eta = 0.5.
MU_MAX = 1.0


@dataclass(frozen=True)
class DcLoss:
    """A DC pair (f, g) with prox access and its analysis constants."""

    name: str
    params: dict
    f_value: Callable = field(repr=False)
    g_value: Callable = field(repr=False)
    f_prox: Callable = field(repr=False)
    g_prox: Callable = field(repr=False)
    L_f: float = 0.0
    L_g: float = 0.0

    def phi_value(self, z):
        """The actual loss value f(z) - g(z)."""
        return self.f_value(z) - self.g_value(z)


def _l1_value(z):
    return float(np.abs(z).sum())


def make_loss(name, n, lam=1.0, beta=None, K=None):
    """Build a catalog loss for residual dimension ``n``.

    ``lam``/``beta`` parametrize the MCP, ``beta`` alone the capped l1,
    and ``K`` (number of ignored largest residuals, ``0 <= K < n``) the
    trimmed l1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    sqrt_n = float(np.sqrt(n))

    if name == "l1":
        return DcLoss(
            name="l1", params={},
            f_value=_l1_value,
            g_value=lambda z: 0.0,
            f_prox=lambda z, mu: prox_scaled_abs(z, mu, 1.0),
            g_prox=lambda z, mu: np.asarray(z, dtype=float).copy(),
            L_f=sqrt_n, L_g=0.0,
        )

    if name == "mcp":
        if not (lam > 0 and beta is not None and beta > 0):
            raise ValueError("mcp needs lam > 0 and beta > 0")
        return DcLoss(
            name="mcp", params={"lam": float(lam), "beta": float(beta)},
            f_value=lambda z, _l=lam: _l * _l1_value(z),
            g_value=lambda z, _l=lam, _b=beta: float(np.sum(huber_value(z, _l, _b))),
            f_prox=lambda z, mu, _l=lam: prox_scaled_abs(z, mu, _l),
            g_prox=lambda z, mu, _l=lam, _b=beta: prox_huber(z, _l, _b, mu),
            L_f=lam * sqrt_n, L_g=lam * sqrt_n,
        )

    if name == "capped_l1":
        if beta is None or not beta > 0:
            raise ValueError("capped_l1 needs beta > 0")
        return DcLoss(
            name="capped_l1", params={"beta": float(beta)},
            f_value=_l1_value,
            g_value=lambda z, _b=beta: float(np.maximum(np.abs(z) - _b, 0.0).sum()),
            f_prox=lambda z, mu: prox_scaled_abs(z, mu, 1.0),
            g_prox=lambda z, mu, _b=beta: prox_capped_complement(z, _b, mu),
            L_f=sqrt_n, L_g=sqrt_n,
        )

    if name == "trimmed_l1":
        if K is None or not 0 <= int(K) < n:
            raise ValueError(f"trimmed_l1 needs 0 <= K < n, got K={K}, n={n}")
        K = int(K)
        return DcLoss(
            name="trimmed_l1", params={"K": K},
            f_value=_l1_value,
            g_value=lambda z, _k=K: topk_value(z, _k),
            f_prox=lambda z, mu: prox_scaled_abs(z, mu, 1.0),
            g_prox=lambda z, mu, _k=K: prox_topk(z, _k, mu),
            L_f=sqrt_n, L_g=float(np.sqrt(K)),
        )

    raise ValueError(f"unknown loss {name!r}; choose one of {LOSS_NAMES}")


def surrogate_at_residual(loss, z, mu):
    """Smoothed loss value and gradient at the residual ``z``.

    Returns ``(f_env - g_env, grad_f_env - grad_g_env)`` where each
    envelope term comes from the corresponding prox at scale ``mu``.
    Requires ``0 < mu <= MU_MAX``.
    """
    if not 0.0 < mu <= MU_MAX * (1.0 + 1e-12):
        raise ValueError(f"mu must lie in (0, {MU_MAX}], got {mu}")
    z = np.asarray(z, dtype=float)
    pf = loss.f_prox(z, mu)
    f_env, f_grad = moreau_value_and_grad(pf, z, loss.f_value(pf), mu)
    pg = loss.g_prox(z, mu)
    g_env, g_grad = moreau_value_and_grad(pg, z, loss.g_value(pg), mu)
    return f_env - g_env, f_grad - g_grad
