"""Smooth inner mappings and their transposed-Jacobian products.

The only derivative primitive is ``jt_vec(x, v) = D S(x)^T v``; full
Jacobians are never materialized.  The quadratic residual map used by
robust phase retrieval is provided.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = (
    "SmoothMap",
    "rpr_eval",
    "rpr_jt_vec",
    "rpr_lip_ds",
    "rpr_map",
)


@dataclass(frozen=True)
class SmoothMap:
    """A differentiable mapping R^in_dim -> R^out_dim.

    ``eval`` maps a point to the residual vector; ``jt_vec(x, v)`` applies
    the transposed derivative at ``x`` to ``v``.
    """

    in_dim: int
    out_dim: int
    eval: Callable
    jt_vec: Callable


def _check_rpr_shapes(A, x, b=None):
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got ndim={A.ndim}")
    n, d = A.shape
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},), got {x.shape}")
    if b is not None and b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")


def rpr_eval(A, b, x):
    """Quadratic measurement residual ``(Ax) ⊙ (Ax) - b``."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_rpr_shapes(A, x, b)
    Ax = A @ x
    return Ax * Ax - b


def rpr_jt_vec(A, x, v):
    """Transposed-derivative product ``2 A^T ((Ax) ⊙ v)`` of the
    quadratic residual map."""
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_rpr_shapes(A, x)
    if v.shape != (A.shape[0],):
        raise ValueError(f"v must have shape ({A.shape[0]},), got {v.shape}")
    return 2.0 * (A.T @ ((A @ x) * v))


def rpr_lip_ds(A):
    """Lipschitz constant ``2 sqrt(sum_i ||a_i||^4)`` of the derivative of
    the quadratic residual map (rows ``a_i``)."""
    A = np.asarray(A, dtype=float)
    row_sq = np.sum(A * A, axis=1)
    out = 2.0 * float(np.sqrt(np.sum(row_sq**2)))
    if out == 0.0:
        raise ValueError("A must be nonzero")
    return out


def rpr_map(A, b):
    """Bundle the quadratic residual map for measurements ``(A, b)``."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n, d = A.shape
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")
    return SmoothMap(
        in_dim=d,
        out_dim=n,
        eval=lambda x: rpr_eval(A, b, x),
        jt_vec=lambda x, v: rpr_jt_vec(A, x, v),
    )
