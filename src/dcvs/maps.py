"""Smooth inner mappings and their transposed-Jacobian products.

``eval(x)`` returns the residual ``S(x)`` together with the
linearisation ``Ax`` it was built from, and the only derivative
primitive, ``jt_vec(Ax, v) = D S(x)^T v``, takes that linearisation in
place of ``x``, so a product at an evaluated point costs one matvec.  The
linearisation moves along a ray with the point: ``A(x - γv) = Ax - γ·Av``,
so ``matvec(v)`` once and ``residual`` per point give the residual at
every point of the ray without another product.  Full Jacobians are
never materialized.  The quadratic residual map used by robust phase
retrieval is provided.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SmoothMap:
    """A differentiable mapping R^in_dim -> R^out_dim.

    ``eval(x)`` maps a point to the pair ``(z, Ax)``: the residual vector
    and the linearisation of the map at ``x``.  ``jt_vec(Ax, v)`` applies
    the transposed derivative at that point to ``v``.  ``matvec(v)`` is
    the linear part applied to a direction, and ``residual(Ax)`` the
    residual of a linearisation: ``eval(x)`` is ``(residual(Ax), Ax)``
    with ``Ax = matvec(x)``.
    """

    in_dim: int
    out_dim: int
    eval: Callable
    jt_vec: Callable
    matvec: Callable
    residual: Callable


def _measurements(A, b):
    """The measurement pair ``(A, b)`` as float arrays, checked once for
    every consumer: ``A`` a matrix with at least one row, ``b`` a vector
    with one entry per row, and every entry of both finite."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1:
        raise ValueError(f"A must be a matrix with at least one row, got shape {A.shape}")
    if b.shape != A.shape[:1]:
        raise ValueError(f"b must be a vector of length {A.shape[0]}, got shape {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError(f"{'b' if np.isfinite(A).all() else 'A'} must have only finite entries")
    return A, b


def _vector(name, u, size):
    """``u`` as a float vector of length ``size``, or a ``ValueError`` that
    names it: numpy would broadcast a ``(size, 1)`` array or sum a vector
    of another length without complaint."""
    u = np.asarray(u, dtype=float)
    if u.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {u.shape}")
    return u


def rpr_map(A, b):
    """The quadratic residual map ``S(x) = (Ax) ⊙ (Ax) - b`` for
    measurements ``(A, b)``: ``eval(x)`` returns ``(S(x), Ax)``,
    ``jt_vec(Ax, v) = 2 A^T ((Ax) ⊙ v)``, ``matvec(v) = A v`` and
    ``residual(Ax) = (Ax) ⊙ (Ax) - b``.

    ``A`` and ``b`` are converted and checked here, once, by
    :func:`_measurements`.  Each call checks only the shapes of its
    vectors (``x``; ``Ax`` and ``v``; ``v``; ``Ax``) with :func:`_vector`.
    """
    A, b = _measurements(A, b)
    n, d = A.shape

    def residual(Ax):
        Ax = _vector("Ax", Ax, n)
        z = Ax * Ax
        z -= b
        return z

    def matvec(v):
        return A @ _vector("v", v, d)

    def eval_(x):
        Ax = A @ _vector("x", x, d)
        return residual(Ax), Ax

    def jt_vec(Ax, v):
        g = A.T @ (_vector("Ax", Ax, n) * _vector("v", v, n))
        g *= 2.0
        return g

    return SmoothMap(in_dim=d, out_dim=n, eval=eval_, jt_vec=jt_vec, matvec=matvec,
                     residual=residual)
