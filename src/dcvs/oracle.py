"""Brute-force and finite-difference verifiers.

Deliberately dumb and independent of the closed forms they check: grid
argmin for prox problems, central differences for gradients, and a direct
evaluation of the quadratic-upper-bound inequality used by the solver
analysis.  These are the ground truth the rest of the library is tested
against.
"""

import math

import numpy as np

# grid points scanned per chunk: a chunk's arrays (256 KB each at dim 1)
# stay in a core's L2 cache, where million-point chunks ran from memory
_CHUNK = 32_768


def brute_prox_nd(value_fn, z, mu, radius, step):
    """Grid argmin of ``value_fn(w) + ||w - z||^2/(2*mu)`` over the product
    grid ``z_i +- radius`` with spacing ``step``; ``z`` is a scalar or a
    vector of dimension at most 3.  Returns the first minimiser in grid
    order, as an array of ``z``'s size.

    ``value_fn`` takes an ``(m, dim)`` array of points and returns ``m``
    values in any shape, so an elementwise function serves at dim 1.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    dim = z.size
    if dim > 3:
        raise ValueError("grid oracle limited to dim <= 3")
    if step <= 0 or radius < step:
        raise ValueError("need step > 0 and radius >= step")
    if not mu > 0:
        raise ValueError("mu must be positive")
    half = int(math.ceil(radius / step))
    size = 2 * half + 1

    def axis(zi, start, stop):
        # the coordinates zi + (k - half)*step for k in [start, stop), and
        # their squared distances to zi
        w = zi + np.arange(start - half, stop - half) * step
        return w, (w - zi) ** 2

    rest = [axis(zi, 0, size) for zi in z[1:]]
    # whole first-axis rows of the grid, about _CHUNK points at a time, the
    # first axis formed per chunk too; a later chunk wins only if strictly
    # lower, so the first minimiser stays
    block = max(1, _CHUNK // size ** (dim - 1))

    best_obj = math.inf
    best_w = None
    for i in range(0, size, block):
        axes, squares = zip(axis(z[0], i, min(i + block, size)), *rest)
        pts = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, dim)
        # summed left to right, as np.sum((pts - z) ** 2, axis=1) would
        quad = sum(np.meshgrid(*squares, indexing="ij", copy=False))
        obj = np.asarray(value_fn(pts), dtype=float).reshape(len(pts))
        obj = obj + quad.ravel() / (2.0 * mu)
        if not np.all(np.isfinite(obj)):
            raise FloatingPointError("non-finite objective on the oracle grid")
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            best_w = pts[j].copy()
    return best_w


def fd_grad(scalar_fn, x, h=1e-6):
    """Central-difference gradient of ``scalar_fn`` at ``x``."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (scalar_fn(x + e) - scalar_fn(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite finite-difference gradient")
    return g


def check_descent(value_grad_fn, x, y, kappa):
    """True iff F(y) <= F(x) + <grad F(x), y - x> + (kappa/2)||y - x||^2,
    up to a small floating-point slack.

    ``value_grad_fn`` maps a point to a ``(value, gradient)`` pair.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    fx, gx = value_grad_fn(x)
    fy, _ = value_grad_fn(y)
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    bound = fx + float(np.dot(gx, d)) + 0.5 * kappa * float(np.dot(d, d))
    return fy <= bound + 1e-9 * (1.0 + abs(fx))
