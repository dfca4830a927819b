import numpy as np
import pytest

from dcvs import oracle
from dcvs.oracle import brute_prox_nd, check_descent, fd_grad


def test_brute_prox_nd_scalar_abs():
    z, = brute_prox_nd(np.abs, 2.0, 0.5, radius=5.0, step=1e-5)
    assert z == pytest.approx(1.5, abs=2e-5)


def test_brute_prox_nd_scalar_quadratic_alone():
    z, = brute_prox_nd(lambda t: np.zeros_like(t), 7.0, 1.0, radius=1.0, step=1e-4)
    assert z == pytest.approx(7.0, abs=1e-4)


def test_brute_prox_nd_scalar_returns_exact_zero():
    # |z| + z^2/2 has its unique minimiser at 0, a grid point when t = 0:
    # the grid's own 0.0 comes back, not a neighbour
    z, = brute_prox_nd(np.abs, 0.0, 1.0, radius=1.0, step=1e-3)
    assert z == 0.0


def test_brute_prox_nd_tie_across_chunks_keeps_the_first():
    # -|w| + w^2/(2*mu) has equal minima at -mu and +mu, exact on this
    # grid of integers; they lie in the first and second chunks
    half = oracle._CHUNK
    w, = brute_prox_nd(lambda t: -np.abs(t), 0.0, half / 2, radius=half, step=1.0)
    assert w == -half / 2


def test_brute_prox_nd_rejects_bad_grid():
    with pytest.raises(ValueError):
        brute_prox_nd(np.abs, 0.0, 1.0, radius=1.0, step=0.0)
    with pytest.raises(ValueError):
        brute_prox_nd(np.abs, 0.0, 1.0, radius=1e-6, step=1e-3)


def test_brute_prox_nd_flags_nonfinite():
    with pytest.raises(FloatingPointError):
        brute_prox_nd(lambda t: np.where(t > 0.5, np.inf, 0.0), 0.0, 1.0,
                      radius=1.0, step=1e-2)


def test_brute_prox_nd_top1():
    top1 = lambda W: np.sort(np.abs(W), axis=-1)[..., -1:].sum(axis=-1)
    w = brute_prox_nd(top1, [3.0, 1.0], 1.0, radius=1.2, step=1e-3)
    assert np.allclose(w, [2.0, 1.0], atol=2e-3)


def test_brute_prox_nd_zero_function():
    w = brute_prox_nd(lambda W: np.zeros(W.shape[0]), [0.4, -0.2], 1.0,
                      radius=0.5, step=1e-2)
    assert np.allclose(w, [0.4, -0.2], atol=1e-2)


def test_brute_prox_nd_l1():
    w = brute_prox_nd(lambda W: np.abs(W).sum(axis=-1), [3.0, 1.0], 1.0, radius=1.2, step=1e-3)
    assert np.allclose(w, [2.0, 0.0], atol=2e-3)


def test_brute_prox_nd_dimension_cap():
    with pytest.raises(ValueError):
        brute_prox_nd(lambda W: np.zeros(W.shape[0]), np.zeros(4), 1.0,
                      radius=0.1, step=0.05)


def test_fd_grad_constant_and_linear():
    assert np.allclose(fd_grad(lambda x: 3.0, np.zeros(4)), 0.0)
    c = np.array([1.0, -2.0, 0.5])
    g = fd_grad(lambda x: float(c @ x), np.array([0.3, 0.1, -0.7]))
    assert np.allclose(g, c, atol=1e-9)


def test_fd_grad_quadratic():
    x = np.array([1.0, -2.0])
    g = fd_grad(lambda y: float(y @ y), x)
    assert np.allclose(g, 2 * x, atol=1e-8)


def test_check_descent():
    quad = lambda p: (float(np.dot(p, p)), 2.0 * np.asarray(p, dtype=float))
    x = np.array([0.0])
    y = np.array([1.0])
    assert check_descent(quad, x, x, kappa=1.0)
    assert check_descent(quad, x, y, kappa=2.0)  # equality case
    assert not check_descent(quad, x, y, kappa=1.0)
