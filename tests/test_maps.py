import numpy as np
import pytest
from helpers import catalog_losses, draw_x_away_from_kinks

from dcvs import generate_instance, rpr_map, surrogate_at_residual
from dcvs.oracle import fd_grad


def test_rpr_eval_examples():
    z, Ax = rpr_map(np.array([[1.0]]), np.array([1.0])).eval(np.array([2.0]))
    assert np.allclose(z, [3.0]) and np.allclose(Ax, [2.0])
    z, Ax = rpr_map(np.eye(2), np.zeros(2)).eval(np.array([1.0, 2.0]))
    assert np.allclose(z, [1.0, 4.0]) and np.allclose(Ax, [1.0, 2.0])
    A = np.random.default_rng(0).standard_normal((5, 3))
    x = np.array([0.5, -1.0, 2.0])
    b = (A @ x) ** 2
    z, Ax = rpr_map(A, b).eval(x)
    assert np.allclose(z, 0.0)
    # the linearisation is returned exactly as the residual used it
    assert np.array_equal(z, Ax * Ax - b)


def test_rpr_ray_primitives():
    # eval is residual o matvec, bit for bit; along a ray x - gamma*v the
    # linearisation Ax - gamma*Av gives the residual eval computes there,
    # up to the roundoff of the two ways of forming it
    rng = np.random.default_rng(3)
    A, b = rng.standard_normal((40, 6)), rng.uniform(0.0, 5.0, 40)
    m = rpr_map(A, b)
    x, v = rng.standard_normal(6), rng.standard_normal(6)
    z, Ax = m.eval(x)
    assert np.array_equal(Ax, m.matvec(x)) and np.array_equal(z, m.residual(Ax))
    Av = m.matvec(v)
    for gamma in (1.0, 0.37, 1e-3):
        z_ray = m.residual(Ax - gamma * Av)
        assert np.allclose(z_ray, m.eval(x - gamma * v)[0], rtol=1e-13, atol=1e-13)


def test_rpr_eval_shape_errors():
    with pytest.raises(ValueError):
        rpr_map(np.ones(2), np.zeros(1))  # A must be a matrix
    with pytest.raises(ValueError):
        rpr_map(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError, match="^A must be"):
        rpr_map(np.ones((0, 2)), np.zeros(0))  # no measurement to fit
    # a NaN or infinite measurement is bad data, not a solver failure
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^A must have only finite"):
            rpr_map(np.array([[1.0, bad], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="^b must have only finite"):
            rpr_map(np.eye(2), np.array([0.0, -bad]))
    m = rpr_map(np.ones((3, 2)), np.zeros(3))
    # numpy alone would broadcast the (d, 1) point and the length-1 vectors
    for bad_x in (np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(ValueError):
            m.eval(bad_x)
        with pytest.raises(ValueError, match="^v must have shape"):
            m.matvec(bad_x)
    for bad in (np.ones(2), np.ones(4), np.ones(1), np.ones((3, 1))):
        with pytest.raises(ValueError):
            m.jt_vec(bad, np.ones(3))
        with pytest.raises(ValueError):
            m.jt_vec(np.ones(3), bad)
        with pytest.raises(ValueError, match="^Ax must have shape"):
            m.residual(bad)


def test_rpr_jt_vec_examples():
    m = rpr_map(np.eye(2), np.zeros(2))
    _, Ax = m.eval(np.array([1.0, 2.0]))
    assert np.allclose(m.jt_vec(Ax, np.zeros(2)), 0.0)
    assert np.allclose(m.jt_vec(Ax, np.ones(2)), [2.0, 4.0])
    m = rpr_map(np.array([[1.0, 1.0]]), np.zeros(1))
    _, Ax = m.eval(np.array([1.0, 1.0]))
    assert np.allclose(m.jt_vec(Ax, np.array([1.0])), [4.0, 4.0])


def test_rpr_jt_vec_matches_finite_differences():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((7, 4))
    x = rng.standard_normal(4)
    v = rng.standard_normal(7)
    m = rpr_map(A, np.zeros(7))
    got = m.jt_vec(m.eval(x)[1], v)
    fd = fd_grad(lambda y: float(v @ m.eval(y)[0]), x)
    assert np.allclose(got, fd, atol=1e-6)


def test_jt_vec_linearity():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 3))
    x = rng.standard_normal(3)
    v1, v2 = rng.standard_normal((2, 6))
    a, b2 = 0.7, -1.3
    m = rpr_map(A, np.zeros(6))
    _, Ax = m.eval(x)
    lhs = m.jt_vec(Ax, a * v1 + b2 * v2)
    rhs = a * m.jt_vec(Ax, v1) + b2 * m.jt_vec(Ax, v2)
    assert np.allclose(lhs, rhs)


def test_directional_derivative_consistency():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    m = rpr_map(A, b)
    h = 1e-6
    for _ in range(20):
        x = rng.standard_normal(5)
        u = rng.standard_normal(5)
        v = rng.standard_normal(8)
        lhs = float(v @ (m.eval(x + h * u)[0] - m.eval(x - h * u)[0]) / (2 * h))
        rhs = float(m.jt_vec(m.eval(x)[1], v) @ u)
        assert abs(lhs - rhs) <= 1e-5 * (1.0 + abs(rhs))


def test_chain_rule_gradient_through_map():
    rng = np.random.default_rng(6)
    inst = generate_instance(6, 25, 0.2, 1.0, seed=12)
    m = rpr_map(inst.A, inst.b)
    for loss in catalog_losses(m.out_dim):
        for _ in range(10):
            mu = float(rng.uniform(0.1, 1.0))
            x = draw_x_away_from_kinks(rng, loss, inst.A, m, mu)
            z, Ax = m.eval(x)
            _, zgrad = surrogate_at_residual(loss, z, mu)
            grad = m.jt_vec(Ax, zgrad)
            fd = fd_grad(lambda y: surrogate_at_residual(loss, m.eval(y)[0], mu)[0], x)
            assert np.linalg.norm(fd - grad) <= 1e-5 * (1.0 + np.linalg.norm(grad))
