import numpy as np
import pytest
from helpers import breakpoint_gap, catalog_losses, surrogate_reference

from dcvs import generate_instance, make_loss, prox, rpr_map, spectral_init, surrogate_at_residual
from dcvs.losses import MU_MAX
from dcvs.oracle import fd_grad


def test_make_loss_examples():
    tl = make_loss("trimmed_l1", 3, K=1)
    assert tl.phi_value(np.array([3.0, -1.0, 2.0])) == pytest.approx(3.0)
    cl = make_loss("capped_l1", 2, beta=1.0)
    assert cl.phi_value(np.array([0.5, 10.0])) == pytest.approx(1.5)
    t0 = make_loss("trimmed_l1", 2, K=0)
    assert t0.phi_value(np.array([3.0, -4.0])) == pytest.approx(7.0)


def test_make_loss_validation():
    with pytest.raises(ValueError):
        make_loss("mcp", 4, lam=1.0, beta=-1.0)
    with pytest.raises(ValueError):
        make_loss("capped_l1", 4)
    with pytest.raises(ValueError):
        make_loss("trimmed_l1", 4, K=4)
    # a non-integral K is rejected, not truncated
    for K in (2.5, 2.0):
        with pytest.raises(ValueError):
            make_loss("trimmed_l1", 10, K=K)
    assert make_loss("trimmed_l1", 10, K=np.int64(2)).params == {"K": 2}
    # a bool is no number (K=True would trim one residual, beta=True be
    # 1.0), nor is a string; the residual dimension n must be an integer
    for name, kwargs in [("trimmed_l1", {"K": True}), ("capped_l1", {"beta": True}),
                         ("mcp", {"lam": True, "beta": 2.0}), ("capped_l1", {"beta": "1"})]:
        with pytest.raises(ValueError, match="number"):
            make_loss(name, 10, **kwargs)
    for n in (2.5, True, 10**400):
        with pytest.raises(ValueError, match="^n must be"):
            make_loss("l1", n)
    with pytest.raises(ValueError):
        make_loss("unknown", 4)
    # a parameter the named loss does not take is an error, not ignored
    for name, kwargs in [("capped_l1", {"lam": 5.0, "beta": 1.0}),
                         ("l1", {"K": 3, "beta": 2.0}), ("l1", {"lam": 2.0}),
                         ("trimmed_l1", {"K": 1, "beta": 1.0}),
                         ("trimmed_l1", {"K": 1, "lam": 0.5}),
                         ("mcp", {"beta": 1.0, "K": 1}),
                         ("capped_l1", {"beta": 1.0, "K": 1})]:
        with pytest.raises(ValueError, match="takes no"):
            make_loss(name, 10, **kwargs)
    # an infinite parameter gives a NaN surrogate (mcp) or plain l1
    # (capped_l1), as a loss spec already rejects it
    for name, kwargs in [("mcp", {"beta": np.inf}), ("mcp", {"lam": np.inf, "beta": 1.0}),
                         ("capped_l1", {"beta": np.inf})]:
        with pytest.raises(ValueError, match="finite"):
            make_loss(name, 3, **kwargs)
    # the default lam, as any spec-built loss passes it, is accepted
    assert make_loss("capped_l1", 10, lam=1.0, beta=1.0).L_f == make_loss("l1", 10).L_f


def test_constants():
    n = 9
    assert make_loss("l1", n).L_f == pytest.approx(3.0)
    assert make_loss("l1", n).L_g == 0.0
    mcp = make_loss("mcp", n, lam=2.0, beta=1.0)
    assert mcp.L_f == pytest.approx(6.0)
    assert mcp.L_g == pytest.approx(6.0)
    capped = make_loss("capped_l1", n, beta=1.0)
    assert capped.L_g == pytest.approx(3.0)
    trimmed = make_loss("trimmed_l1", n, K=4)
    assert trimmed.L_g == pytest.approx(2.0)
    assert MU_MAX == 1.0


def test_phi_matches_closed_forms():
    rng = np.random.default_rng(0)
    n = 12
    for _ in range(50):
        z = rng.standard_normal(n) * rng.uniform(0.2, 4.0)
        a = np.abs(z)

        assert make_loss("l1", n).phi_value(z) == pytest.approx(a.sum())

        lam, beta = 1.3, 0.8
        mcp = make_loss("mcp", n, lam=lam, beta=beta)
        direct = np.where(a <= beta * lam, lam * a - z**2 / (2 * beta),
                          beta * lam**2 / 2).sum()
        assert mcp.phi_value(z) == pytest.approx(direct)

        capped = make_loss("capped_l1", n, beta=1.1)
        assert capped.phi_value(z) == pytest.approx(np.minimum(a, 1.1).sum())

        K = 4
        trimmed = make_loss("trimmed_l1", n, K=K)
        assert trimmed.phi_value(z) == pytest.approx(np.sort(a)[: n - K].sum())


def test_g_and_phi_nonnegative():
    rng = np.random.default_rng(1)
    n = 10
    for loss in catalog_losses(n):
        for _ in range(50):
            z = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            assert loss.g_value(z) >= 0.0
            assert loss.phi_value(z) >= 0.0


def test_surrogate_matches_checked_reference():
    # surrogate_at_residual runs the Moreau step inlined; it must give the
    # bits of the checked public composition, with and without the
    # gradient, on residuals with exact zeros, ties at both signs, values on
    # the kinks and huge outliers
    rng = np.random.default_rng(7)
    n = 40
    losses = catalog_losses(n) + [make_loss("trimmed_l1", n, K=0)]
    for _ in range(60):
        drawn_mu = float(rng.uniform(1e-6, MU_MAX))
        z = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        z[rng.integers(0, n, 4)] = 0.0
        z[rng.integers(0, n, 3)] = z[0]
        z[rng.integers(0, n, 3)] = -z[1]
        z[rng.integers(0, n, 2)] = drawn_mu
        z[rng.integers(0, n, 2)] = -1.5  # the capped_l1 kink, beta = 1.5
        z[rng.integers(0, n, 3)] *= 1e12
        for mu in (MU_MAX, 0.5, 1e-3, drawn_mu):
            for loss in losses:
                ref_value, ref_grad = surrogate_reference(loss, z, mu)
                value, grad = surrogate_at_residual(loss, z, mu)
                assert value == ref_value, (loss.name, mu)
                assert np.array_equal(grad, ref_grad), (loss.name, mu)
                assert surrogate_at_residual(loss, z, mu, grad=False) == ref_value


def test_surrogate_trivial_cases():
    n = 6
    for loss in catalog_losses(n):
        val, grad = surrogate_at_residual(loss, np.zeros(n), 0.5)
        assert val == pytest.approx(0.0)
        assert np.allclose(grad, 0.0)


def test_surrogate_l1_frozen_example():
    loss = make_loss("l1", 1)
    val, grad = surrogate_at_residual(loss, np.array([2.0]), 0.5)
    assert val == pytest.approx(1.75)
    assert np.allclose(grad, [1.0])


def test_trimmed_k0_equals_l1():
    rng = np.random.default_rng(2)
    n = 8
    l1 = make_loss("l1", n)
    t0 = make_loss("trimmed_l1", n, K=0)
    for _ in range(20):
        z = rng.standard_normal(n) * 3.0
        mu = float(rng.uniform(0.05, 1.0))
        v1, g1 = surrogate_at_residual(l1, z, mu)
        v2, g2 = surrogate_at_residual(t0, z, mu)
        assert v1 == pytest.approx(v2)
        assert np.allclose(g1, g2)


def test_surrogate_mu_range():
    loss = make_loss("l1", 3)
    with pytest.raises(ValueError):
        surrogate_at_residual(loss, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        surrogate_at_residual(loss, np.zeros(3), 1.5)


def test_loss_rejects_a_residual_of_another_length():
    # a loss is built for n residuals: a shorter vector would be summed and
    # a (2, 5) or (n, 1) array broadcast or summed without complaint
    n = 10
    for loss in catalog_losses(n):
        for z in (np.ones(5), np.ones((2, 5)), np.ones((n, 1)), np.ones(n + 1)):
            with pytest.raises(ValueError, match=r"^z must have shape \(10,\)"):
                surrogate_at_residual(loss, z, 0.5)
            with pytest.raises(ValueError, match=r"^z must have shape \(10,\)"):
                surrogate_at_residual(loss, z, 0.5, grad=False)
            with pytest.raises(ValueError, match=r"^z must have shape \(10,\)"):
                loss.phi_value(z)
        # a residual of the right length, given as a list, still reads
        assert loss.phi_value([0.0] * n) == 0.0


def test_surrogate_sandwich_bounds():
    # phi - mu*L_f^2 <= surrogate <= phi + mu*L_g^2, so the gap vanishes
    # as mu -> 0 at rate mu * max(L_f^2, L_g^2)
    rng = np.random.default_rng(3)
    n = 10
    for loss in catalog_losses(n):
        for _ in range(60):
            z = rng.standard_normal(n) * rng.uniform(0.2, 5.0)
            mu = float(rng.uniform(0.01, 1.0))
            val, _ = surrogate_at_residual(loss, z, mu)
            phi = loss.phi_value(z)
            assert val >= phi - mu * loss.L_f**2 - 1e-9
            assert val <= phi + mu * loss.L_g**2 + 1e-9
            gap_bound = mu * max(loss.L_f**2, loss.L_g**2)
            assert abs(val - phi) <= gap_bound + 1e-9


def test_surrogate_permutation_equivariance():
    rng = np.random.default_rng(4)
    n = 9
    for loss in catalog_losses(n):
        for _ in range(20):
            z = rng.standard_normal(n) * 2.0
            mu = float(rng.uniform(0.1, 1.0))
            perm = rng.permutation(n)
            v1, g1 = surrogate_at_residual(loss, z, mu)
            v2, g2 = surrogate_at_residual(loss, z[perm], mu)
            assert v1 == pytest.approx(v2)
            assert np.allclose(g1[perm], g2)


def test_surrogate_gradient_vs_finite_differences():
    rng = np.random.default_rng(5)
    n = 8
    for loss in catalog_losses(n):
        done = 0
        while done < 30:
            z = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
            mu = float(rng.uniform(0.1, 1.0))
            if breakpoint_gap(loss, z, mu) <= 1e-4:
                continue
            done += 1
            val, grad = surrogate_at_residual(loss, z, mu)
            fd = fd_grad(lambda y: surrogate_at_residual(loss, y, mu)[0], z)
            assert np.linalg.norm(fd - grad) <= 1e-5 * (1.0 + np.linalg.norm(grad))


def test_kernels_leave_their_inputs_unchanged():
    # the step's kernels write in place only into arrays they made: every
    # input here is read-only, so a write into one would raise, and each
    # still holds its bytes afterwards; d = 200 puts spectral_init's form
    # in three panels
    inst = generate_instance(200, 1000, 0.3, 1.0, seed=3)
    rng = np.random.default_rng(16)
    inputs = {"A": inst.A, "b": inst.b, "x": rng.standard_normal(200),
              "v": rng.standard_normal(1000), "z": rng.standard_normal(1000) * 3.0}
    saved = {key: value.copy() for key, value in inputs.items()}
    for value in inputs.values():
        value.flags.writeable = False
    A, b, x, v, z = inputs.values()
    smooth_map = rpr_map(A, b)
    residual, Ax = smooth_map.eval(x)
    Ax.flags.writeable = False
    smooth_map.jt_vec(Ax, v)
    spectral_init(A, b, 3)
    for loss in catalog_losses(1000):
        loss.phi_value(z)
        for grad in (True, False):
            surrogate_at_residual(loss, z, 0.3, grad=grad)
    prox.huber_value(z, 1.0, 2.0)
    prox.topk_value(z, 300)
    prox.prox_topk(z, 300, 0.3)  # a window of 65 kinks, bracketed first
    prox.prox_topk(z, 300, 1e-13)  # 2E > mu: every kink is in the window
    prox.prox_topk(z, 1000, 0.3)  # K = n: the box clip fits
    for key, value in inputs.items():
        assert value.tobytes() == saved[key].tobytes(), key
