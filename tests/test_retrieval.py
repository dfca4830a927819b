import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import catalog_losses, spectral_form_mismatches

from dcvs import (
    SolverConfig,
    generate_instance,
    kappa_fn_for_loss,
    kappa_mu,
    make_loss,
    rpr_map,
    solve,
    spectral_init,
    success,
    surrogate_oracle,
)
from dcvs.oracle import check_descent
from dcvs.retrieval import _gemm_panels


def test_generate_instance_inlier_structure():
    inst = generate_instance(10, 50, 0.0, 1.0, seed=0)
    clean = (inst.A @ inst.x_star) ** 2
    noise = inst.b - clean
    assert inst.outlier_idx.size == 0
    assert np.abs(noise).max() < 1e-2  # variance 1e-6 noise stays tiny
    assert set(np.unique(inst.x_star)) <= {-1.0, 1.0}


def test_generate_instance_outlier_cardinality():
    inst = generate_instance(5, 10, 0.3, 1.0, seed=1)
    assert inst.outlier_idx.size == 3
    inst = generate_instance(10, 100, 0.35, 1.0, seed=2)
    assert inst.outlier_idx.size == 35


def test_generate_instance_determinism():
    a = generate_instance(8, 40, 0.25, 2.0, outlier_kind="uniform", seed=123)
    b = generate_instance(8, 40, 0.25, 2.0, outlier_kind="uniform", seed=123)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.x_star, b.x_star)
    assert np.array_equal(a.outlier_idx, b.outlier_idx)


def test_generate_instance_uniform_outliers_bounded():
    inst = generate_instance(8, 40, 0.25, 2.0, outlier_kind="uniform", seed=3)
    clean = (inst.A @ inst.x_star) ** 2
    M = clean.max()
    assert np.all(inst.b[inst.outlier_idx] <= 2.0 * M)
    assert np.all(inst.b[inst.outlier_idx] >= 0.0)


def test_generate_instance_validation():
    with pytest.raises(ValueError):
        generate_instance(10, 5, 0.0, 1.0)
    with pytest.raises(ValueError):
        generate_instance(2, 10, 1.0, 1.0)
    with pytest.raises(ValueError):
        generate_instance(2, 10, 0.97, 1.0)  # round(9.7) = 10 leaves no inliers
    with pytest.raises(ValueError):
        generate_instance(2, 10, 0.1, -1.0)
    with pytest.raises(ValueError):
        generate_instance(2, 10, 0.1, 1.0, outlier_kind="weird")
    # NaN fails every ordered comparison, an infinite scale writes infinite
    # outliers and an infinite noise variance infinite measurements
    nan, inf = float("nan"), float("inf")
    for s in (nan, inf):
        with pytest.raises(ValueError, match="s must be positive and finite"):
            generate_instance(5, 20, 0.1, s)
    for noise in (nan, -1e-6, inf):
        with pytest.raises(ValueError, match="noise_variance must be nonnegative"):
            generate_instance(5, 20, 0.0, 1.0, noise_variance=noise)
    # the seed is an integer >= 0: a bool is no number
    for seed in (-1, 2.5, "3", True):
        with pytest.raises(ValueError, match="^seed"):
            generate_instance(5, 20, 0.0, 1.0, seed=seed)
    # the sizes are counts too: a bool is no number, an int beyond the
    # float range is no size, and 5.0, 20.0 read as 5, 20
    for d, n, field in ((True, 20, "d"), (2.5, 20, "d"), (5, 10**400, "n")):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            generate_instance(d, n, 0.1, 1.0)
    # a finite s whose outliers overflow: it used to return 8 infinite
    # measurements, rejected only later as "b must have only finite entries"
    for kind in ("cauchy", "uniform"):
        with pytest.raises(ValueError, match="^s = 1e\\+308 overflows 8 of 8 outlier values"):
            generate_instance(5, 40, 0.2, 1e308, outlier_kind=kind, seed=1)
    as_floats = generate_instance(5.0, 20.0, 0.1, 1.0, seed=3)
    as_ints = generate_instance(5, 20, 0.1, 1.0, seed=3)
    for key in ("A", "b", "x_star", "outlier_idx"):
        assert np.array_equal(getattr(as_floats, key), getattr(as_ints, key))


def test_spectral_init_shape_and_determinism():
    inst = generate_instance(12, 60, 0.2, 1.0, seed=4)
    x1 = spectral_init(inst.A, inst.b, 4)
    x2 = spectral_init(inst.A, inst.b, 4)
    assert x1.shape == (12,)
    assert np.all(np.isfinite(x1))
    assert np.array_equal(x1, x2)


def test_spectral_init_validation():
    # the seed rule is generate_instance's: an integer >= 0 (True would run
    # as seed 1), and the pair is rpr_map's: a matrix A and one b_i per row
    inst = generate_instance(6, 30, 0.1, 1.0, seed=2)
    for seed in (-1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="^seed must be"):
            spectral_init(inst.A, inst.b, seed)
    with pytest.raises(ValueError, match="^A must be"):
        spectral_init(inst.A[0], inst.b[:1], 2)
    with pytest.raises(ValueError, match="^b must be"):
        spectral_init(inst.A, inst.b[:-1], 2)
    # a NaN measurement gave an all-NaN start
    with pytest.raises(ValueError, match="^b must have only finite"):
        spectral_init(inst.A, np.where(np.arange(30) == 3, np.nan, inst.b), 2)
    assert np.array_equal(spectral_init(inst.A, inst.b, 2.0), spectral_init(inst.A, inst.b, 2))


# spectral forms of one panel, two (the halved rest of 500 and 645 rows),
# three (1000 rows), four and six (d >= 192); then forms whose last panel
# OpenBLAS would hand to its small-matrix kernel, which lose the single
# product's bits when split, so they stay one product
SPECTRAL_FORM_SHAPES = [(30, 240), (100, 500), (100, 1000), (129, 645), (200, 1000),
                        (256, 1280), (300, 1500), (400, 2000)]
SMALL_KERNEL_FORM_SHAPES = [(40, 400), (40, 600), (50, 400)]


def test_spectral_form_panels_keep_the_single_product_bits():
    # OpenBLAS's bits depend on its thread count, the single product's
    # included, so the panels promise that product's bits on one thread,
    # the one tests/conftest.py pins, as tools/yardstick.py and the
    # benchmark do.  The panel edges are those of OpenBLAS's SkylakeX
    # core: a BLAS that splits differently fails here.
    assert _gemm_panels(1000) == [0, 384, 704, 1000]
    assert _gemm_panels(500) == [0, 256, 500]
    assert spectral_form_mismatches(SPECTRAL_FORM_SHAPES + SMALL_KERNEL_FORM_SHAPES) == []


def test_spectral_init_peak_memory():
    # beside A the form holds one panel of 384 rows, its weighted copy, one
    # d x d product and Y: 0.79 |A| here, where row blocks of Y read 1.48 |A|
    # and the single product 2.2 |A|
    inst = generate_instance(400, 2000, 0.4, 1.0, seed=0)
    spectral_init(inst.A[:40, :8], inst.b[:40], 0)  # numpy's first-call set-up, untraced
    tracemalloc.start()
    try:
        spectral_init(inst.A, inst.b, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * inst.A.nbytes


def test_spectral_init_quality_outlier_free():
    hits = 0
    for seed in range(40):
        inst = generate_instance(50, 1000, 0.0, 1.0, seed=seed)
        x1 = spectral_init(inst.A, inst.b, seed)
        cos = abs(x1 @ inst.x_star) / (
            np.linalg.norm(x1) * np.linalg.norm(inst.x_star)
        )
        hits += cos >= 0.5
    assert hits >= 36  # >= 90% of seeds


def start_direction(d, seed):
    v = np.random.default_rng([seed, 1]).standard_normal(d)
    return v / np.linalg.norm(v)


def test_spectral_init_degenerate_fallback():
    # each degenerate case returns the seeded power-iteration start vector,
    # unchanged, at radius sqrt(max(median|b|, 1e-12))
    inst = generate_instance(7, 30, 0.0, 1.0, seed=5)
    v = start_direction(7, 5)
    # all-zero weights: every b_i = 0 lies inside [0, tau], and Y = 0
    x1 = spectral_init(inst.A, inst.b * 0.0, 5)
    assert np.array_equal(x1, float(np.sqrt(1e-12)) * v)
    # no nonnegative measurement at all
    b = -np.abs(inst.b)
    x2 = spectral_init(inst.A, b, 5)
    assert np.array_equal(x2, float(np.sqrt(np.median(np.abs(b)))) * v)
    # tau = 3 * median|b| = 3 leaves no nonnegative b_i inside [0, tau]: the
    # fallback radius sqrt(median|b|) = 1, with no NaN and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x3 = spectral_init(np.ones((4, 2)), [-1.0, -1.0, -1.0, 100.0], 0)
    assert np.array_equal(x3, start_direction(2, 0))
    # positive weights on zero rows of A: Y = 0 again
    x4 = spectral_init(np.zeros((4, 2)), np.ones(4), 0)
    assert np.array_equal(x4, start_direction(2, 0))


def test_success_examples():
    x_star = np.array([1.0, -1.0, 1.0])
    assert success(x_star, x_star) == (0.0, True)
    assert success(-x_star, x_star) == (0.0, True)
    rel, ok = success(1.002 * x_star, x_star)
    assert rel == pytest.approx(0.002)
    assert not ok
    rel_pos = success(np.array([0.5, 0.5, 0.5]), x_star)[0]
    rel_neg = success(-np.array([0.5, 0.5, 0.5]), x_star)[0]
    assert rel_pos == pytest.approx(rel_neg)
    with pytest.raises(ValueError):
        success(x_star, np.zeros(3))
    # a column estimate would broadcast against x_star to a 3x3 difference
    with pytest.raises(ValueError, match=r"^x must have the shape of x_star \(3,\)"):
        success(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="^x must"):
        success(np.ones(2), x_star)


def test_kappa_mu_values():
    assert kappa_mu(np.array([[1.0]]), np.array([1.0]), 1.0, 1.0, 0.5) == pytest.approx(16.0)
    assert kappa_mu(np.array([[1.0]]), np.array([0.0]), 1.0, 0.0, 1.0) == pytest.approx(6.0)
    # the pair is checked as rpr_map checks it, not summed over silently
    with pytest.raises(ValueError, match="^b must be"):
        kappa_mu(np.ones((3, 2)), np.ones(2), 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="^A must be"):
        kappa_mu(np.ones((0, 2)), np.ones(0), 1.0, 1.0, 0.5)
    # a NaN or nonpositive lam or mu, or a NaN L_g, is no bound, and an
    # infinite measurement gave an infinite one
    for lam, L_g, mu, b, name in ((1.0, np.nan, 0.5, 1.0, "L_g"), (1.0, 1.0, 0.0, 1.0, "mu"),
                                  (1.0, 1.0, np.nan, 1.0, "mu"), (0.0, 1.0, 0.5, 1.0, "lam"),
                                  (1.0, 1.0, 0.5, np.inf, "b")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            kappa_mu(np.array([[1.0]]), np.array([b]), lam, L_g, mu)


def test_kappa_mu_affine_in_inverse_mu():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    row_sq = np.sum(A * A, axis=1)
    m2 = (row_sq * np.abs(b)).sum()
    mu = 0.4
    diff = kappa_mu(A, b, 1.0, 1.0, mu / 2) - kappa_mu(A, b, 1.0, 1.0, mu)
    assert diff == pytest.approx(4.0 * m2 / mu)


def test_descent_inequality_fuzz_small():
    # smoothed composite obeys the quadratic upper bound with the
    # instance curvature constant, for every catalog loss
    rng = np.random.default_rng(7)
    inst = generate_instance(10, 50, 0.25, 1.0, seed=8)
    m = rpr_map(inst.A, inst.b)
    for loss in catalog_losses(50):
        kap = kappa_fn_for_loss(inst.A, inst.b, loss)
        for _ in range(150):
            mu = float(rng.uniform(0.01, 1.0))
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            assert check_descent(
                lambda p: surrogate_oracle(loss, m, p, mu), x, y, kap(mu)
            )


def test_cost_sign_symmetry():
    inst = generate_instance(9, 45, 0.2, 1.0, seed=9)
    m = rpr_map(inst.A, inst.b)
    rng = np.random.default_rng(10)
    for loss in catalog_losses(45):
        for _ in range(10):
            x = rng.standard_normal(9)
            assert loss.phi_value(m.eval(x)[0]) == pytest.approx(
                loss.phi_value(m.eval(-x)[0])
            )


def test_success_invariant_under_solver_sign_flip():
    inst = generate_instance(8, 80, 0.0, 1.0, seed=11)
    m = rpr_map(inst.A, inst.b)
    x1 = spectral_init(inst.A, inst.b, 11)
    cfg = SolverConfig(max_iters=500, time_cap_seconds=None)
    rec_pos = solve(make_loss("l1", 80), m, x1, cfg)
    rec_neg = solve(make_loss("l1", 80), m, -x1, cfg)
    rel_pos, ok_pos = success(rec_pos.x_final, inst.x_star)
    rel_neg, ok_neg = success(rec_neg.x_final, inst.x_star)
    assert rel_pos == pytest.approx(rel_neg)
    assert ok_pos == ok_neg
