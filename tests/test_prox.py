import itertools

import numpy as np
import pytest
from helpers import (
    SCALAR_PROX_FAMILIES,
    all_kink_slacks,
    clip_threshold_all_kinks,
    grid_gap,
    huber_value_reference,
    prox_capped_complement_reference,
    prox_huber_reference,
    prox_scaled_abs_reference,
    prox_topk_reference,
    small_instance,
    topk_grid_value,
    topk_value_reference,
)

import dcvs.losses
from dcvs import SolverConfig, make_loss, prox, solve, spectral_init
from dcvs.oracle import fd_grad


def test_prox_scaled_abs_values():
    assert prox.prox_scaled_abs(0.0, 1.0, 1.0) == 0.0
    # frozen from the 1-D grid oracle (step 1e-5 over [-5, 5])
    assert prox.prox_scaled_abs(2.0, 0.5, 1.0) == pytest.approx(1.5, abs=1e-12)
    assert prox.prox_scaled_abs(-3.0, 1.0, 1.0) == pytest.approx(-2.0, abs=1e-12)


def test_huber_values():
    assert prox.huber_value(0.0, 1.0, 1.0) == 0.0
    assert prox.huber_value(1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert prox.huber_value(3.0, 1.0, 1.0) == pytest.approx(2.5)


def _mcp_at(t, lam, beta):
    """The MCP at one residual ``t``: the loss's ``phi_value``."""
    return make_loss("mcp", 1, lam=lam, beta=beta).phi_value(np.array([t]))


def test_mcp_phi_values():
    assert _mcp_at(0.0, 1.0, 1.0) == 0.0
    assert _mcp_at(1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert _mcp_at(10.0, 2.0, 1.0) == pytest.approx(2.0)


def test_mcp_huber_decomposition():
    # lam*|t| - huber is the MCP's closed form, at lam != 1 too
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = rng.uniform(-8, 8)
        lam = rng.uniform(0.2, 3.0)
        beta = rng.uniform(0.2, 3.0)
        mcp = lam * abs(t) - t * t / (2 * beta) if abs(t) <= beta * lam else beta * lam**2 / 2
        assert lam * abs(t) - prox.huber_value(t, lam, beta) == pytest.approx(
            mcp, abs=1e-12 * lam * abs(t))


def test_prox_huber_values():
    assert prox.prox_huber(0.0, 1.0, 1.0, 1.0) == 0.0
    # frozen from the grid oracle; quadratic branch scales by beta/(beta+mu)
    assert prox.prox_huber(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    # linear branch shifts by mu*lam
    assert prox.prox_huber(5.0, 1.0, 1.0, 1.0) == pytest.approx(4.0, abs=1e-12)


def test_prox_capped_complement_values():
    assert prox.prox_capped_complement(0.5, 1.0, 0.5) == pytest.approx(0.5)
    # frozen from the grid oracle
    assert prox.prox_capped_complement(1.2, 1.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert prox.prox_capped_complement(2.0, 1.0, 0.5) == pytest.approx(1.5, abs=1e-12)


def test_prox_capped_complement_odd():
    ts = np.linspace(-4, 4, 41)
    got = prox.prox_capped_complement(ts, 1.2, 0.7)
    flipped = prox.prox_capped_complement(-ts, 1.2, 0.7)
    assert np.allclose(got, -flipped)


def test_parameter_validation():
    with pytest.raises(ValueError):
        prox.prox_scaled_abs(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        prox.prox_scaled_abs(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        prox.prox_huber(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        prox.prox_capped_complement(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        prox.prox_topk(np.ones(3), 4, 1.0)
    with pytest.raises(ValueError):
        prox.prox_topk(np.ones(3), -1, 1.0)
    with pytest.raises(ValueError):
        prox.moreau_value_and_grad(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        prox.huber_value(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        prox.huber_value(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        prox.topk_value(np.ones(3), -1)
    with pytest.raises(ValueError):
        prox.topk_value(np.ones(3), 4)
    # NaN fails every scale check (a check written ``mu <= 0`` would pass it)
    nan = float("nan")
    for call in (lambda: prox.prox_scaled_abs(1.0, nan, 1.0),
                 lambda: prox.prox_scaled_abs(1.0, 1.0, nan),
                 lambda: prox.huber_value(1.0, nan, 1.0),
                 lambda: prox.huber_value(1.0, 1.0, nan),
                 lambda: prox.prox_huber(1.0, nan, 1.0, 1.0),
                 lambda: prox.prox_huber(1.0, 1.0, nan, 1.0),
                 lambda: prox.prox_huber(1.0, 1.0, 1.0, nan),
                 lambda: prox.prox_capped_complement(1.0, nan, 1.0),
                 lambda: prox.prox_capped_complement(1.0, 1.0, nan),
                 lambda: prox.prox_topk(np.ones(3), 1, nan)):
        with pytest.raises(ValueError, match="must be positive, got nan"):
            call()


def test_prox_topk_values():
    assert np.allclose(prox.prox_topk([3.0, 1.0], 0, 1.0), [3.0, 1.0])
    # frozen from the 2-D grid oracle (step 1e-3)
    assert np.allclose(prox.prox_topk([3.0, 1.0], 1, 1.0), [2.0, 1.0], atol=1e-12)
    # K = n is elementwise soft thresholding
    assert np.allclose(prox.prox_topk([3.0, 1.0], 2, 1.0), [2.0, 0.0], atol=1e-12)
    # a 0-d z is one residual: the prox soft-thresholds it and the norm is |z|
    assert prox.prox_topk(2.0, 1, 0.5) == 1.5
    assert prox.topk_value(2.0, 1) == 2.0 and prox.topk_value(-3.0, 1) == 3.0
    assert prox.topk_value(np.float64(-3.0), 0) == 0.0


def test_prox_topk_sign_and_order():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        K = int(rng.integers(0, n + 1))
        mu = float(rng.uniform(0.05, 2.0))
        z = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        p = prox.prox_topk(z, K, mu)
        sign_ok = (np.sign(p) == 0) | (np.sign(p) == np.sign(z))
        assert sign_ok.all()
        order = np.argsort(-np.abs(z), kind="stable")
        mags = np.abs(p)[order]
        assert np.all(np.diff(mags) <= 1e-12)


def test_prox_topk_matches_grid_oracle():
    rng = np.random.default_rng(2)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        K = int(rng.integers(1, dim + 1))
        mu = float(rng.uniform(0.05, 0.25))
        z = rng.uniform(-1.5, 1.5, dim)
        gap = grid_gap(prox.prox_topk(z, K, mu), lambda W: topk_grid_value(W, K), z, mu,
                       radius=mu + 0.02, step=2e-3)
        assert gap <= 1e-8


def _check_against_all_kinks(z, K, mu):
    """``_clip_threshold`` and ``prox_topk`` equal the all-kink reference
    bit for bit, except that a wrapped reference search gives 0.  Returns
    the shift and whether the reference wrapped."""
    a = np.abs(z)
    theta_ref, wrapped = clip_threshold_all_kinks(a, mu, K)
    expected = 0.0 if wrapped else theta_ref
    theta = prox._clip_threshold(a, mu, K)
    assert theta == expected, (z.tolist(), K, mu)
    p_ref = z - np.sign(z) * np.clip(a - expected, 0.0, mu)
    assert np.array_equal(prox.prox_topk(z, K, mu), p_ref), (z.tolist(), K, mu)
    return theta, wrapped


def _residual_draws(rng, count):
    """``count`` draws of six kinds, mostly at n = 1 to 64, then draws
    whose kink windows exceed ``prox._STRIDE`` kinks, so that the kink
    search brackets its crossing first."""
    kinds = ("gauss", "cauchy", "quarters", "outliers", "plateau", "near_ties")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        n = 1000 if i % 200 < len(kinds) else int(rng.integers(1, 65))
        K = int(rng.choice([1, max(n - 1, 1), n, rng.integers(1, n + 1)]))
        mu = float(rng.choice([1.0, 0.3, 0.05, 1e-3]))
        yield _residual_draw(rng, kind, n, K, mu)
    for n, share, mu, kind in itertools.product((1000, 2000), (0.2, 0.4), (0.05, 0.3),
                                                ("converged", "start")):
        yield _residual_draw(rng, kind, n, int(share * n), mu)
    for K, mu in itertools.product((300, 600, 999), (1.0, 0.3, 0.05)):
        yield _residual_draw(rng, "plateau", 1000, K, mu)


def _residual_draw(rng, kind, n, K, mu):
    if kind == "gauss":
        z = rng.standard_normal(n) * rng.choice([0.01, 1.0, 10.0])
    elif kind == "cauchy":
        z = 50.0 * rng.standard_cauchy(n)
    elif kind == "quarters":
        z = np.round(4.0 * rng.standard_normal(n)) / 4.0
    elif kind == "outliers":
        # tiny inliers next to huge outliers
        z = 1e-3 * rng.standard_normal(n)
        m = int(rng.integers(0, n + 1))
        z[:m] = 1e3 * rng.standard_normal(m)
    elif kind == "plateau":
        # K residuals clear the rest by more than mu: the slack is 0
        # on a whole interval of theta
        z = rng.uniform(-1.0, 1.0, n)
        gap = mu * (1.0 + rng.choice([1e-12, 0.5, 3.0]))
        z[:K] = np.sign(z[:K]) * (1.0 + gap + rng.uniform(0.0, 2.0, K))
    elif kind in ("converged", "start"):
        # K residuals near 1e3, the rest near 1e-3; at "start" the K lie
        # near 1e12, as Cauchy outliers do at a spectral start, so that
        # 2E exceeds mu and the window is every kink
        z = 1e-3 * rng.standard_normal(n)
        z[:K] = (1e3 if kind == "converged" else 1e12) * (1.0 + 1e-3 * rng.random(K))
    else:
        # clusters of values one ulp apart
        pool = rng.standard_normal(3)
        z = pool[rng.integers(0, 3, n)]
        nudge = rng.random(n) < 0.5
        z[nudge] = np.nextafter(z[nudge], np.inf)
    return rng.permutation(z), K, mu


def test_clip_threshold_matches_all_kink_reference():
    rng = np.random.default_rng(8)
    shifts = 0
    for z, K, mu in _residual_draws(rng, 24_000):
        theta, _ = _check_against_all_kinks(z, K, mu)
        shifts += theta > 0.0
    # most draws exercise the kink search, not the early exit or the wrap
    assert shifts > 10_000


def test_clip_threshold_matches_all_kink_reference_on_a_solve(monkeypatch):
    n, K = 200, 80
    inst, smooth_map = small_instance(seed=5, d=20, n=n, p_fail=0.4)
    calls = []

    def recording_prox_topk(z, k, mu):
        calls.append((np.array(z, dtype=float), mu))
        return prox.prox_topk(z, k, mu)

    # the trimmed loss looks prox_topk up in dcvs.losses at each call
    monkeypatch.setattr(dcvs.losses, "prox_topk", recording_prox_topk)
    cfg = SolverConfig(max_iters=400, time_cap_seconds=None)
    solve(make_loss("trimmed_l1", n, K=K), smooth_map, spectral_init(inst.A, inst.b, 5), cfg)
    assert len(calls) > 100
    shifts = 0
    for z, mu in calls:
        theta, wrapped = _check_against_all_kinks(z, K, mu)
        assert not wrapped
        shifts += theta > 0.0
    assert shifts > len(calls) // 2


def test_clip_threshold_all_kink_battery_reaches_the_bracket(monkeypatch):
    # the battery's last draws hold kink windows of more than _STRIDE
    # kinks, which a scan over every _STRIDE-th kink brackets first; at
    # some coarse kink the slack, read off the reference's own prefix
    # sums, lies in (0, 2E], which leaves the bracket open there
    scans = []
    scan = prox._slacks

    def recording_scan(kinks, *args):
        scans.append((kinks, scan(kinks, *args)))
        return scans[-1][1]

    monkeypatch.setattr(prox, "_slacks", recording_scan)
    bracketed = undecided = 0
    for z, K, mu in _residual_draws(np.random.default_rng(8), 0):
        _check_against_all_kinks(z, K, mu)
        a = np.abs(z)
        scans.clear()
        prox._clip_threshold(a, mu, K)
        if len(scans) < 2:
            continue
        bracketed += 1
        (coarse_kinks, computed), _ = scans
        kinks, slack, err = all_kink_slacks(a, mu, K)
        at = np.searchsorted(kinks, coarse_kinks)[:len(computed)]  # the scan stops at <= 0
        assert np.array_equal(slack[at], computed)
        undecided += bool(np.any((slack[at] > 0.0) & (slack[at] <= 2.0 * err)))
    assert bracketed >= 10 and undecided >= 5, (bracketed, undecided)


def test_clip_threshold_bracket_stays_open_at_a_small_positive_slack():
    # the exact slack is 0 on [0.25, 0.45]; computed, it is -1.4e-15 at
    # 0.25 and +3.3e-16 at 0.45, the 33rd kink of the window, which the
    # coarse scan reads.  A coarse slack in (0, 2E] says nothing of the
    # kinks before it, so the bracket stays open there and theta is the
    # first crossing, at 0.25
    a = np.repeat([0.0, 0.25, 0.5, 0.75, 1.0], [9, 22, 11, 4, 3])
    kinks, slack, err = all_kink_slacks(a, 0.05, 18)
    at = dict(zip(kinks.tolist(), slack.tolist()))
    assert at[0.25] <= 0.0 < at[0.45] <= 2.0 * err
    theta, wrapped = _check_against_all_kinks(a, 18, 0.05)
    assert not wrapped and 0.2 < theta < 0.25


def test_clip_threshold_leaves_out_nan_kinks():
    # NaN entries make E NaN, so every kink is in the window; their kinks
    # sort after all others in the reference, and are left out of the scan
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.choice([3, 40, 200]))
        a = np.abs(rng.standard_normal(n))
        a[rng.random(n) < 0.2] = np.nan
        K = int(rng.integers(1, n + 1))
        mu = float(rng.choice([1.0, 0.3, 0.05]))
        theta_ref, wrapped = clip_threshold_all_kinks(a, mu, K)
        assert prox._clip_threshold(a, mu, K) == (0.0 if wrapped else theta_ref), (a.tolist(), K, mu)


@pytest.mark.parametrize(
    "z,K",
    [
        ([0.75, -1.0, 1.25, -0.75, -0.75, -1.0, -0.0], 6),
        # K = n: there is no (K+1)-th largest entry to read
        ([5.0, 10.0, 10.0, 10.0, 10.0, 10.0], 6),
    ],
)
def test_clip_threshold_zero_where_first_kink_fits(z, K):
    # the box-clip sum exceeds mu*K by roundoff, but the prefix-sum slack
    # at theta = 0 is already <= 0; the all-kink search then read kink -1
    # and returned a negative shift
    a = np.abs(np.asarray(z))
    theta_ref, wrapped = clip_threshold_all_kinks(a, 0.3, K)
    assert wrapped and theta_ref < 0.0
    assert prox._clip_threshold(a, 0.3, K) == 0.0


@pytest.mark.parametrize(
    "z,K,positive",
    [
        # prefix sums 0.1 + 0.2 + 0.3 = 0.6000000000000001, pairwise sum
        # 0.2 + 0.3 + 0.1 = 0.6 = mu*K: the box clip fits
        ([0.2, -0.9, -0.1], 2, False),
        # both sums exceed mu*K = 0.9 by roundoff, and the slack at the
        # first kink is positive: theta is a few ulps
        ([0.2, -0.2, -0.2, 1.2], 3, True),
    ],
)
def test_clip_threshold_box_clip_test_within_the_margin(z, K, positive):
    # the prefix-sum box-clip sum lies above mu*K by less than 2E, too
    # little to decide the test, so the pairwise sum decides it
    a = np.abs(np.asarray(z))
    a_sorted = np.sort(a)
    ip = int(a_sorted.searchsorted(0.3))
    excess = a_sorted[:ip].cumsum()[-1] + 0.3 * (a.size - ip) - 0.3 * K
    err = (a.size + 8) * np.finfo(float).eps * a.sum()
    assert 0.0 < excess <= 2.0 * err
    theta, wrapped = _check_against_all_kinks(np.asarray(z), K, 0.3)
    assert not wrapped and (theta > 0.0) == positive


def test_clip_threshold_reads_kinks_within_E_of_the_range():
    # a_2 equals the computed t_K + mu, so it lies at the end of the range
    # of a_i whose a_i - mu kinks are read, yet a_2 - mu rounds one ulp
    # below t_K = a_1, into the window, where its slack is the first <= 0:
    # only the range widened by E reads that kink
    z = np.array([0.4454811367997753, 1.854789284324174, 2.2153073365999134])
    K, mu = 2, 0.3605180522757396
    assert z[2] == z[1] + mu and z[2] - mu == np.nextafter(z[1], 0.0)
    theta, wrapped = _check_against_all_kinks(z, K, mu)
    assert not wrapped and 0.0 < theta < z[2] - mu


# (function, reference), both called as f(t, lam, beta, mu); huber_value
# is no prox, but builds its two branches in arrays it owns
SCALAR_PROX_REFERENCES = {
    "prox_scaled_abs": (
        lambda t, lam, beta, mu: prox.prox_scaled_abs(t, mu, lam),
        lambda t, lam, beta, mu: prox_scaled_abs_reference(t, mu, lam)),
    "prox_huber": (prox.prox_huber, prox_huber_reference),
    "huber_value": (
        lambda t, lam, beta, mu: prox.huber_value(t, lam, beta),
        lambda t, lam, beta, mu: huber_value_reference(t, lam, beta)),
    "prox_capped_complement": (
        lambda t, lam, beta, mu: prox.prox_capped_complement(t, beta, mu),
        lambda t, lam, beta, mu: prox_capped_complement_reference(t, beta, mu)),
}


def _branch_edges(lam, beta, mu):
    """Every branch boundary of the scalar proxes, one ulp to each side of
    it, signed zeros, infinities and 1e12 outliers, with both signs."""
    marks = np.array([mu * lam, beta, beta + mu, beta * lam, (beta + mu) * lam])
    points = np.concatenate([marks, np.nextafter(marks, np.inf),
                             np.nextafter(marks, -np.inf), [0.0, 1e12, np.inf]])
    return np.concatenate([points, -points])


@pytest.mark.parametrize("name", sorted(SCALAR_PROX_REFERENCES))
def test_scalar_prox_matches_reference(name):
    # the clip/copysign forms promise the numbers of the direct expressions
    # (==, for every parameter); beta <= 0.1 < mu is where a form exact
    # only for mu <= beta would drift by ulps
    fn, reference = SCALAR_PROX_REFERENCES[name]
    rng = np.random.default_rng(13)
    grid = [(1.0, b, m) for b in (1e-3, 0.05, 0.1, 1.0, 1000.0) for m in (1e-3, 0.3, 1.0)]
    drawn = [tuple(10.0 ** rng.uniform(lo, hi) for lo, hi in ((-1, 1), (-3, 3), (-3, 0)))
             for _ in range(300)]
    for lam, beta, mu in grid + drawn:
        edges = _branch_edges(lam, beta, mu)
        t = np.concatenate([edges, rng.standard_normal(100) * (beta + mu),
                            rng.standard_cauchy(100) * 1e3])
        np.testing.assert_array_equal(fn(t, lam, beta, mu), reference(t, lam, beta, mu))
        for x in edges[::3]:  # the scalar path
            assert fn(x, lam, beta, mu) == reference(x, lam, beta, mu)


def test_prox_topk_matches_reference_at_extreme_entries():
    # random draws are compared with the sign/clip form in
    # _check_against_all_kinks; here signed zeros, infinite and 1e12
    # entries (an infinite prefix sum makes inf - inf slacks on both sides).
    # topk_value partitions its own |z|: the np.partition copy's sum
    rng = np.random.default_rng(14)
    z = np.concatenate([rng.standard_normal(40), [0.0, -0.0, 1e12, -1e12, np.inf, -np.inf]])
    with np.errstate(invalid="ignore"):
        for K in (0, 1, 3, 20, z.size):
            for mu in (1e-3, 0.3, 1.0):
                np.testing.assert_array_equal(prox.prox_topk(z, K, mu),
                                              prox_topk_reference(z, K, mu))
            assert prox.topk_value(z, K) == topk_value_reference(z, K)
            finite, k = z[:44], min(K, 44)  # the infinite entries make most sums inf
            assert prox.topk_value(finite, k) == topk_value_reference(finite, k)


@pytest.mark.parametrize("label,prox_fn,value_fn,lipschitz", SCALAR_PROX_FAMILIES)
def test_scalar_prox_against_grid_oracle(label, prox_fn, value_fn, lipschitz):
    rng = np.random.default_rng(3)
    for _ in range(60):
        t = float(rng.uniform(-4, 4))
        mu = float(rng.uniform(0.05, 1.0))
        p = float(rng.uniform(0.2, 2.0))
        # the prox cannot move farther than mu * Lipschitz from t
        radius = max(2.0 * mu * lipschitz(p), 1e-3)
        gap = grid_gap(float(prox_fn(t, mu, p)), lambda zz: value_fn(zz, p), t, mu, radius, 1e-5)
        assert gap <= 1e-8


def _envelope(value_fn, prox_fn, z, mu):
    p = prox_fn(z, mu)
    val, grad = prox.moreau_value_and_grad(p, z, value_fn(p), mu)
    return val, grad


def test_moreau_value_and_grad_values():
    # psi = |.|, frozen from the grid oracle and the quadratic region
    val, grad = _envelope(
        lambda z: float(np.abs(z).sum()),
        lambda z, mu: prox.prox_scaled_abs(z, mu, 1.0),
        np.array([0.0]),
        0.5,
    )
    assert val == 0.0 and np.allclose(grad, 0.0)
    val, grad = _envelope(
        lambda z: float(np.abs(z).sum()),
        lambda z, mu: prox.prox_scaled_abs(z, mu, 1.0),
        np.array([2.0]),
        0.5,
    )
    assert val == pytest.approx(1.75) and np.allclose(grad, 1.0)
    val, grad = _envelope(
        lambda z: float(np.abs(z).sum()),
        lambda z, mu: prox.prox_scaled_abs(z, mu, 1.0),
        np.array([0.2]),
        0.5,
    )
    assert val == pytest.approx(0.04) and np.allclose(grad, 0.4)


def test_envelope_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    cases = [
        (lambda z: float(np.abs(z).sum()),
         lambda z, mu: prox.prox_scaled_abs(z, mu, 1.0)),
        (lambda z: float(np.sum(prox.huber_value(z, 1.0, 1.5))),
         lambda z, mu: prox.prox_huber(z, 1.0, 1.5, mu)),
        (lambda z: float(np.maximum(np.abs(z) - 1.2, 0.0).sum()),
         lambda z, mu: prox.prox_capped_complement(z, 1.2, mu)),
        (lambda z: prox.topk_value(z, 2),
         lambda z, mu: prox.prox_topk(z, 2, mu)),
    ]
    for value_fn, prox_fn in cases:
        for _ in range(50):
            mu = float(rng.uniform(0.1, 1.0))
            z = rng.standard_normal(5) * 2.0
            _, grad = _envelope(value_fn, prox_fn, z, mu)
            fd = fd_grad(lambda y: _envelope(value_fn, prox_fn, y, mu)[0], z)
            assert np.linalg.norm(fd - grad) <= 1e-5 * (1.0 + np.linalg.norm(grad))


def test_envelope_gradient_lipschitz_ratio():
    # gradient of the envelope is 1/mu-Lipschitz for convex pieces
    rng = np.random.default_rng(5)
    cases = [
        (lambda z: float(np.abs(z).sum()),
         lambda z, mu: prox.prox_scaled_abs(z, mu, 1.0)),
        (lambda z: prox.topk_value(z, 3),
         lambda z, mu: prox.prox_topk(z, 3, mu)),
    ]
    for value_fn, prox_fn in cases:
        for _ in range(100):
            mu = float(rng.uniform(0.05, 1.0))
            z1 = rng.standard_normal(6) * 3.0
            z2 = rng.standard_normal(6) * 3.0
            _, g1 = _envelope(value_fn, prox_fn, z1, mu)
            _, g2 = _envelope(value_fn, prox_fn, z2, mu)
            ratio = np.linalg.norm(g1 - g2) / np.linalg.norm(z1 - z2)
            assert ratio <= 1.0 / mu + 1e-9


def test_moreau_sandwich():
    # larger mu gives a lower envelope; the gap is at most (mu1-mu2)*L^2
    rng = np.random.default_rng(6)
    cases = [
        (lambda z: 1.5 * float(np.abs(z).sum()),
         lambda z, mu: prox.prox_scaled_abs(z, mu, 1.5),
         1.5 * np.sqrt(4)),
        (lambda z: prox.topk_value(z, 2),
         lambda z, mu: prox.prox_topk(z, 2, mu),
         np.sqrt(2)),
    ]
    for value_fn, prox_fn, L in cases:
        for _ in range(100):
            mu2 = float(rng.uniform(0.01, 0.5))
            mu1 = mu2 + float(rng.uniform(0.01, 0.5))
            z = rng.standard_normal(4) * 3.0
            lo, _ = _envelope(value_fn, prox_fn, z, mu1)
            hi, _ = _envelope(value_fn, prox_fn, z, mu2)
            assert lo <= hi + 1e-10
            assert hi <= lo + (mu1 - mu2) * L**2 + 1e-10


def test_scalar_lipschitz_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(0.2, 2.0))
        s, t = rng.uniform(-6, 6, 2)
        assert abs(prox.huber_value(s, lam, beta) - prox.huber_value(t, lam, beta)) <= lam * abs(s - t) + 1e-12
        assert abs(_mcp_at(s, lam, beta) - _mcp_at(t, lam, beta)) <= lam * abs(s - t) + 1e-12
