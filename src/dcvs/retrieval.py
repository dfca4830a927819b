"""Synthetic robust phase retrieval instances and their metrics.

Measurements are ``b_i = <a_i, x*>^2 + eps_i`` for inliers and ``b_i =
xi_i`` for outliers, with Gaussian ``A``, sign vector ``x*``, Gaussian
noise, and heavy-tailed (Cauchy) or uniform outliers scaled by the
largest clean measurement.  All randomness flows through a single seeded
PCG64 generator (``numpy.random.default_rng``) with a fixed draw order,
so an instance is a pure function of its parameters and seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .losses import _number
from .maps import _measurements

OUTLIER_KINDS = ("cauchy", "uniform")


@dataclass(frozen=True)
class Instance:
    """One problem: measurements, ground truth, and the outlier set."""

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    outlier_idx: np.ndarray


def _check_instance_args(d, n, p_fail, s, outlier_kind, noise_variance):
    """Check :func:`generate_instance`'s parameters; return ``d`` and
    ``n`` as ints and the outlier count ``round(p_fail * n)``."""
    d = _number(d, "d", integral=True, low=1)
    n = _number(n, "n", integral=True, low=d)
    if not 0.0 <= p_fail < 1.0:
        raise ValueError(f"p_fail must lie in [0, 1), got {p_fail}")
    if not 0 < s < np.inf:  # false for NaN too
        raise ValueError(f"s must be positive and finite, got {s}")
    if not 0 <= noise_variance < np.inf:
        raise ValueError(f"noise_variance must be nonnegative and finite, got {noise_variance}")
    if outlier_kind not in OUTLIER_KINDS:
        raise ValueError(f"outlier_kind must be one of {OUTLIER_KINDS}")
    n_out = int(round(p_fail * n))
    if n_out >= n:
        raise ValueError(f"round(p_fail*n) = {n_out} leaves no inliers")
    return d, n, n_out


def generate_instance(d, n, p_fail, s, outlier_kind="cauchy",
                      noise_variance=1e-6, seed=0):
    """Draw one instance, bit-reproducible from ``seed``.

    Draw order: ``A`` (n*d standard normals), ``x*`` (d uniforms mapped
    to +-1), noise (n normals), outlier positions (choice without
    replacement), outlier uniforms ``u_i``.  Outlier values are
    ``s*M*tan(0.5*pi*u)`` (cauchy) or ``s*M*u`` (uniform) with ``M`` the
    largest clean measurement; they replace the affected entries.  ``d``,
    ``n`` and ``seed`` are counts, with ``1 <= d <= n`` and ``seed >= 0``;
    ``5.0`` reads as 5.  An ``s`` so large that an outlier value overflows
    is a ``ValueError`` that names it.
    """
    d, n, n_out = _check_instance_args(d, n, p_fail, s, outlier_kind, noise_variance)
    rng = np.random.default_rng(_number(seed, "seed", integral=True, low=0))
    A = rng.standard_normal((n, d))
    x_star = np.where(rng.random(d) < 0.5, 1.0, -1.0)
    eps = rng.normal(0.0, np.sqrt(noise_variance), n)
    outlier_idx = np.sort(rng.choice(n, size=n_out, replace=False))
    u = rng.random(n_out)

    clean = (A @ x_star) ** 2
    b = clean + eps
    M = float(clean.max())
    if outlier_kind == "cauchy":
        xi = s * M * np.tan(0.5 * np.pi * u)
    else:
        xi = s * M * u
    if not np.isfinite(xi).all():
        raise ValueError(f"s = {s!r} overflows {np.count_nonzero(~np.isfinite(xi))} of "
                         f"{n_out} outlier values (largest clean measurement M = {M:g})")
    b[outlier_idx] = xi
    return Instance(A=A, b=b, x_star=x_star,
                    outlier_idx=outlier_idx.astype(np.int64))


SPECTRAL_CAP_MULTIPLE = 3.0
SPECTRAL_POWER_ITERS = 100
# OpenBLAS's split of a gemm's inner dimension on its SkylakeX DGEMM core
# (GEMM_Q, GEMM_UNROLL_M), and the M*N*K up to which that core hands a
# product to its small-matrix kernel instead.  numpy ships a DYNAMIC_ARCH
# OpenBLAS that picks its core at run time; on a core that splits
# differently the panels lose the single product's bits, and
# tests/test_retrieval.py fails.
GEMM_Q = 384
GEMM_UNROLL_M = 16
GEMM_SMALL_MNK = 100**3


def _gemm_panels(k):
    """Edges of OpenBLAS's panels of an inner dimension of ``k``: ``GEMM_Q``
    while at least ``2 * GEMM_Q`` remain, then the rest halved and rounded
    up to a multiple of ``GEMM_UNROLL_M`` while it exceeds ``GEMM_Q``."""
    edges = [0]
    while edges[-1] < k:
        step = k - edges[-1]
        if step >= 2 * GEMM_Q:
            step = GEMM_Q
        elif step > GEMM_Q:
            step = -(-(step // 2) // GEMM_UNROLL_M) * GEMM_UNROLL_M
        edges.append(edges[-1] + step)
    return edges


def _spectral_form(A, b, keep, tau):
    """The quadratic form ``(1/n) * sum over keep of min(b_i, tau) a_i a_i^T``.

    It is ``Y = sum_p A_p^T (w_p * A_p) / n`` over consecutive panels
    ``A_p`` of the kept rows, at the edges where OpenBLAS splits the inner
    dimension of the single product ``A_k^T (w * A_k)``, which adds ``Y``
    up panel by panel itself.  So beside ``A`` the form holds one panel,
    its weighted copy, one ``d x d`` product and ``Y``, where the single
    product held two copies of ``A_k``.  A form with ``d*d*(smallest
    panel) <= GEMM_SMALL_MNK``, a product OpenBLAS would hand to its
    small-matrix kernel, stays one product.  On one BLAS thread the panels
    give ``Y`` the single product's bits (the tests check both forms
    ``==`` on several shapes).  On more threads OpenBLAS splits each
    product by its shape, and neither form keeps the bits of another
    thread count.
    """
    n, d = A.shape
    rows = np.flatnonzero(keep)
    w = np.minimum(b[rows], tau)[:, None]
    edges = _gemm_panels(rows.size)
    if d * d * (edges[-1] - edges[-2]) <= GEMM_SMALL_MNK:  # the last is the smallest
        edges = [0, rows.size]

    def panel_product(lo, hi):
        # the panel and its weighted copy are freed on return, before the
        # next panel is gathered
        A_p = A[rows[lo:hi]]
        return A_p.T @ (w[lo:hi] * A_p)

    Y = panel_product(0, edges[1])
    for lo, hi in zip(edges[1:], edges[2:]):
        Y += panel_product(lo, hi)
    Y /= n
    return Y


def spectral_init(A, b, seed):
    """Median-saturated spectral initial point.

    Runs 100 power iterations on the PSD quadratic form
    ``(1/n) * sum_i min(b_i, tau) a_i a_i^T`` over the nonnegative
    measurements, with the saturation level ``tau = 3 * median(|b|)``,
    and scales the unit top-eigenvector estimate by
    ``sqrt(median of the b_i inside [0, tau])``.  Saturating rather than
    dropping large measurements keeps the direction informative on clean
    data (where the largest measurements carry most of the signal) while
    bounding what any single outlier can contribute.  Degenerate inputs
    (no measurement inside ``[0, tau]``, or an identically zero form)
    fall back to a seeded random unit direction with radius
    ``sqrt(max(median(|b|), 1e-12))``.  The power-iteration start vector
    is drawn from ``default_rng([seed, 1])``.  ``seed`` follows
    :func:`generate_instance`'s rule: an integer >= 0, with ``5.0`` read
    as 5 and a bool or string rejected.  ``A`` and ``b`` are checked as
    :func:`dcvs.maps.rpr_map` checks them.

    The form is built over row panels of ``A`` by :func:`_spectral_form`,
    whose transient memory is two panels of at most 384 rows and two
    ``d x d`` arrays rather than ``2|A|``.  Each vector is normalised by
    ``sqrt(w.w)``, the number ``np.linalg.norm`` returns for a real
    vector.
    """
    A, b = _measurements(A, b)
    n, d = A.shape
    rng = np.random.default_rng([_number(seed, "seed", integral=True, low=0), 1])
    v = rng.standard_normal(d)
    v /= math.sqrt(v.dot(v))

    med = float(np.median(np.abs(b)))
    tau = SPECTRAL_CAP_MULTIPLE * med
    keep = b >= 0.0
    inside = keep & (b <= tau)
    if inside.any():
        # all-zero weights give Y == 0, and so the fallback
        Y = _spectral_form(A, b, keep, tau)
        if np.any(Y):
            for _ in range(SPECTRAL_POWER_ITERS):
                w = Y @ v
                norm_w = math.sqrt(w.dot(w))
                if norm_w == 0.0:
                    break
                v = w / norm_w
            return float(np.sqrt(np.median(b[inside]))) * v
    return float(np.sqrt(max(med, 1e-12))) * v


def success(x, x_star, threshold=1e-3):
    """Relative error up to the global sign ambiguity, and whether it
    beats ``threshold``."""
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x.shape != x_star.shape:
        raise ValueError(f"x must have the shape of x_star {x_star.shape}, got {x.shape}")
    norm_star = np.linalg.norm(x_star)
    if norm_star == 0.0:
        raise ValueError("x_star must be nonzero")
    rel = min(np.linalg.norm(x_star - x), np.linalg.norm(x_star + x)) / norm_star
    return float(rel), bool(rel < threshold)


def _kappa_fn(A, b, lam, L_g):
    """``mu -> kappa_mu``, the global curvature bound for the smoothed
    composite on a quadratic residual instance:

        kappa_mu = 2*L_g*sqrt(sum_i ||a_i||^4) + 6*lam*sum_i ||a_i||^2
                   + 4*sum_i(||a_i||^2 |b_i|) / mu

    The first term is a weak-convexity constant of the smoothed
    subtracted part; the rest aggregates the per-measurement
    gradient-Lipschitz constants ``6*lam*||a_i||^2 + 4||a_i||^2|b_i|/mu``
    of the smoothed additive part.  Summing over measurements is what the
    triangle inequality supports for a dense A; taking the largest
    single-measurement constant instead is valid only when each
    measurement touches its own coordinate, and gradient-descent
    trajectories do exceed that smaller value on Gaussian instances.
    ``lam`` is the MCP weight and is 1 for the other losses.  The mu-free
    terms are read from ``A`` once: the closure returns ``head + tail /
    mu``.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if not L_g >= 0:
        raise ValueError("L_g must be nonnegative")
    A, b = _measurements(A, b)
    row_sq = np.sum(A * A, axis=1)
    head = 2.0 * L_g * float(np.sqrt(np.sum(row_sq**2))) + 6.0 * lam * float(row_sq.sum())
    tail = 4.0 * float((row_sq * np.abs(b)).sum())

    def kappa(mu):
        if not mu > 0:
            raise ValueError("mu must be positive")
        return head + tail / mu

    return kappa


def kappa_fn_for_loss(A, b, loss):
    """Per-scale curvature bound ``mu -> kappa_mu`` for a catalog loss."""
    return _kappa_fn(A, b, loss.params.get("lam", 1.0), loss.L_g)
