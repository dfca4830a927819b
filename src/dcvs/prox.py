"""Proximity operators and Moreau envelopes for the loss building blocks.

The scalar operators accept floats or numpy arrays and act elementwise.
Each closed form here is independently cross-checked against the
brute-force grid oracles in :mod:`dcvs.oracle` by the test suite, so the
formulas are never trusted on their own.

Each formula is written once, in the checked public function that the
loss closures call.  A check costs one comparison when it passes, and
rejects a non-positive or NaN scale and a ``K`` outside ``[0, z.size]``.
"""

import numpy as np

_EPS = float(np.finfo(float).eps)

# _clip_threshold brackets the first crossing of a window of more kinks
# than this by a scan over every _STRIDE-th kink; of 8 to 32, 24 and 32
# were fastest on calls captured from trimmed_l1 solves at n = 1000-4000,
# on a 2-vCPU Xeon VM
_STRIDE = 32


def _require_positive(**params):
    """Raise for the first of ``params`` that is not positive (NaN
    included).  The functions on the solver's path compare first and call
    this only to build the message."""
    for name, value in params.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")


def prox_scaled_abs(t, mu, lam):
    """Prox of ``lam * |.|``, i.e. soft thresholding.

    Solves ``argmin_z  lam*|z| + (z - t)^2 / (2*mu)`` elementwise::

        prox(t) = sign(t) * max(|t| - mu*lam, 0)

    computed as ``t - clip(t, -c, c)`` with ``c = mu*lam`` in three
    ufunc calls instead of five.  The numbers are the same (``==``): for
    ``t > c`` both round ``t - c`` once, for ``t < -c`` the sign form
    rounds ``-t - c`` and negates, which equals rounding ``t + c`` as
    rounding is symmetric about 0, and inside ``[-c, c]`` both give a
    zero, whose sign may differ.

    Parameters
    ----------
    t : scalar or array
        Input point(s).
    mu : float
        Prox scale, positive.
    lam : float
        Weight of the absolute value, positive.
    """
    if not (mu > 0 and lam > 0):
        _require_positive(mu=mu, lam=lam)
    t = np.asarray(t, dtype=float)
    c = mu * lam
    return t - np.minimum(np.maximum(t, -c), c)


def huber_value(t, lam, beta):
    """Huber function: quadratic ``t^2/(2*beta)`` for ``|t| <= beta*lam``,
    linear ``lam*|t| - beta*lam^2/2`` beyond.

    This is also the Moreau envelope of ``lam * |.|`` at scale ``beta``,
    and the concave-correction part ``g`` of the MCP decomposition.
    """
    if not (lam > 0 and beta > 0):
        _require_positive(lam=lam, beta=beta)
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    quadratic = a <= beta * lam
    a *= lam  # the linear branch, in a (a 0-d t makes a a scalar, rebound)
    a -= beta * lam**2 / 2.0
    square = t * t
    square /= 2.0 * beta
    return np.where(quadratic, square, a)


def mcp_value(t, lam, beta):
    """Minimax concave penalty: ``lam*|t| - t^2/(2*beta)`` for
    ``|t| <= beta*lam``, constant ``beta*lam^2/2`` beyond.

    Satisfies ``mcp_value + huber_value == lam*|t|`` pointwise.
    """
    _require_positive(lam=lam, beta=beta)
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    return np.where(a <= beta * lam, lam * a - t * t / (2.0 * beta), beta * lam**2 / 2.0)


def prox_huber(t, lam, beta, mu):
    """Prox of the Huber function ``huber_value(., lam, beta)``.

    Shrinks toward zero by the factor ``beta/(beta+mu)`` on the quadratic
    branch (``|t| <= (beta+mu)*lam``) and soft-thresholds by ``mu*lam`` on
    the linear branch; the two branches agree at the boundary.  The shift
    ``copysign(mu*lam, t)`` is ``mu*lam*sign(t)``: the linear branch has
    ``t != 0``.
    """
    if not (lam > 0 and beta > 0 and mu > 0):
        _require_positive(lam=lam, beta=beta, mu=mu)
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= (beta + mu) * lam, beta / (beta + mu) * t,
                    t - np.copysign(mu * lam, t))


def prox_capped_complement(t, beta, mu):
    """Prox of ``max(|z| - beta, 0)``, the convex part subtracted off the
    capped absolute value.

    Identity inside ``[-beta, beta]``, clamps to ``sign(t)*beta`` for
    ``beta < |t| <= beta + mu``, and shifts by ``mu`` toward zero beyond.
    The first two branches are ``clip(t, -beta, beta)`` and the shift is
    ``copysign(mu, t)`` (``t != 0`` there), so every entry is the number
    of the three-branch form, for every ``beta`` and ``mu``.
    """
    if not (beta > 0 and mu > 0):
        _require_positive(beta=beta, mu=mu)
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= beta + mu, np.minimum(np.maximum(t, -beta), beta),
                    t - np.copysign(mu, t))


def topk_value(z, K):
    """Sum of the K largest absolute entries of ``z`` (the top-K norm)."""
    z = np.asarray(z, dtype=float)
    n = z.size
    if not 0 <= K <= n:
        raise ValueError(f"K must be in [0, {n}], got {K}")
    if K == 0:
        return 0.0
    a = np.abs(z.ravel())  # a vector for a 0-d z too
    a.partition(n - K)
    return float(np.add.reduce(a[n - K:]))


def prox_topk(z, K, mu):
    """Prox of the top-K norm ``w -> sum of K largest |w_i|``.

    Computed through the Moreau decomposition: the prox equals ``z`` minus
    the Euclidean projection of ``z`` onto the scaled dual ball
    ``{w : |w_i| <= mu, sum_i |w_i| <= mu*K}``.  ``K = 0`` makes the norm
    vanish, so the prox is the identity; ``K = n`` reduces to elementwise
    soft thresholding by ``mu``.

    The projection clips ``|z| - theta`` to ``[0, mu]``.  The shift
    ``theta`` is found by :func:`_clip_threshold` from one sort and one
    prefix sum of ``|z|``, with ``E = (n + 8) * eps * sum|z|`` bounding
    the roundoff of a sum read off them.  The box-clip test
    ``sum_i min(|z_i|, mu) <= mu*K`` is read off the prefix sums when they
    clear it by more than ``2E``, and summed directly otherwise.  The
    piecewise-linear budget slack is evaluated only at the kinks in
    ``[max(t_{K+1} - mu, min(t_K - mu, t_{K+1}) - 2E), t_K]``, where
    ``t_K``, ``t_{K+1}`` are the K-th and (K+1)-th largest ``|z_i|``, or
    at every kink when ``2E >= mu`` or ``K = n``.  One scan, in Python
    floats, finds the first kink whose slack is ``<= 0``; in a window of
    more than 32 kinks it first scans every 32nd kink to bracket that
    kink.  The result is bit for bit that of evaluating the slack at every
    kink, apart from the roundoff case that :func:`_clip_threshold` sets
    to 0.
    """
    if not mu > 0:
        _require_positive(mu=mu)
    z = np.asarray(z, dtype=float)
    if not 0 <= K <= z.size:
        raise ValueError(f"K must be in [0, {z.size}], got {K}")
    if K == 0:
        return z.copy()
    a = np.abs(z, out=np.empty_like(z))  # an array for a 0-d z too
    theta = _clip_threshold(a, mu, K)
    # np.clip's values in place in a, with less call overhead; copysign(c,
    # z) is sign(z)*c for every c >= 0 and z != 0, and at z = 0 c is 0
    a -= theta
    np.maximum(a, 0.0, out=a)
    np.minimum(a, mu, out=a)
    np.copysign(a, z, out=a)
    return np.subtract(z, a, out=a)


def _clip_threshold(a, box, K):
    """Shift ``theta >= 0`` such that ``sum_i clip(a_i - theta, 0, box)``
    meets the l1 budget ``box*K`` (``1 <= K <= a.size``, ``a >= 0``);
    zero when the plain box clip already fits.

    The slack ``s(theta) = sum_i clip(a_i - theta, 0, box) - box*K`` is
    piecewise linear and nonincreasing, with kinks only at the ``a_i``
    and ``a_i - box``.  ``theta`` is interpolated linearly between the
    first kink whose computed slack is ``<= 0`` and the kink before it;
    a slack is ``sum_i min(a_i, t + box) - sum_i min(a_i, t) - box*K``,
    with each sum read off the prefix sums of the sorted ``a`` at the
    ``searchsorted`` position of ``t``.

    Only the kinks that can be that first kink are evaluated.  With
    ``t_K >= t_{K+1}`` the K-th and (K+1)-th largest ``a_i``:

    * at a kink ``>= t_K`` at most ``K - 1`` terms are nonzero, so
      ``s <= -box``;
    * at a kink ``<= t_{K+1} - box`` the K+1 largest terms are saturated
      at ``box``, so ``s >= box``;
    * below ``t_K - box`` the K largest are saturated, so
      ``s >= min(t_{K+1} - theta, box)``.

    The box-clip test is ``np.minimum(a, box).sum() <= box*K``.  The
    prefix sums give the same sum as ``S = prefix[ip] + box*(n - ip)``,
    ``ip`` the number of ``a_i < box``.  Each of the two is within about
    ``n*u*sum(a)``, ``u = eps/2``, of the exact ``sum_i min(a_i, box)``
    (``n - 1`` roundings of partial sums ``<= sum(a)``, ``S`` two more),
    so they differ by less than ``E = (n + 8) * eps * sum(a)``.  When the
    computed ``S - box*K`` exceeds ``2E``, which also covers the roundings
    of that difference and of ``E``, the test fails and the direct sum is
    not formed; otherwise the direct sum decides.

    Past the test every prefix sum, every ``sum_i min(a_i, t)`` and
    ``box*K`` are at most ``sum(a)``, so each rounding moves the slack by
    at most ``u*sum(a)``.  The two prefix sums read carry ``n - 1``
    roundings each (standard summation bound); ``t + box``, the two
    products, the two additions, ``box*K`` and the two subtractions add
    one each.  So the computed slack is within
    ``(2n + 7) * u * sum(a) <= E`` of ``s``, the margin covering
    second-order terms.  Hence when ``2E < box`` the first kink with
    computed slack ``<= 0`` lies in ``[lower, t_K]``, ``lower =
    max(t_{K+1} - box, min(t_K - box, t_{K+1}) - 2E)``.  That window often
    holds a handful of kinks, and most of them when many ``a_i`` lie
    within ``box`` of ``t_K``.  The largest kink of each kind below the
    window is evaluated too, as the left end of the crossing segment; a
    further kink below the window has a positive computed slack, and one
    above ``t_K`` comes after ``t_K``, so neither changes ``theta``.  So
    the ``a_i - box`` kinks are read off the ``a_i`` in
    ``[lower + box, t_K + box + E)`` and the largest ``a_i = x`` below
    that range if ``x >= box`` (an ``a_i < box`` gives no kink, so at
    ``lower = 0`` none is left out).  Past the test ``box < sum(a)``, so
    ``E`` is several ulps of ``t_K + box``, and the range holds every
    ``a_i`` whose rounded ``a_i - box`` is at most ``t_K``.  An ``a_i``
    left out below it has a rounded ``a_i - box`` at most ``k``, the
    rounded ``x - box`` (rounding is monotone), which is evaluated; so it
    changes nothing if the exact slack at ``k`` exceeds ``E``, as it does.
    ``k`` exceeds ``lower`` by two roundings and ``lower`` its exact
    expression by two more, each at most ``u*(t_K + box) <= 2u*sum(a)``,
    while ``E >= 18u*sum(a)``.  If ``k <= t_K - box``, the K largest terms
    are saturated, so ``s(k) >= min(t_{K+1} - k, box) >= 2E -
    8u*sum(a)``.  Otherwise ``lower`` is the rounded ``t_{K+1} - box``
    (the other candidate lies ``2E`` below ``t_K - box``), ``k <= t_{K+1}
    - box + 3u*t_{K+1}``, each of the K+1 largest terms is at least ``box
    - 3u*t_{K+1}``, and ``s(k) >= box - 3u*(K + 1)*t_{K+1} >= box -
    3u*sum(a)``; both bounds exceed ``E`` as ``2E < box``.  When
    ``2E >= box``, or for ``K = n`` (no ``t_{K+1}``), the window is every
    kink ``>= 0``.  The kinks of a NaN ``a_i`` are NaN, sort after every
    other kink and have NaN slacks, so none is the first crossing or the
    kink before it; they are left out.

    The window's slacks are computed in Python floats, kink by kink up to
    the first ``<= 0``.  A window of more than ``_STRIDE`` kinks first
    runs that scan over every ``_STRIDE``-th kink to bracket the crossing.
    A coarse kink whose computed slack exceeds ``2E`` has ``s > E``, so
    ``s > E`` at every kink up to it as ``s`` is nonincreasing, and each
    of those has a computed slack ``> 0``: the crossing lies past the last
    such coarse kink.  A coarse kink with computed slack ``<= 0`` is at or
    past the crossing.  A coarse slack in ``(0, 2E]`` decides neither, so
    the bracket stays open there.  The scan then runs from the last coarse
    kink of the first kind, which is the kink before the crossing if the
    crossing is the next kink, to the first of the second kind, and finds
    the first crossing of the whole window.  A non-finite ``a`` makes
    ``E`` inf or NaN, which no slack exceeds, and that scan starts at
    kink 0.

    The full sort and prefix sum stay although the window needs a few
    entries: the prefix sums are sequential, so their rounding, and hence
    the bits of ``theta``, depend on the sorted order of every entry.
    ``theta`` is bit for bit that of evaluating every kink, except where
    the computed slack at ``theta = 0`` is already ``<= 0`` (the box-clip
    test and the prefix sums round differently); ``theta`` is 0 there.
    """
    total = box * K
    n = a.size
    a_sorted = np.sort(a, axis=None)  # a vector for a 0-d a too
    prefix = np.empty(n + 1)
    prefix[0] = 0.0
    np.add.accumulate(a_sorted, out=prefix[1:])
    err = (n + 8) * _EPS * prefix.item(n)
    if K < n and 2.0 * err < box:  # every a_i finite, too
        t_K, t_K1 = a_sorted.item(n - K), a_sorted.item(n - K - 1)
        lower = max(t_K1 - box, min(t_K - box, t_K1) - 2.0 * err, 0.0)
        ip, ia, ja, ib, jb = a_sorted.searchsorted(
            (box, lower, t_K, lower + box, t_K + box + err)).tolist()
        a_kinks, b_kinks = a_sorted[max(ia - 1, 0):ja + 1], a_sorted[max(ib - 1, ip):jb]
    else:  # every kink of the a_i that are not NaN (NaN sorts last)
        ip, m = a_sorted.searchsorted((box, np.nan)).tolist()
        a_kinks, b_kinks = a_sorted[:m], a_sorted[ip:m]
    if not prefix.item(ip) + box * (n - ip) - total > 2.0 * err:
        if np.minimum(a, box).sum() <= total:
            return 0.0

    # clip(a - theta, 0, box) = min(a, theta + box) - min(a, theta), with
    # the kink 0 always evaluated.  Repeated kinks have equal slacks, so the
    # first kink with slack <= 0 and the one before it are distinct.
    kinks = a_kinks.tolist() + [b - box for b in b_kinks.tolist()] + [0.0]
    kinks.sort()
    start, stop = 0, len(kinks)
    if stop > _STRIDE:  # bracket the first crossing between two coarse kinks
        coarse = _slacks(kinks[::_STRIDE], a_sorted, prefix, box, total)
        start = _STRIDE * max((i for i, s in enumerate(coarse) if s > 2.0 * err), default=0)
        if coarse[-1] <= 0.0:
            stop = _STRIDE * (len(coarse) - 1) + 1
    slack = _slacks(kinks[start:stop], a_sorted, prefix, box, total)
    hi = start + len(slack) - 1
    if hi == 0 or not slack[-1] <= 0.0:  # theta = 0 already fits (or no kink does)
        return 0.0
    lo = hi - 1
    return kinks[lo] + slack[-2] * (kinks[hi] - kinks[lo]) / (slack[-2] - slack[-1])


def _slacks(kinks, a_sorted, prefix, box, total):
    """Computed slacks of :func:`_clip_threshold` at the sorted ``kinks``,
    in order, up to the first that is ``<= 0``."""
    n, w = a_sorted.size, len(kinks)
    pos = a_sorted.searchsorted(kinks + [t + box for t in kinks])
    sums, pos = prefix[pos].tolist(), pos.tolist()
    slack = []
    for i, t in enumerate(kinks):
        slack.append(sums[i + w] + (t + box) * (n - pos[i + w])
                     - (sums[i] + t * (n - pos[i])) - total)
        if slack[-1] <= 0.0:
            break
    return slack


def moreau_value_and_grad(prox_point, z, value_at_prox, mu):
    """Envelope value and gradient from an already-computed prox.

    Given ``prox_point = prox(z)`` for some function psi at scale ``mu``
    and ``value_at_prox = psi(prox_point)``, returns the Moreau envelope
    value ``psi(p) + ||p - z||^2/(2*mu)`` and its gradient ``(z - p)/mu``.
    """
    _require_positive(mu=mu)
    value, diff = _moreau_step(np.asarray(prox_point, dtype=float),
                               np.asarray(z, dtype=float), float(value_at_prox), mu)
    return value, diff / mu


def _moreau_step(prox_point, z, value_at_prox, mu):
    diff = z - prox_point
    return value_at_prox + float(np.add.reduce(np.square(diff))) / (2.0 * mu), diff
