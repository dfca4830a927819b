"""Proximity operators and Moreau envelopes, checked against brute force.

Walks through the scalar building blocks (soft thresholding, the Huber
prox, the capped-complement prox) and the vector top-K prox, comparing
every closed form against the grid oracle, then shows how the Moreau
envelope tightens toward the original function as the smoothing scale
shrinks.
"""

import numpy as np

from dcvs import prox
from dcvs.oracle import brute_prox_nd

print("== scalar prox operators vs the grid oracle ==")
cases = [
    ("soft threshold  lam*|.|",
     lambda t, mu: prox.prox_scaled_abs(t, mu, 1.0),
     lambda z: np.abs(z)),
    ("huber prox      r(., lam=1, beta=1)",
     lambda t, mu: prox.prox_huber(t, 1.0, 1.0, mu),
     lambda z: prox.huber_value(z, 1.0, 1.0)),
    ("capped compl.   max(|.|-1, 0)",
     lambda t, mu: prox.prox_capped_complement(t, 1.0, mu),
     lambda z: np.maximum(np.abs(z) - 1.0, 0.0)),
]
for name, prox_fn, value_fn in cases:
    for t in (0.4, 1.2, 2.5):
        mu = 0.5
        closed = float(prox_fn(t, mu))
        grid = brute_prox_nd(value_fn, t, mu, radius=2.0, step=1e-5)[0]
        print(f"  {name}: t={t:4.1f}  closed={closed:+.5f}  grid={grid:+.5f}")

print()
print("== top-K prox (sum of the K largest magnitudes) ==")
z = np.array([3.0, 1.0])
for K in (0, 1, 2):
    p = prox.prox_topk(z, K, 1.0)
    print(f"  K={K}: prox_topk({z}) = {p}")
w = brute_prox_nd(lambda W: np.sort(np.abs(W), axis=-1)[..., -1:].sum(-1),
                  z, 1.0, radius=1.1, step=1e-3)
print(f"  2-D grid oracle for K=1 agrees: {w}")

print()
print("== Moreau envelope of |.| tightens as mu -> 0 ==")
t = 0.8
for mu in (1.0, 0.5, 0.1, 0.01):
    p = float(prox.prox_scaled_abs(t, mu, 1.0))
    env, grad = prox.moreau_value_and_grad(p, t, abs(p), mu)
    print(f"  mu={mu:5.2f}: envelope={env:.6f}  (|t|={abs(t):.6f})  grad={float(grad):+.4f}")
