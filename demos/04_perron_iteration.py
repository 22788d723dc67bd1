#!/usr/bin/env python3
"""Power iteration on rays, with an error bound you can certify.

When c(M) < 1 the projective action is a strict contraction, so the
normalized iteration p -> normalize(M p) converges geometrically to the
Perron ray, and the last step yields a rigorous a-posteriori bound on the
remaining distance (Birkhoff): in Hilbert's metric,
d_H(p, p*) <= K d_H(v, p) + (1 + K) eps_H, where v is the iterate before
p, K = (1/m - 1)/2 <= c/(1-c) comes from one pivot column of M in O(n^2),
and eps_H covers the rounding of the last image; without eps_H the bound
reads tanh(K * atanh(step)).  So a last step of 0 still leaves a bound of
rounding size.  (For K < 1 and a large step the bound can still exceed
c/(1-c) * step.)  Long runs jump ahead by binary powering of M and then
step on, so the bound always comes from a plain step.  The eigenvalue is
bracketed at every step by the extreme coordinate ratios (Mp)/p.
"""

import numpy as np

from projcone import (
    collatz_wielandt,
    contraction_coeff,
    normalize,
    perron_iterate,
    pseudo_distance,
)

M = np.array([[2.0, 1.0], [1.0, 2.0]])
print("M =", M.tolist(), " c(M) =", contraction_coeff(M).c)
print()
print("iter   step distance      eigenvalue bracket")
p = normalize(np.array([1.0, 0.0]))
for k in range(1, 11):
    q = normalize(M @ p)
    step = pseudo_distance(p, q)
    p = q
    lo, hi = collatz_wielandt(M, p) if np.all(p > 0) else (float("nan"), float("nan"))
    print(f"{k:4d}   {step:.3e}      [{lo:.12f}, {hi:.12f}]")

res = perron_iterate(M, [1, 0], tol=1e-12, max_iter=100)
print()
print("converged:", res.converged, "after", res.iterations, "iterations")
print("eigenvector (canonical):", res.eigenvector)
print("eigenvalue bracket: [", res.eigenvalue_lower, ",", res.eigenvalue_upper, "]")
print("certified distance to the fixed ray <=", res.error_bound)

print()
print("Cross-check against a dense eigensolver on a random positive matrix:")
rng = np.random.default_rng(5)
R = rng.uniform(0.5, 2.0, size=(6, 6))
res = perron_iterate(R, tol=1e-13)
eigvals, eigvecs = np.linalg.eig(R)
k = int(np.argmax(eigvals.real))
v = np.abs(eigvecs[:, k].real)
print("  distance between iterated and solver eigenvector rays:", pseudo_distance(res.eigenvector, v))
print("  solver eigenvalue", eigvals[k].real, "inside bracket",
      (res.eigenvalue_lower, res.eigenvalue_upper))

print()
print("A cautionary example: diag(2, 1) has c = 1 (no strict contraction).")
print("Iterates slide toward the boundary ray (1, 0) coordinatewise, but")
print("successive rays keep constant bounded distance 1/3, so projectively")
print("the sequence never settles and no error bound exists:")
D = np.diag([2.0, 1.0])
res = perron_iterate(D, [1, 1], tol=1e-12, max_iter=40)
print("  converged:", res.converged, " final step distance:", res.final_step_distance)
print("  final iterate:", res.eigenvector, " error bound:", res.error_bound)
