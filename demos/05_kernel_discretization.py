#!/usr/bin/env python3
"""Positive integral kernels on [0, 1]: discretize, certify, contract.

A kernel K(x, y) >= 0 drives the operator (Kf)(x) = integral K(x,y) f(y) dy.
Sampling K on a quadrature grid gives a nonnegative matrix whose contraction
coefficient does not depend on the (positive) weights at all. Strict
contraction corresponds to Birkhoff's multiplicative sandwich
g1(x) g2(y) <= K(x,y) <= A g1(x) g2(y), built here around the column of
the largest sample; it certifies c <= psi(A).
"""

import numpy as np

from projcone import (
    KernelPatternError,
    KernelGrid,
    builtin_kernel,
    discretize,
    factorization_certificate,
    kernel_contraction_estimate,
    relate_certificate_to_coefficient,
    tabulate_kernel,
)

print("A separable kernel K(x,y) = g1(x) g2(y) factorizes exactly (A = 1)")
print("and its discretization is rank one, hence c = 0:")
grid = tabulate_kernel(builtin_kernel("separable"), 6)
cert = factorization_certificate(grid)
print("  A =", cert.A, "  c =", kernel_contraction_estimate(grid).c)

print()
print("K(x,y) = 1 + x y is strictly positive, so it contracts strictly:")
for n, rule in [(8, "midpoint"), (8, "trapezoid"), (16, "trapezoid")]:
    grid = tabulate_kernel(builtin_kernel("poly1xy"), n, rule)
    bound, c = relate_certificate_to_coefficient(grid)
    print(f"  n = {n:3d} ({rule:9s}): c = {c:.6f} <= psi(A) = {bound:.6f}")
print("  (endpoint-including grids pin the extreme columns, so their")
print("   estimate is already resolution-independent)")

print()
print("Weights never matter for the coefficient - only node placement does:")
grid = tabulate_kernel(builtin_kernel("poly1xy"), 8)
rng = np.random.default_rng(6)
w = rng.uniform(0.1, 5.0, size=8)
regrid = KernelGrid(nodes=grid.nodes, weights=w / w.sum(), values=grid.values)
print("  |c(uniform weights) - c(random weights)| =",
      abs(kernel_contraction_estimate(grid).c - kernel_contraction_estimate(regrid).c))

print()
print("A Gaussian kernel exp(-(x-y)^2 / sigma) is a bounded modulation of a")
print("separable one, so its certificate constant stays below exp(2/sigma):")
for sigma in (2.0, 1.0, 0.5):
    grid = tabulate_kernel(builtin_kernel("gaussian", sigma=sigma), 9)
    cert = factorization_certificate(grid)
    print(f"  sigma = {sigma}: A = {cert.A:.4f} <= {np.exp(2.0 / sigma):.4f}")

print()
print("Kernels whose zeros are not confined to full rows/columns cannot be")
print("factorized and their discretization is not a strict contraction:")
values = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
grid = KernelGrid(nodes=[0.1, 0.5, 0.9], weights=[1 / 3] * 3, values=values)
print("  c =", kernel_contraction_estimate(grid).c)
try:
    factorization_certificate(grid)
except KernelPatternError as err:
    print("  certificate:", err)

print()
print("The discretized operator itself is just a matrix:")
print(discretize(tabulate_kernel(builtin_kernel("constant"), 2)))
