#!/usr/bin/env python3
"""Uniform positivity: the structural reason a matrix contracts strictly.

A cone-preserving matrix has c(M) < 1 exactly when its zero entries are
confined to all-zero rows, and exactly when every image M e_j is sandwiched
between multiples of one fixed direction h (Birkhoff's sandwich):

    b[j] * h  <=  M e_j  <=  A * b[j] * h

Every pair of columns is then within a factor A**2 of each other's ray,
so c <= psi(A).  This script builds such certificates around the column
of the largest entry, checks them, and compares the constructive
constant A with the optimal one a* = m_min**-0.5, from the smallest
column-pair product m_min (so psi(a*) = c): a* <= A <= a*^2.
"""

import numpy as np

from projcone import (
    a_star,
    certificate_is_valid,
    contraction_coeff,
    is_strictly_contracting,
    is_uniformly_positive,
    psi,
    uniform_positivity_certificate,
)

for M in [np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2)]:
    print("M =", M.tolist())
    print("  uniformly positive:", is_uniformly_positive(M))
    try:
        print("  strictly contracting (pattern test):", is_strictly_contracting(M))
    except ValueError as err:
        print("  strictly contracting: n/a -", err)
    report = contraction_coeff(M)
    print("  c(M) =", report.c)
    if is_uniformly_positive(M):
        cert = uniform_positivity_certificate(M)
        print(f"  certificate: h = {cert.h.tolist()}, b = {cert.b.tolist()}, A = {cert.A}")
        print("  sandwich validates:", certificate_is_valid(M, cert))
        print("  constructive A =", cert.A, ">= optimal a* =", a_star(M))
        print("  c =", report.c, "<= psi(A) =", psi(cert.A))
        print("  psi(a*) recovers c:", psi(a_star(M)))
    print()

print("On random positive matrices the constructive A lies between a* and a*^2:")
rng = np.random.default_rng(4)
for _ in range(5):
    M = rng.uniform(0.1, 10.0, size=(4, 4))
    cert = uniform_positivity_certificate(M)
    print(f"  a* = {a_star(M):8.4f}   constructive A = {cert.A:9.4f}   a*^2 = {a_star(M) ** 2:9.4f}")

print()
print("A does not depend on the matrix's scale:")
for s in (1e-3, 1.0, 1e3):
    print(f"  s = {s:g}: A of s * [[2, 1], [1, 2]] = {uniform_positivity_certificate(s * np.array([[2.0, 1.0], [1.0, 2.0]])).A}")
