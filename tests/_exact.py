"""Exact reference values for the ratio functionals, in rational arithmetic.

Every float is a dyadic rational, so ``fractions.Fraction`` holds each input
entry, quotient and product without error.  The oracle shares no code with
the library and uses only the standard library; it is for small inputs
(``c`` of an n x n matrix costs O(n^3) Fraction operations).  Arguments are
sequences of Python floats; a matrix is a list of rows.
"""

from __future__ import annotations

from fractions import Fraction


def aleph(f, g, zero_tol: float = 0.0) -> Fraction:
    """Exact ``min g[k] / f[k]`` over the support ``f[k] > zero_tol``, which must not be empty; a ``g[k] <= zero_tol`` is 0."""
    return min((Fraction(b) if b > zero_tol else Fraction(0)) / Fraction(a) for a, b in zip(f, g) if a > zero_tol)


def m(f, g, zero_tol: float = 0.0) -> Fraction:
    """Exact ratio product ``min(aleph(f, g) * aleph(g, f), 1)``."""
    return min(aleph(f, g, zero_tol) * aleph(g, f, zero_tol), Fraction(1))


def distance(f, g, zero_tol: float = 0.0) -> Fraction:
    """Exact bounded-metric distance ``(1 - m) / (1 + m)`` of two cone vectors."""
    p = m(f, g, zero_tol)
    return (1 - p) / (1 + p)


def image(M, f) -> list[Fraction]:
    """Exact ``M @ f``."""
    return [sum((Fraction(a) * Fraction(b) for a, b in zip(row, f)), Fraction(0)) for row in M]


def contraction(M, zero_tol: float = 0.0) -> Fraction:
    """Exact ``c(M)``: the largest :func:`distance` over pairs of columns; 0 for a single column."""
    cols = [list(col) for col in zip(*M)]
    return max((distance(cols[i], cols[j], zero_tol) for i in range(len(cols)) for j in range(i + 1, len(cols))), default=Fraction(0))


def first_pair_at_m_0(M, zero_tol: float = 0.0) -> tuple[int, int] | None:
    """First column pair ``(i, j)``, ``i < j``, in row-major order whose exact ``m`` is 0, or None."""
    cols = [list(col) for col in zip(*M)]
    return next(((i, j) for i in range(len(cols)) for j in range(i + 1, len(cols)) if m(cols[i], cols[j], zero_tol) == 0), None)
