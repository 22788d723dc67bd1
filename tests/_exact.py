"""Exact reference values for the ratio functionals, in rational arithmetic.

Every float is a dyadic rational, so ``fractions.Fraction`` holds each input
entry, quotient and product without error.  The oracle shares no code with
the library and uses only the standard library; it is for small inputs
(``c`` of an n x n matrix costs O(n^3) Fraction operations).  The 2 x 2
Perron ray holds a square root, so it is a ``Decimal`` of a chosen
precision.  Arguments are sequences of Python floats; a matrix is a list
of rows.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
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


def _decimal(x: Fraction) -> Decimal:
    """``x`` rounded to the context's precision."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def perron_ray_2x2(M, digits: int = 80) -> list[Decimal] | None:
    """The Perron eigenvector of a nonnegative ``[[a, b], [c, d]]`` to ``digits`` significant digits, from the larger root
    ``lambda`` of its characteristic quadratic; None where every ray is an eigenray (``b = c = 0`` and ``a = d``).

    ``(lambda - d, c)`` and ``(b, lambda - a)`` both solve ``(M - lambda) x = 0``, and the first that is not 0 is
    returned.  ``lambda - x = ((y - x) + s) / 2`` with ``s = sqrt((a - d)^2 + 4 b c)`` is taken as ``2 b c / (s + x - y)``
    where ``y < x``, so no digits cancel.
    """
    (a, b), (c, d) = ([Fraction(x) for x in row] for row in M)
    with localcontext() as ctx:
        ctx.prec = digits
        s = _decimal((a - d) ** 2 + 4 * b * c).sqrt()

        def above(x, y):
            return (_decimal(y - x) + s) / 2 if y >= x else _decimal(2 * b * c) / (s + _decimal(x - y))

        return next((ray for ray in ([above(d, a), _decimal(c)], [_decimal(b), above(a, d)]) if any(ray)), None)


def ray_distance(f, x, digits: int = 80) -> Decimal:
    """Bounded-metric distance from a float vector ``f`` to a Decimal vector ``x``, to ``digits`` digits; 1 where their supports differ."""
    f = [Decimal(a) for a in f]
    if [a > 0 for a in f] != [b > 0 for b in x]:
        return Decimal(1)
    with localcontext() as ctx:
        ctx.prec = digits
        pairs = [(a, b) for a, b in zip(f, x) if a > 0]
        p = min(b / a for a, b in pairs) * min(a / b for a, b in pairs)
        return (1 - p) / (1 + p)
