"""Ratio functionals and projective metrics on the nonnegative cone.

The cone consists of coordinate vectors with nonnegative entries, at least
one of them positive.  Rays (positive scalar multiples) of cone vectors
carry two natural metrics derived from the extreme entrywise ratios between
two vectors: the classical Hilbert metric ``|log m|``, which is infinite for
rays separated on the cone boundary, and a bounded variant
``(1 - m)/(1 + m)`` taking values in ``[0, 1]``.  Here ``m`` is the
symmetric product of the two extreme ratios; it equals 1 exactly on
proportional pairs and 0 exactly when one vector vanishes somewhere on the
support of the other, in both directions.

All functions are pure and scale invariant where the geometry demands it:
metric values do not depend on which representative of a ray is passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RatioPair",
    "aleph",
    "as_cone_vector",
    "hilbert_distance",
    "m_ratio",
    "normalize",
    "phi",
    "pseudo_distance",
    "psi",
    "psi_inverse",
    "rays_equal",
    "segment_distance",
]


def _support(a: np.ndarray, zero_tol: float) -> np.ndarray:
    """The support ``a > zero_tol``, the one mask a ``zero_tol`` makes; ``ValueError`` unless ``zero_tol`` is finite and nonnegative."""
    if not 0.0 <= zero_tol < math.inf:
        raise ValueError(f"zero_tol must be finite and nonnegative, got {zero_tol}")
    return a > zero_tol


def _cone_vector(f, zero_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`as_cone_vector` of ``f`` and the copy the ratios read: every entry ``<= zero_tol``, and ``-0.0``, set to ``+0.0``."""
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("cone vector must be a 1-d sequence with at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError("cone vector entries must be finite")
    if (arr < 0.0).any():
        raise ValueError("cone vector entries must be nonnegative")
    if not (pos := _support(arr, zero_tol)).any():
        raise ValueError("cone vector must have at least one positive entry")
    return arr, np.where(pos, arr, 0.0)


def as_cone_vector(f, zero_tol: float = 0.0) -> np.ndarray:
    """Validate and return ``f`` as a 1-d float array in the cone.

    Entries must be finite and nonnegative, and at least one entry must
    exceed ``zero_tol``, a finite, nonnegative threshold (default 0.0,
    exact zeros only): the zero vector is not a cone point.
    """
    return _cone_vector(f, zero_tol)[0]


def _cone_pair(f, g, zero_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Validate two cone vectors, require equal shapes, and return their zeroed copies (see :func:`_cone_vector`)."""
    (f, zf), (g, zg) = _cone_vector(f, zero_tol), _cone_vector(g, zero_tol)
    if f.shape != g.shape:
        raise ValueError(f"dimension mismatch: {f.size} vs {g.size}")
    return zf, zg


def _aleph(f: np.ndarray, g: np.ndarray) -> np.floating | np.ndarray:
    """Unchecked :func:`aleph` of nonnegative ``f`` and ``g``, vectors or columns paired one to one, neither holding ``-0.0``.

    Every column of ``f`` has a positive entry.  A quotient over a zero of ``f`` is ``inf`` or NaN, which ``np.fmin``
    passes over, and one over ``-0.0`` would be a winning ``-inf``.  The caller's errstate governs overflow and must
    ignore division by zero and 0/0.
    """
    return np.fmin.reduce(g / f, axis=0)


def aleph(f, g, zero_tol: float = 0.0) -> float:
    """Largest ``b >= 0`` such that ``b * f <= g`` entrywise.

    Equals the infimum of ``g(x) / f(x)`` over the support of ``f``.  Finite,
    because ``f`` has at least one positive entry, unless it exceeds the
    double range (``g`` far above a subnormal ``f``), where it is ``inf``;
    zero exactly when ``g`` vanishes at some index where ``f`` is positive.
    Quotients outside the support of ``f`` are dropped, and an entry at
    or below ``zero_tol`` is a zero in ``f`` and in ``g`` alike.

    Scaling behaves as ``aleph(a*f, b*g) == (b/a) * aleph(f, g)``.
    """
    f, g = _cone_pair(f, g, zero_tol)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a quotient over a subnormal entry of f may overflow to inf
        return float(_aleph(f, g))


@dataclass(frozen=True)
class RatioPair:
    """Extreme ratios between two cone vectors and their symmetric product.

    ``m = aleph_fg * aleph_gf`` lies in ``[0, 1]`` and equals 1 exactly when
    the vectors are proportional.
    """

    aleph_fg: float
    aleph_gf: float
    m: float


def m_ratio(f, g, zero_tol: float = 0.0) -> RatioPair:
    """Both extreme ratios between ``f`` and ``g`` and their product ``m``.

    The product is clamped to 1.0 to absorb last-ulp overshoot on exactly
    proportional pairs; mathematically it never exceeds 1.  Where one ratio
    overflows to ``inf``, ``m``, which is scale invariant, is taken again
    with the smaller vector scaled to a largest entry of 1.
    """
    f, g = _cone_pair(f, g, zero_tol)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a quotient over a subnormal entry may overflow to inf
        a_fg = float(_aleph(f, g))
        a_gf = float(_aleph(g, f))
        m = a_fg * a_gf
        if math.inf in (a_fg, a_gf):  # only one can overflow; the smaller vector's largest entry is then below 1
            small, big = (f, g) if a_fg == math.inf else (g, f)
            scaled = small / small.max()  # scaled up, so no entry underflows
            m = float(_aleph(scaled, big)) * float(_aleph(big, scaled))
    return RatioPair(aleph_fg=a_fg, aleph_gf=a_gf, m=min(m, 1.0))


def phi(s: float) -> float:
    """Strictly decreasing bijection of [0, 1] onto itself: ``(1-s)/(1+s)``.

    Transfers the ratio product onto the bounded metric; ``phi(0) = 1`` and
    ``phi(1) = 0``, and ``phi(s*t) <= phi(s) + phi(t)``, which is what makes
    the bounded distance a metric.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"phi requires 0 <= s <= 1, got {s}")
    return (1.0 - s) / (1.0 + s)


def psi(a: float) -> float:
    """Increasing bijection of [1, inf) onto [0, 1): ``psi(a) = phi(a**-2)``.

    Birkhoff's sandwich with constant ``A`` (the certificates of the matrix
    and kernel modules) certifies ``c <= psi(A)``.
    """
    if not (math.isfinite(a) and a >= 1.0):
        raise ValueError(f"psi requires a finite value >= 1, got {a}")
    return phi(1.0 / (a * a))


def psi_inverse(c: float) -> float:
    """Inverse of :func:`psi`: ``sqrt((1+c)/(1-c))``.

    Gives ``a_star`` from a contraction coefficient ``c < 1``; Birkhoff's
    sandwich's constant ``A`` satisfies ``A >= psi_inverse(c)``.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"psi_inverse requires 0 <= c < 1, got {c}")
    return math.sqrt((1.0 + c) / (1.0 - c))


def pseudo_distance(f, g, zero_tol: float = 0.0) -> float:
    """Bounded projective distance ``(1-m)/(1+m)`` in [0, 1].

    A genuine metric on rays.  Scale invariant, so the arguments may be any
    representatives of their rays; they need not be normalized.  Equals 0
    exactly on equal rays and 1 exactly when the rays are separated on the
    boundary of the cone (``m = 0``), where the classical Hilbert metric is
    infinite.
    """
    return phi(m_ratio(f, g, zero_tol).m)


def hilbert_distance(f, g, zero_tol: float = 0.0) -> float:
    """Classical projective metric ``|log m|``; ``inf`` on boundary pairs.

    Related to the bounded metric by ``d = tanh(d_H / 2)`` whenever finite.
    Returns ``math.inf`` rather than raising when ``m == 0``: infinite
    separation is a legitimate value on the cone boundary.
    """
    m = m_ratio(f, g, zero_tol).m
    return math.inf if m == 0.0 else abs(math.log(m))


def segment_distance(f1: float, f2: float, g1: float, g2: float) -> float:
    """Bounded projective distance from 2-d cross-section coordinates.

    When two rays are written in the basis ``(u, v)`` of the endpoints of a
    planar cross-section of the cone, ``f = f1*u + f2*v`` and
    ``g = g1*u + g2*v``, the bounded distance reduces to

        ``|f1*g2 - f2*g1| / (f1*g2 + f2*g1)``

    with the convention that 0/0 is 0 (both products vanish only when the
    rays coincide with the same edge of the section).  Serves as an
    independent closed form for :func:`pseudo_distance` in two dimensions.
    """
    for name, v in (("f1", f1), ("f2", f2), ("g1", g1), ("g2", g2)):
        if not (math.isfinite(v) and v >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    if f1 == 0.0 and f2 == 0.0:
        raise ValueError("(f1, f2) must not both be zero")
    if g1 == 0.0 and g2 == 0.0:
        raise ValueError("(g1, g2) must not both be zero")
    a = f1 * g2
    b = f2 * g1
    den = a + b
    if den == 0.0:
        return 0.0
    return abs(a - b) / den


def normalize(f, zero_tol: float = 0.0) -> np.ndarray:
    """Canonical representative of the ray through ``f``: max entry scaled to 1.

    Idempotent, and the same for every positive multiple of ``f``.  Using the
    sup norm keeps every entry in [0, 1] and keeps boundary zeros exactly
    zero.
    """
    f = as_cone_vector(f, zero_tol)
    return f / f.max()


def rays_equal(f, g, tol: float = 1e-12, zero_tol: float = 0.0) -> bool:
    """Whether ``f`` and ``g`` span the same ray.

    Compares canonical representatives entrywise with absolute tolerance
    ``tol`` (default 1e-12).
    """
    p = normalize(f, zero_tol)
    q = normalize(g, zero_tol)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.size} vs {q.size}")
    return bool(np.max(np.abs(p - q)) <= tol)
