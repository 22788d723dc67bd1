"""Contraction analysis of nonnegative square matrices acting on the cone.

A nonnegative matrix acts on cone vectors by ``f -> M @ f`` (column action:
the image of the j-th basis ray is the j-th column).  When no column is
zero the action maps the cone into itself and induces a 1-Lipschitz map of
rays for the bounded projective metric.  The least Lipschitz constant, the
contraction coefficient ``c(M)``, equals the largest pairwise distance
between column rays, ``phi(m_min)`` of the smallest pair product
``m = min(aleph(i, j) * aleph(j, i), 1)``.  The zero pattern decides
``c(M) = 1`` first, in O(d^2): two columns with different supports have
``m = 0``.  Otherwise all column pairs of the rows with support, which
hold no zero, are scanned in O(d^3) for ``m_min``: screened on exact int16
differences of balanced, quantized logs, then the few pairs left in float64.

``c(M) < 1`` holds exactly when the zero entries of ``M`` are confined to
all-zero rows, equivalently when ``M`` admits Birkhoff's sandwich
``b[j] * h <= M e_j <= A * b[j] * h`` around a single direction ``h``.
It certifies ``c(M) <= psi(A)``: every valid ``A`` has
``A >= a_star(M) = m_min**-0.5``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cone import _aleph, _support, as_cone_vector

__all__ = [
    "ContractionReport",
    "UniformPositivityCertificate",
    "a_star",
    "apply",
    "as_nonneg_matrix",
    "certificate_is_valid",
    "contraction_coeff",
    "contraction_coeff_formula",
    "is_cone_preserving",
    "is_strictly_contracting",
    "is_uniformly_positive",
    "uniform_positivity_certificate",
]


def as_nonneg_matrix(M) -> np.ndarray:
    """Validate and return ``M`` as a square, C-ordered 2-d float array with entries >= 0; one layout gives one result's bits."""
    arr = np.asarray(M, dtype=float, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    if (arr < 0.0).any():
        raise ValueError("matrix entries must be nonnegative")
    return arr


def _first_dead_column(pos: np.ndarray) -> int | None:
    """Index of the first column of the support mask ``pos`` with no entry, or None."""
    dead = ~pos.any(axis=0)
    return int(np.argmax(dead)) if dead.any() else None


def _check_cone_preserving(pos: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first column of the support mask ``pos`` with no entry; it carries it as ``column``."""
    j = _first_dead_column(pos)
    if j is not None:
        exc = ValueError(f"matrix is not cone-preserving: column {j} has no positive entry")
        exc.column = j
        raise exc


def _first_argmax(V: np.ndarray) -> tuple[int, int]:
    """Row and column of the first largest entry of ``V`` in row-major order."""
    return tuple(int(k) for k in np.unravel_index(int(np.argmax(V)), V.shape))


def _first_pattern_offender(pos: np.ndarray) -> tuple[int, int] | None:
    """First ``(row, col)`` in row-major order outside the support mask ``pos`` in a nonzero row and column, or None."""
    bad = ~pos & pos.any(axis=1)[:, None] & pos.any(axis=0)[None, :]
    return _first_argmax(bad) if bad.any() else None


def is_cone_preserving(M, zero_tol: float = 0.0) -> bool:
    """True iff every column has a positive entry.

    That is exactly the condition for ``M @ f`` to stay in the cone for
    every cone vector ``f``: no basis ray is annihilated.
    """
    return _first_dead_column(_support(as_nonneg_matrix(M), zero_tol)) is None


def apply(M, f, zero_tol: float = 0.0) -> np.ndarray:
    """Image ``M @ f`` of a cone vector, kept inside the cone.

    Raises if the image is (numerically) zero, which happens only when ``M``
    annihilates every basis ray in the support of ``f``, or if it overflows
    the double range.
    """
    M = as_nonneg_matrix(M)
    f = as_cone_vector(f, zero_tol)
    if f.size != M.shape[1]:
        raise ValueError(f"dimension mismatch: matrix is {M.shape[0]}x{M.shape[1]}, vector has {f.size} entries")
    with np.errstate(over="ignore"):
        out = M @ f
    if not np.isfinite(out).all():
        raise ValueError("image of the cone vector is not finite: M @ f overflows the double range")
    if not _support(out, zero_tol).any():
        raise ValueError("image of the cone vector is zero: matrix does not preserve the cone on this input")
    return out


@dataclass(frozen=True)
class ContractionReport:
    """Contraction coefficient of a matrix together with certificate data, all from the smallest pair product ``m_min``.

    ``c = phi(m_min)``, rounded once.  ``is_strict`` is the paper's
    theorem, :func:`is_strictly_contracting`'s zero-pattern test, also
    where ``c`` rounds to 1.  ``a_star = m_min**-0.5``, at most every
    sandwich's ``A``, is None where ``is_strict`` is false or the float
    ``m_min`` is 0 or NaN (at the ends of the double range).  ``witness``
    is the first column pair ``(i, j)``, ``i < j``, in row-major order at
    ``m_min``: where the zero pattern settles ``c = 1``, the first pair
    whose exact ``m`` is 0; a 1x1 matrix has the witness ``(0, 0)``.
    """

    c: float
    is_strict: bool
    a_star: float | None
    witness: tuple[int, int]
    method: str


# The one block of every pass of c(M) outside the n x n tables: rows of float64
# M per step of the aleph scan (of the int16 log table, four times as many), and
# listed pairs per step.  The scan takes max(1024 // n, 1) columns per step:
# each thread's buffer holds 512 KB up to n = 1024 and 512 n bytes above.
_SCAN_BLOCK_ROWS = 64


# Dimension from which contraction_coeff, with workers=None, threads the scan
# over the process's CPUs.  Shared 2-core VM, the int16 screen serial vs 2
# threads, medians of 7 on dense / log-uniform input: 6.8 / 6.7 vs 6.9 / 7.5 ms
# at n = 256, 39 / 45 vs 44 / 46 ms at 512 (within noise), 295 / 282 vs
# 189 / 184 ms at 1024.  The float64 scan that ties fall back to, medians of 5:
# 230 vs 217 ms at 512, 1.58 vs 0.89 s at 1024 (3 each).
_PARALLEL_SCAN_MIN_DIM = 512


# The screen's int16 log table: balanced logs in 0.._LOG_STEPS steps, whose
# differences (-8191..8191) never wrap, nor do the pair ranges -(T + T.T).
_LOG_STEPS = 8191


def _usable_cpus() -> int:
    """Number of CPUs this process may run on: its affinity set, where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _quotients_are_finite(P: np.ndarray) -> bool:
    """``max(P) / min(P)`` is finite for a ``P`` with no zero: no quotient of the scan overflows and no distance is NaN."""
    return math.isfinite(float(P.max()) / float(P.min()))


def _aleph_columns(M: np.ndarray, workers: int | None = None) -> np.ndarray:
    """All pairwise extreme ratios between the ``n`` columns of ``M``, of any number of rows and no zero: out[i, j] = aleph(col_i, col_j).

    For float ``M``, ``out[i, :]`` is the columnwise minimum of
    ``M[k, :] / M[k, i]`` over every row ``k``.  Every quotient is the
    same correctly rounded division as in :func:`projcone.cone.aleph` on the
    column pair, and a minimum is exact in any grouping, so the result is
    bitwise identical to the scalar route.  For the int16 log table of
    :func:`_screened_min_pair_product` the quotient is the exact difference
    ``M[k, :] - M[k, i]``.

    The scan walks blocks of ``M``'s rows outside and groups of
    ``max(1024 // n, 1)`` columns inside (see ``_SCAN_BLOCK_ROWS``),
    combining the row block with each column of the group in one
    per-thread buffer and folding the minima into those ``out[i]``.  Extra
    memory is the n x n ``out`` and one block buffer per thread, in ``M``'s
    dtype.  Threads split the columns ``i`` and write disjoint rows of
    ``out``: deterministic.
    """
    height, n = M.shape
    op, top = (np.divide, np.inf) if M.dtype.kind == "f" else (np.subtract, np.iinfo(M.dtype).max)
    out = np.full((n, n), top, dtype=M.dtype)
    errstate = np.geterr()  # pool threads start from numpy's default error state: carry the caller's into every fill
    rows = min(_SCAN_BLOCK_ROWS * 8 // M.itemsize, height)
    cols = max(1024 // n, 1)

    def fill(lo: int, hi: int) -> None:
        width = min(cols, hi - lo)
        buf = np.empty((width, rows, n), M.dtype)
        block_min = np.empty((width, n), M.dtype)
        with np.errstate(**errstate):
            for k0 in range(0, height, rows):
                chunk, by = M[None, k0:k0 + rows], M[k0:k0 + rows].T[:, :, None]
                quot = buf[:, : chunk.shape[1]]
                for i0 in range(lo, hi, width):
                    o = out[i0:min(i0 + width, hi)]
                    q, least = (quot, block_min) if len(o) == width else (quot[: len(o)], block_min[: len(o)])  # full groups skip two slices
                    op(chunk, by[i0:i0 + len(o)], out=q)
                    np.minimum.reduce(q, axis=1, out=least)
                    np.minimum(o, least, out=o)

    if workers is None or workers <= 1 or n < 4:
        fill(0, n)
    else:
        step = -(-n // workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = [pool.submit(fill, lo, min(lo + step, n)) for lo in range(0, n, step)]
            for chunk in chunks:
                chunk.result()
    return out


def _pair_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pair products ``min(a * b, 1)`` of aleph pairs, elementwise."""
    return np.minimum(a * b, 1.0)


def _listed_pair_products(M: np.ndarray, i, j) -> np.ndarray:
    """Products of the column pairs ``(i, j)``, listed by two slices or two index lists, bit for bit the scan's; ``M`` as :func:`projcone.cone._aleph` takes it."""
    f, g = M[:, i], M[:, j]
    return _pair_products(_aleph(f, g), _aleph(g, f))


def _first_smallest(blocks) -> tuple[float, tuple[int, int]]:
    """Smallest product over ``(m, rows, cols)`` blocks listed in row-major order, and its first pair: every route of ``c(M)`` that reads products picks it here.

    ``m`` is a 1-d block of products of the pairs ``(rows[k], cols[k])``,
    ``rows`` and ``cols`` broadcasting to its length.  ``argmin`` within a
    block and a strict ``<`` across blocks keep the first attaining pair.
    A NaN product (``inf * 0`` at the ends of the double range) wins where
    it first occurs, as under ``argmin``, and ends the reduction.
    """
    best, pair = math.inf, (0, 1)
    for m, rows, cols in blocks:
        k = int(np.argmin(m))
        v = float(m[k])
        if v < best or math.isnan(v):
            best, pair = v, tuple(int(ix[k]) for ix in np.broadcast_arrays(rows, cols, m)[:2])
            if math.isnan(v):
                break
    return best, pair


def _screened_min_pair_product(P: np.ndarray, workers: int | None) -> tuple[float, tuple[int, int]] | None:
    """The float64 scan's ``(m_min, witness)`` on the rows ``P``, bit for bit, via an int16 log table; None where it does not split the pairs.

    Under the guard of :func:`contraction_coeff`, at every size, on the
    rows ``P`` of :func:`_contraction`, which hold no zero.  A pair's ``m``
    does not change under positive row or column scaling, and in ``log2``
    space it is minus the range, over rows, of a column difference.  So
    the float64 logs of ``P`` are balanced (each row's minimum
    subtracted, then each column's) and quantized to
    ``Q = rint(L / delta)`` in ``0..8191``, ``delta = max(L) / 8191``.
    :func:`_aleph_columns` builds ``T[i, j] = min_k (Q[k, j] - Q[k, i])``
    exactly.

    The error proof: the shifts cancel in ``-log2 m``, and a balanced log
    is within ``e = 2**-49 * max|log2 P|`` of the exact shifted one
    (``log2`` within 6 ulp, two subtractions).  A quantized log is within
    ``1/2 + e / delta`` steps of it and ``T`` within twice that, so for
    ``R = -(T + T.T)``, exact in int16, the exact ``-log2 m`` lies in
    ``[(R - s) delta, (R + s) delta]`` with ``s = 2 + 4 e / delta`` (and
    room for the roundings of ``s`` and ``(R +- s) delta``).  The scan's
    float64 ``m``, ``min(fl(a64 b64), 1)`` of correctly rounded alephs, is
    within a factor ``1 +- 2**-50`` of the exact one, give or take ``eta``
    for subnormal products, so the pair at ``R = r_max`` has a float64 ``m``
    of at most ``m_hi = 2**((s - r_max) delta) (1 + 2**-50) + eta``.  So a
    pair attaining the smallest float64 ``m`` has a float64 ``m`` of at most
    ``m_hi`` and an exact ``m`` of at most ``(m_hi + eta) / (1 - 2**-50)``
    (and at most 1), which bounds its ``R`` from below in one closed form;
    the constants' room and the ``- 1`` cover its own roundings.  The
    candidates, the pairs with ``R`` at or above that cut, are recomputed
    by :func:`_listed_pair_products` 64 at a time, in row-major order, for
    :func:`_first_smallest`; more than ``n`` of them (ties) give None.
    """
    n = P.shape[1]
    L = np.log2(P)
    shift = L.min(axis=1, keepdims=True)
    log_lo, log_hi = float(shift.min()), float(L.max())
    L -= shift
    L -= L.min(axis=0, keepdims=True)
    delta = float(L.max()) / _LOG_STEPS or 1.0
    L /= delta
    Q = np.rint(L, out=L).astype(np.int16)
    del L  # the float64 logs go before the table is built
    T = _aleph_columns(Q, workers)
    del Q
    R = np.add(T, T.T)
    np.negative(R, out=R)
    r_max = int(R.max())  # a pair's range is at least the diagonal's 0

    s = (2.0 + 4.0 * math.ldexp(max(log_hi, -log_lo), -49) / delta) * (1.0 + 2.0**-30)
    # |fl(a) fl(b) - a b| is at most 3.01 u a b + 2**-1074 (a + b), and no aleph exceeds max(P) / min(P)
    eta = math.ldexp(1.0, math.ceil(log_hi - log_lo) - 1068)
    m_hi = 2.0 ** ((s - r_max) * delta) * (1.0 + 2.0**-50) + eta
    cut = math.floor(-math.log2(min((m_hi + eta) / (1.0 - 2.0**-50), 1.0)) / delta - s) - 1
    hits = R >= cut
    np.fill_diagonal(hits, False)
    if np.count_nonzero(hits) > 2 * n:  # each pair twice, as (i, j) and (j, i)
        return None
    rows, cols = np.nonzero(hits)
    keep = rows < cols
    rows, cols = rows[keep], cols[keep]
    B = _SCAN_BLOCK_ROWS
    return _first_smallest((_listed_pair_products(P, rows[k:k + B], cols[k:k + B]), rows[k:k + B], cols[k:k + B])
                           for k in range(0, rows.size, B))


def contraction_coeff(M, zero_tol: float = 0.0, workers: int | None = None) -> ContractionReport:
    """Contraction coefficient ``c(M)``: the best Lipschitz constant on rays.

    Computed definitionally as the maximum bounded-metric distance between
    column rays, ``phi(m_min)`` of the smallest pair product, an entry at
    or below ``zero_tol`` counting as zero.  A matrix whose zero pattern
    is not uniformly positive has ``c = 1``, settled in O(d^2) (see
    :func:`_contraction`).  Otherwise all column pairs are scanned in
    O(d^3) (see :func:`_aleph_columns`), then read row by row over
    ``i < j`` in O(d) extra memory.  Every field follows from ``m_min`` by
    :class:`ContractionReport`'s rules, and every route that reads
    products picks it and its witness with :func:`_first_smallest`.  When
    ``max(P) / min(P)`` is finite over the rows ``P`` with support, no
    quotient of the scan overflows and no product is NaN; under that
    guard, at every d, :func:`_screened_min_pair_product` screens pairs on
    an int16 table of log differences and leaves the float64 scan only
    the inputs it cannot split (ties).

    ``workers`` fans the scan over that many threads.  With ``None`` the
    scan uses every CPU the process may run on (its affinity set) from
    d = 512 on, and one thread below.  The result (including the witness)
    is bitwise identical for every ``workers``.

    For a 1x1 matrix there is a single ray, so ``c = 0``.
    """
    M = as_nonneg_matrix(M)
    return _contraction(M, _support(M, zero_tol), workers)


def _contraction(M: np.ndarray, pos: np.ndarray, workers: int | None = None) -> ContractionReport:
    """:func:`contraction_coeff` of a validated ``M`` whose support is the mask ``pos``, a subset of ``M > 0``.

    The zero pattern first: where column ``j``'s support differs from
    column 0's, some row holds a zero of one of the two and an entry of the
    other, so ``m`` of the pair ``(0, j)`` is exactly 0 and ``c = 1``; on a
    cone-preserving ``M`` that happens exactly when a zero lies in a row
    with support.  Otherwise every column has the support ``used`` of
    column 0, and the rows ``P = M[used]`` hold no zero: the rows without
    support hold no ratio, and no O(n^3) table or pair kernel needs a mask.
    """
    _check_cone_preserving(pos)
    n = M.shape[1]
    differs = (pos != pos[:, :1]).any(axis=0)
    if differs.any():
        return ContractionReport(c=1.0, is_strict=False, a_star=None, witness=(0, int(np.argmax(differs))), method="definitional")
    used = pos[:, 0]
    P = M if used.all() else M[used]  # every row: M itself, no copy
    if workers is None and n >= _PARALLEL_SCAN_MIN_DIM:
        workers = _usable_cpus()
    # one column is one ray, m_min = 1; else the screen where the guard holds, and the float64 table where it gives None
    smallest = (1.0, (0, 0)) if n == 1 else _screened_min_pair_product(P, workers) if _quotients_are_finite(P) else None
    if smallest is None:
        al, col = _aleph_columns(P, workers), np.arange(n)
        smallest = _first_smallest((_pair_products(al[i, i + 1:], al[i + 1:, i]), i, col[i + 1:]) for i in range(n - 1))
    m, witness = smallest
    # phi is monotone under rounding, so phi(m_min) is the largest rounded distance, bit for bit
    return ContractionReport(c=(1.0 - m) / (1.0 + m), is_strict=True, a_star=m**-0.5 if m > 0.0 else None, witness=witness,
                             method="definitional")


def contraction_coeff_formula(M, zero_tol: float = 0.0) -> float:
    """Closed-form coefficient by exhaustive scan of 2x2 minor ratios.

    Maximum over all index quadruples (i, j, k, l) of

        ``|M[k,i]*M[l,j] - M[k,j]*M[l,i]| / (M[k,i]*M[l,j] + M[k,j]*M[l,i])``

    Requires strictly positive entries, where every denominator is positive;
    on that domain it agrees with :func:`contraction_coeff` and is kept as
    an independent O(d^4) cross-check and benchmark baseline.  With zero
    entries the expression needs a 0/0 convention that is unsound for
    rank-deficient patterns, so this function refuses them, after the
    cone refusal, naming the first in row-major order as the ``ValueError``'s
    ``entry``; use :func:`contraction_coeff` instead.  It also refuses matrices where a
    product of two entries, or the sum of two such products, leaves the
    normal double range: the ratios would then be NaN or lose their digits.
    """
    M = as_nonneg_matrix(M)
    _check_cone_preserving(pos := _support(M, zero_tol))
    if not pos.all():
        exc = ValueError("closed-form coefficient requires strictly positive entries; use contraction_coeff")
        exc.entry = _first_argmax(~pos)
        raise exc
    lo, hi = float(M.min()), float(M.max())
    if lo * lo < np.finfo(float).tiny or not math.isfinite(2.0 * hi * hi):
        raise ValueError("closed-form coefficient requires products of two entries, and their sums, in the normal double range; use contraction_coeff")
    n = M.shape[1]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            prod = np.outer(M[:, i], M[:, j])  # prod[k, l] = M[k,i] * M[l,j]
            val = float((np.abs(prod - prod.T) / (prod + prod.T)).max())
            if val > best:
                best = val
    return best


def is_uniformly_positive(M, zero_tol: float = 0.0) -> bool:
    """Zero-pattern test: zeros confined to all-zero rows or all-zero columns.

    Equivalently, after deleting all-zero rows and columns the remaining
    submatrix is strictly positive.  For cone-preserving ``M`` this is
    exactly strict contraction, ``c(M) < 1``.
    """
    return _first_pattern_offender(_support(as_nonneg_matrix(M), zero_tol)) is None


def is_strictly_contracting(M, zero_tol: float = 0.0) -> bool:
    """Pattern test for ``c(M) < 1``, assuming ``M`` preserves the cone.

    Under the column action, every zero entry must lie in an all-zero row.
    (Cone preservation rules out all-zero columns, so this coincides with
    :func:`is_uniformly_positive` on its domain.)
    """
    pos = _support(as_nonneg_matrix(M), zero_tol)
    _check_cone_preserving(pos)
    return _first_pattern_offender(pos) is None


def _sandwich_holds(V: np.ndarray, h, b, A: float, rtol: float) -> bool:
    """``prod <= V <= A * prod``, ``prod = outer(h, b)``, with slack ``rtol * max(V)``; ``A = inf`` fails, and over- and underflow are part of the verdict, not numpy warnings."""
    slack = rtol * float(V.max())
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.outer(h, b)
        return math.isfinite(A) and bool(np.all(prod <= V + slack) and np.all(V <= A * prod + slack))


def _pivot(Z: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Birkhoff's sandwich ``(i0, j0, b, a)`` of the zeroed ``Z`` around ``h = Z[:, j0]``, ``(i0, j0)`` its first largest entry.

    ``b[j] = aleph(h, Z e_j)`` and ``a[j] = aleph(Z e_j, h)``, so ``b[j] h <= Z e_j <= A b[j] h`` with
    ``A = 1 / min(b * a)``, the least ``A`` for this ``h``.  Every column pair then has ``m >= A**-2``, so
    ``c <= psi(A)`` and ``a_star <= A <= a_star**2``.  Under the caller's errstate, as ``_aleph`` requires.
    """
    i0, j0 = _first_argmax(Z)
    h = Z[:, j0, None]
    return i0, j0, _aleph(h, Z), _aleph(Z, h)


def _sandwich(Z: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray, float]:
    """The certificate ``(i0, j0, h, b, A)`` of :func:`_pivot` on the zeroed ``Z``; ``ArithmeticError`` where it fails :func:`_sandwich_holds` with slack ``1e-9 * max(Z)``.

    ``A = inf`` where ``min(b * a)`` is 0 or NaN (an aleph that underflows times one that overflows).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        i0, j0, b, a = _pivot(Z)
        m = float(np.minimum.reduce(b * a))
        A = 1.0 / m if m > 0.0 else math.inf
    h = Z[:, j0].copy()
    if not _sandwich_holds(Z, h, b, A, 1e-9):
        raise ArithmeticError(f"the sandwich with A = {A} fails its check")
    return i0, j0, h, b, A


@dataclass(frozen=True)
class UniformPositivityCertificate:
    """Constructive sandwich around a single direction ``h``.

    Certifies ``b[j] * h <= M @ e_j <= A * b[j] * h`` entrywise for every
    basis vector ``e_j`` (and, by linearity, for every cone vector with
    coefficient ``b @ f``).  ``h`` is column ``reference_col`` of the
    matrix, through its largest entry at row ``reference_row``.
    """

    h: np.ndarray
    b: np.ndarray
    A: float
    reference_row: int
    reference_col: int


def certificate_is_valid(M, cert: UniformPositivityCertificate, rtol: float = 1e-9, zero_tol: float = 0.0) -> bool:
    """Check the certificate's sandwich on every basis vector.

    Inequalities are verified with slack ``rtol`` relative to the largest
    matrix entry; an entry at or below ``zero_tol`` is a zero.
    """
    M = as_nonneg_matrix(M)
    h = as_cone_vector(cert.h, zero_tol)
    b = np.asarray(cert.b, dtype=float)
    if h.size != M.shape[0] or b.size != M.shape[1]:
        raise ValueError("certificate dimensions do not match the matrix")
    return _sandwich_holds(np.where(_support(M, zero_tol), M, 0.0), h, b, cert.A, rtol)


def uniform_positivity_certificate(M, zero_tol: float = 0.0) -> UniformPositivityCertificate:
    """Build Birkhoff's sandwich certificate around the column of the largest entry (:func:`_pivot`).

    The reference indices are the row and column of the largest entry
    (first occurrence in row-major order) of the matrix with its entries
    at or below ``zero_tol`` set to 0; ``h`` is that column, ``b[j]`` the
    largest multiple of ``h`` below column ``j``, and ``A`` the smallest
    constant closing the sandwich for this ``h``.  It certifies
    ``c(M) <= psi(A)``, and ``a_star(M) <= A <= a_star(M)**2``.
    ``ArithmeticError`` when the sandwich fails its check (:func:`_sandwich`).
    """
    M = as_nonneg_matrix(M)
    pos = _support(M, zero_tol)
    _check_cone_preserving(pos)
    if _first_pattern_offender(pos) is not None:
        raise ValueError("matrix is not uniformly positive: some zero entry lies in a nonzero row and a nonzero column")
    i0, j0, h, b, A = _sandwich(np.where(pos, M, 0.0))
    return UniformPositivityCertificate(h=h, b=b, A=A, reference_row=i0, reference_col=j0)


def a_star(M, zero_tol: float = 0.0) -> float:
    """``m_min**-0.5`` of :func:`contraction_coeff`, at most every sandwich certificate's ``A``.

    Defined only for strictly contracting matrices: ``ValueError`` where
    the zero pattern gives ``c = 1`` (no finite constant exists), and
    ``ArithmeticError`` where the matrix is strict but the float ``m_min``
    is 0 or NaN (at the ends of the double range), as :func:`_sandwich`
    refuses on such input.
    """
    report = contraction_coeff(M, zero_tol)
    if not report.is_strict:
        raise ValueError("matrix is not strictly contracting (c = 1); no finite sandwich constant exists")
    if report.a_star is None:
        raise ArithmeticError("the smallest pair product m_min is 0 or NaN in double precision; a_star = m_min**-0.5 is not representable")
    return report.a_star
