"""Contraction analysis of nonnegative square matrices acting on the cone.

A nonnegative matrix acts on cone vectors by ``f -> M @ f`` (column action:
the image of the j-th basis ray is the j-th column).  When no column is
zero the action maps the cone into itself and induces a 1-Lipschitz map of
rays for the bounded projective metric.  The least Lipschitz constant, the
contraction coefficient ``c(M)``, equals the largest pairwise distance
between column rays.  All column pairs are scanned in O(d^3) (from d =
512 on in float32, float64 settling the few pairs left), one support rule
confining every ratio to its column's support.  One pair at the metric's
bound 1 settles ``c(M) = 1``, in O(d^2) when column 0 has such a partner.

``c(M) < 1`` holds exactly when the zero entries of ``M`` are confined to
all-zero rows, equivalently when ``M`` admits a sandwich certificate
``A**-1 * b[j] * h <= M e_j <= A * b[j] * h`` around a single direction
``h``.  The optimal constant is ``a_star(M) = psi_inverse(c(M))``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cone import _support, as_cone_vector, psi_inverse

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
    """Validate and return ``M`` as a square 2-d float array with entries >= 0."""
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    if np.any(arr < 0.0):
        raise ValueError("matrix entries must be nonnegative")
    return arr


def _first_dead_column(pos: np.ndarray) -> int | None:
    """Index of the first column of the support mask ``pos`` with no entry, or None."""
    dead = ~pos.any(axis=0)
    return int(np.argmax(dead)) if dead.any() else None


def _check_cone_preserving(pos: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first column of the support mask ``pos`` with no entry."""
    j = _first_dead_column(pos)
    if j is not None:
        raise ValueError(f"matrix is not cone-preserving: column {j} has no positive entry")


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
    """Contraction coefficient of a matrix together with certificate data.

    ``is_strict`` is equivalent to ``c < 1``; ``a_star`` (the optimal
    sandwich constant, ``psi_inverse(c)``) is present exactly in that case.
    ``witness`` is a pair of column indices attaining the coefficient.
    """

    c: float
    is_strict: bool
    a_star: float | None
    witness: tuple[int, int]
    method: str


# Rows of float64 M divided per step of the aleph scan (float32 takes twice
# as many).  Each thread owns one quotient buffer of 8 * _SCAN_BLOCK_ROWS * n
# bytes (512 KB at n = 1024), so the block of M and the buffer stay in cache
# while every column of the thread's range is divided into it.
_SCAN_BLOCK_ROWS = 64


# Dimension from which contraction_coeff screens pairs in float32 and, with
# workers=None, threads the scan over the process's CPUs.  2-core VM, serial
# vs 2 threads (dense and log-uniform): 39-42 vs 40-43 ms at n = 256, 112-128
# vs 100-135 ms at 512 (within noise), 0.92-1.03 vs 0.57-0.66 s at n = 1024.
_LARGE_SCAN_MIN_DIM = 512


def _usable_cpus() -> int:
    """Number of CPUs this process may run on: its affinity set, where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _support_denominators(M: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ufunc]:
    """Denominators and fold that confine the ratios ``M[k, :] / M[k, i]`` to the support ``pos[:, i]``.

    With some entry outside the support, the denominators are a copy of
    ``M`` with those entries zeroed, so excluded rows yield ``inf`` or
    NaN, which the NaN-ignoring ``np.fmin`` passes over (a support row
    never yields NaN: its denominator is positive and its numerator
    finite).  Otherwise they are ``M`` itself, folded by ``np.minimum``.
    """
    if not pos.all():
        return np.where(pos, M, M.dtype.type(0)), np.fmin
    return M, np.minimum


def _quotients_are_finite(M: np.ndarray, pos: np.ndarray) -> bool:
    """``max(M) / min(M[pos])`` is finite (support entries exceed ``zero_tol >= 0``): no quotient of the scan overflows and no distance is NaN."""
    lo = float(M.min(initial=np.inf, where=pos))
    return math.isfinite(float(M.max()) / lo)


def _aleph_columns(M: np.ndarray, pos: np.ndarray, workers: int | None = None) -> np.ndarray:
    """All pairwise extreme ratios between columns: out[i, j] = aleph(col_i, col_j).

    ``out[i, :]`` is the columnwise minimum of ``M[k, :] / M[k, i]`` over
    the support ``pos[:, i]`` of column ``i``.  The scan walks row
    blocks (see ``_SCAN_BLOCK_ROWS``) outside and the columns ``i`` inside,
    dividing each block into one reusable per-thread buffer and folding the
    block's minimum into ``out[i]``, by :func:`_support_denominators`.

    Every quotient is the same correctly rounded division as in
    :func:`projcone.cone.aleph` on the column pair, and a minimum is exact
    in any grouping, so the result is bitwise identical to the scalar route.
    Extra memory is ``out``, at most one n x n denominator copy and one
    block buffer per thread, in ``M``'s dtype.  Threads split the columns
    ``i`` and write disjoint rows of ``out``: the fan-out is deterministic.
    """
    n = M.shape[1]
    out = np.full((n, n), np.inf, dtype=M.dtype)
    # Pool threads start from numpy's default error state: carry the caller's into every fill.
    errstate = {**np.geterr(), "divide": "ignore", "invalid": "ignore"}
    denom, fold = _support_denominators(M, pos)
    rows = min(_SCAN_BLOCK_ROWS * 8 // M.itemsize, n)

    def fill(lo: int, hi: int) -> None:
        buf = np.empty((rows, n), M.dtype)
        block_min = np.empty(n, M.dtype)
        with np.errstate(**errstate):
            for k0 in range(0, n, rows):
                chunk = M[k0:k0 + rows]
                quot = buf[: chunk.shape[0]]
                for i in range(lo, hi):
                    np.divide(chunk, denom[k0:k0 + rows, i, None], out=quot)
                    fold.reduce(quot, axis=0, out=block_min)
                    fold(out[i], block_min, out=out[i])

    if workers is None or workers <= 1 or n < 4:
        fill(0, n)
    else:
        step = -(-n // workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = [pool.submit(fill, lo, min(lo + step, n)) for lo in range(0, n, step)]
            for chunk in chunks:
                chunk.result()
    return out


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bounded-metric distances ``phi(min(a * b, 1))`` of aleph pairs, elementwise."""
    m = np.minimum(a * b, 1.0)
    return (1.0 - m) / (1.0 + m)


def _listed_pair_distances(M: np.ndarray, pos: np.ndarray, i, j) -> np.ndarray:
    """Distances of the column pairs ``(i, j)``, listed by two slices or two index lists, bit for bit the scan's."""
    def alephs(i, j):  # aleph(col_i, col_j) of every listed pair
        denom, fold = _support_denominators(M[:, i], pos[:, i])
        return fold.reduce(M[:, j] / denom, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _pair_distances(alephs(i, j), alephs(j, i))


def _max_pair_distance(al: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest distance ``_pair_distances(al[i, j], al[j, i])`` over pairs ``i < j``, and its first pair.

    One row of pairs at a time.  The strict comparison across rows and
    ``argmax`` within a row keep the lexicographically smallest attaining
    pair.  A NaN distance (an ``inf * 0`` product at the ends of the double
    range) wins at its first occurrence, as a NaN does under ``argmax``.
    """
    best, witness = -1.0, (0, 1)
    for i in range(al.shape[0] - 1):
        d = _pair_distances(al[i, i + 1:], al[i + 1:, i])
        k = int(np.argmax(d))
        v = float(d[k])
        if math.isnan(v):
            return v, (i, i + 1 + k)
        if v > best:
            best, witness = v, (i, i + 1 + k)
    return best, witness


def _screened_max_pair_distance(M: np.ndarray, pos: np.ndarray, workers: int | None) -> tuple[float, tuple[int, int]] | None:
    """``_max_pair_distance`` of the float64 aleph table, bit for bit, via float32; None where it does not apply.

    Under the guard of :func:`contraction_coeff` it applies when ``max(M) /
    min(M[M > 0]) < 2**60``: then ``M`` scaled to a largest entry in [1/2, 1)
    has every nonzero entry and quotient float32-normal, and no float64
    quotient or product overflows or underflows.  A float32 quotient is
    within a factor ``1 +- (3 * 2**-24 + O(2**-48))`` of the exact one, a
    minimum keeps such bounds, and so each float64 aleph, the rounded exact
    one, lies between the exact ``al32 * (1 -+ 2**-21)``.  Rounding is
    monotone, so their ``_pair_distances`` bound each float64 distance
    above and below, and a pair attaining the maximum has an upper distance
    at or above every lower one.  These candidates are recomputed by
    :func:`_listed_pair_distances`, 64 at a time, the first largest in
    row-major order winning; more than ``n`` of them (ties) give None.
    """
    n, top = M.shape[1], float(M.max())
    if not top / float(M.min(initial=np.inf, where=M > 0.0)) < 2.0**60:
        return None
    al = _aleph_columns(np.ldexp(M, -math.frexp(top)[1]).astype(np.float32), pos, workers)

    def bound(i: int, f: float) -> np.ndarray:
        return _pair_distances(al[i, i + 1:].astype(float) * f, al[i + 1:, i].astype(float) * f)
    floor = max(float(bound(i, 1.0 + 2.0**-21).max()) for i in range(n - 1))
    rows, cols = [], []
    for i in range(n - 1):
        hits = i + 1 + np.flatnonzero(bound(i, 1.0 - 2.0**-21) >= floor)
        rows, cols = rows + [i] * hits.size, cols + hits.tolist()
        if len(cols) > n:
            return None
    d = np.empty(len(cols))
    for s in range(0, d.size, _SCAN_BLOCK_ROWS):
        d[s:s + _SCAN_BLOCK_ROWS] = _listed_pair_distances(M, pos, rows[s:s + _SCAN_BLOCK_ROWS], cols[s:s + _SCAN_BLOCK_ROWS])
    k = int(np.argmax(d))
    return float(d[k]), (rows[k], cols[k])


def contraction_coeff(M, zero_tol: float = 0.0, workers: int | None = None) -> ContractionReport:
    """Contraction coefficient ``c(M)``: the best Lipschitz constant on rays.

    Computed definitionally as the maximum bounded-metric distance between
    column rays, scanning all column pairs in O(d^3) (see
    :func:`_aleph_columns`), then reducing the pairs row by row in O(d)
    extra memory.  The witness is the lexicographically smallest attaining
    pair.  When ``max(M) / min(M[M > zero_tol])`` is finite and positive,
    no quotient of the scan overflows and no distance is NaN, so the bound
    1.0, once reached in row 0 of the pair table (2 d^2 divisions), is the
    maximum and settles ``c = 1`` with the scan's witness.  Under the same
    guard, from d = 512 on, :func:`_screened_max_pair_distance` screens
    pairs in float32.

    ``workers`` fans the scan over that many threads.  With ``None`` the
    scan uses every CPU the process may run on (its affinity set) from
    d = 512 on, and one thread below.  The result (including the witness)
    is bitwise identical for every ``workers``.

    For a 1x1 matrix there is a single ray, so ``c = 0``.
    """
    M = as_nonneg_matrix(M)
    pos = _support(M, zero_tol)
    _check_cone_preserving(pos)
    n = M.shape[1]
    if n == 1:
        return ContractionReport(c=0.0, is_strict=True, a_star=1.0, witness=(0, 0), method="definitional")
    guarded = _quotients_are_finite(M, pos)
    if guarded:
        hits = np.flatnonzero(_listed_pair_distances(M, pos, slice(0, 1), slice(1, None)) == 1.0)
        if hits.size:
            return ContractionReport(c=1.0, is_strict=False, a_star=None, witness=(0, 1 + int(hits[0])), method="definitional")
    large = n >= _LARGE_SCAN_MIN_DIM
    if workers is None and large:
        workers = _usable_cpus()
    screened = _screened_max_pair_distance(M, pos, workers) if guarded and large else None
    c, witness = screened or _max_pair_distance(_aleph_columns(M, pos, workers))
    a = psi_inverse(c) if c < 1.0 else None
    return ContractionReport(c=c, is_strict=c < 1.0, a_star=a, witness=witness, method="definitional")


def contraction_coeff_formula(M, zero_tol: float = 0.0) -> float:
    """Closed-form coefficient by exhaustive scan of 2x2 minor ratios.

    Maximum over all index quadruples (i, j, k, l) of

        ``|M[k,i]*M[l,j] - M[k,j]*M[l,i]| / (M[k,i]*M[l,j] + M[k,j]*M[l,i])``

    Requires strictly positive entries, where every denominator is positive;
    on that domain it agrees with :func:`contraction_coeff` and is kept as
    an independent O(d^4) cross-check and benchmark baseline.  With zero
    entries the expression needs a 0/0 convention that is unsound for
    rank-deficient patterns, so this function refuses them; use
    :func:`contraction_coeff` instead.  It also refuses matrices where a
    product of two entries, or the sum of two such products, leaves the
    normal double range: the ratios would then be NaN or lose their digits.
    """
    M = as_nonneg_matrix(M)
    if not _support(M, zero_tol).all():
        raise ValueError("closed-form coefficient requires strictly positive entries; use contraction_coeff")
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


def _sandwich_holds(V: np.ndarray, prod: np.ndarray, A: float, rtol: float) -> bool:
    """``prod / A <= V <= A * prod`` at every entry, with slack ``rtol * max(V)``; ``A = inf`` certifies nothing and fails.

    Over- and underflow are part of the verdict, not numpy warnings.
    """
    slack = rtol * float(V.max())
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return math.isfinite(A) and bool(np.all(prod / A <= V + slack) and np.all(V <= A * prod + slack))


def _sandwich(V: np.ndarray, h: np.ndarray, b: np.ndarray, pos: np.ndarray) -> float:
    """Smallest ``A`` with ``h[k] * b[j] / A <= V[k, j] <= A * h[k] * b[j]`` on the support mask ``pos`` of ``V`` (Birkhoff).

    ``ArithmeticError`` when the sandwich fails :func:`_sandwich_holds` with
    slack ``1e-9 * max(V)``, as it does when a ratio leaves the double range.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        prod = np.outer(h, b)
        r = V[pos] / prod[pos]
        A = float(max(r.max(), (1.0 / r).max()))
    if not _sandwich_holds(V, prod, A, 1e-9):
        raise ArithmeticError(f"the sandwich with A = {A} fails its check")
    return A


@dataclass(frozen=True)
class UniformPositivityCertificate:
    """Constructive sandwich around a single direction ``h``.

    Certifies ``A**-1 * b[j] * h <= M @ e_j <= A * b[j] * h`` entrywise for
    every basis vector ``e_j`` (and, by linearity, for every cone vector
    with coefficient ``b @ f``).  ``h`` is column ``reference_col`` of the
    matrix and ``b`` is row ``reference_row``.
    """

    h: np.ndarray
    b: np.ndarray
    A: float
    reference_row: int
    reference_col: int


def certificate_is_valid(M, cert: UniformPositivityCertificate, rtol: float = 1e-9, zero_tol: float = 0.0) -> bool:
    """Check the certificate's sandwich on every basis vector.

    Inequalities are verified with slack ``rtol`` relative to the largest
    matrix entry.
    """
    M = as_nonneg_matrix(M)
    h = as_cone_vector(cert.h, zero_tol)
    b = np.asarray(cert.b, dtype=float)
    if h.size != M.shape[0] or b.size != M.shape[1]:
        raise ValueError("certificate dimensions do not match the matrix")
    return _sandwich_holds(M, np.outer(h, b), cert.A, rtol)


def uniform_positivity_certificate(M, zero_tol: float = 0.0) -> UniformPositivityCertificate:
    """Build a sandwich certificate from a reference row and column.

    The reference indices are the row and column of the largest entry
    (first occurrence in row-major order), which necessarily lie in a
    nonzero row and column; ``h`` is the reference column, ``b`` the
    reference row, and ``A`` the smallest constant making the sandwich hold
    for this particular pair, scanned over all entries above ``zero_tol``
    (once the pattern test passes, these are all entries in nonzero rows).

    The returned ``A`` is always at least :func:`a_star`, the optimal
    constant over *all* admissible pairs, and in general exceeds it.
    ``ArithmeticError`` when the sandwich fails its check (:func:`_sandwich`).
    """
    M = as_nonneg_matrix(M)
    pos = _support(M, zero_tol)
    _check_cone_preserving(pos)
    if _first_pattern_offender(pos) is not None:
        raise ValueError("matrix is not uniformly positive: some zero entry lies in a nonzero row and a nonzero column")
    i0, j0 = _first_argmax(M)
    h = M[:, j0].copy()
    b = M[i0, :].copy()
    return UniformPositivityCertificate(h=h, b=b, A=_sandwich(M, h, b, pos), reference_row=i0, reference_col=j0)


def a_star(M, zero_tol: float = 0.0) -> float:
    """Optimal sandwich constant, ``psi_inverse(c(M))``.

    Defined only for strictly contracting matrices; raises when ``c = 1``
    (no finite constant exists).
    """
    report = contraction_coeff(M, zero_tol)
    if not report.is_strict:
        raise ValueError("matrix is not strictly contracting (c = 1); no finite sandwich constant exists")
    return report.a_star
