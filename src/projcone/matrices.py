"""Contraction analysis of nonnegative square matrices acting on the cone.

A nonnegative matrix acts on cone vectors by ``f -> M @ f`` (column action:
the image of the j-th basis ray is the j-th column).  When no column is
zero the action maps the cone into itself and induces a 1-Lipschitz map of
rays for the bounded projective metric.  The least Lipschitz constant, the
contraction coefficient ``c(M)``, equals the largest pairwise distance
between column rays.  It is computable in O(d^3) by scanning all column
pairs (from d = 512 on, in float32, with float64 settling the few pairs
left).  The metric is bounded by 1, so one pair at distance exactly 1
settles ``c(M) = 1``; when column 0 has such a partner, O(d^2) suffices.

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

from .cone import as_cone_vector, psi_inverse

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


def _first_dead_column(M: np.ndarray, zero_tol: float) -> int | None:
    """Index of the first column of the validated ``M`` with no entry above ``zero_tol``, or None."""
    dead = ~(M > zero_tol).any(axis=0)
    return int(np.argmax(dead)) if dead.any() else None


def _check_cone_preserving(M: np.ndarray, zero_tol: float) -> None:
    """Raise ``ValueError`` naming the first column of the validated ``M`` with no entry above ``zero_tol``."""
    j = _first_dead_column(M, zero_tol)
    if j is not None:
        raise ValueError(f"matrix is not cone-preserving: column {j} has no positive entry")


def _first_argmax(V: np.ndarray) -> tuple[int, int]:
    """Row and column of the first largest entry of ``V`` in row-major order."""
    return tuple(int(k) for k in np.unravel_index(int(np.argmax(V)), V.shape))


def _first_pattern_offender(M: np.ndarray, zero_tol: float) -> tuple[int, int] | None:
    """First ``(row, col)`` in row-major order of a zero (at most ``zero_tol``) in a nonzero row and column, or None."""
    pos = M > zero_tol
    bad = ~pos & pos.any(axis=1)[:, None] & pos.any(axis=0)[None, :]
    return _first_argmax(bad) if bad.any() else None


def is_cone_preserving(M, zero_tol: float = 0.0) -> bool:
    """True iff every column has a positive entry.

    That is exactly the condition for ``M @ f`` to stay in the cone for
    every cone vector ``f``: no basis ray is annihilated.
    """
    return _first_dead_column(as_nonneg_matrix(M), zero_tol) is None


def apply(M, f, zero_tol: float = 0.0) -> np.ndarray:
    """Image ``M @ f`` of a cone vector, kept inside the cone.

    Raises if the image is (numerically) zero, which happens only when ``M``
    annihilates every basis ray in the support of ``f``.
    """
    M = as_nonneg_matrix(M)
    f = as_cone_vector(f, zero_tol)
    if f.size != M.shape[1]:
        raise ValueError(f"dimension mismatch: matrix is {M.shape[0]}x{M.shape[1]}, vector has {f.size} entries")
    out = M @ f
    if not np.any(out > zero_tol):
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
# workers=None, threads the scan over the process's CPUs.  On a 2-core VM,
# serial against 2 threads: 30 vs 36 ms at n = 256 (threads lose),
# 237 vs 189 ms at n = 512 and 1.7 vs 0.95 s at n = 1024.
_LARGE_SCAN_MIN_DIM = 512


def _usable_cpus() -> int:
    """Number of CPUs this process may run on: its affinity set, where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _aleph_columns(
    M: np.ndarray, zero_tol: float, workers: int | None = None, outside: np.ndarray | None = None
) -> np.ndarray:
    """All pairwise extreme ratios between columns: out[i, j] = aleph(col_i, col_j).

    ``out[i, :]`` is the columnwise minimum of ``M[k, :] / M[k, i]`` over
    the support ``M[k, i] > zero_tol`` of column ``i``.  The scan walks row
    blocks (see ``_SCAN_BLOCK_ROWS``) outside and the columns ``i`` inside,
    dividing each block into one reusable per-thread buffer
    and folding the block's minimum into ``out[i]``.  Rows outside the
    support are excluded without copies: when some entry is at or below
    ``zero_tol``, the denominators come from one copy of ``M`` with those
    entries zeroed, so excluded rows yield ``inf`` or NaN, which the
    NaN-ignoring ``np.fmin`` passes over (a support row never yields NaN:
    its denominator is positive and its numerator finite).

    Every quotient is the same correctly rounded division as in
    :func:`projcone.cone.aleph` on the column pair, and a minimum is exact
    in any grouping, so the result is bitwise identical to the scalar route.
    Extra memory is ``out``, at most one n x n denominator copy and one
    block buffer per thread, in ``M``'s dtype.  Threads split the columns
    ``i`` and write disjoint rows of ``out``: the fan-out is deterministic.
    ``outside`` is the mask ``M <= zero_tol`` when the caller has it.
    """
    n = M.shape[1]
    out = np.full((n, n), np.inf, dtype=M.dtype)
    # Pool threads start from numpy's default error state: carry the caller's into every fill.
    errstate = {**np.geterr(), "divide": "ignore", "invalid": "ignore"}
    if outside is None:
        outside = M <= zero_tol
    if outside.any():
        denom, fold = np.where(outside, M.dtype.type(0), M), np.fmin
    else:
        denom, fold = M, np.minimum
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


def _pair_distances(a: np.ndarray, b: np.ndarray, m: np.ndarray | None = None, d: np.ndarray | None = None) -> np.ndarray:
    """Bounded-metric distances ``phi(min(a * b, 1))`` of aleph pairs, elementwise, into the optional buffers ``m`` and ``d``."""
    m = np.multiply(a, b, out=m)
    np.minimum(m, 1.0, out=m)
    d = np.subtract(1.0, m, out=d)
    np.add(1.0, m, out=m)
    return np.divide(d, m, out=d)


def _max_pair_distance(al: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest distance ``_pair_distances(al[i, j], al[j, i])`` over pairs ``i < j``, and its first pair.

    One row of pairs at a time, through two length-n buffers.  The strict
    comparison across rows and ``argmax`` within a row keep the
    lexicographically smallest attaining pair.  A NaN distance (an
    ``inf * 0`` product at the ends of the double range) wins at its first
    occurrence, as a NaN does under ``argmax``.
    """
    n = al.shape[0]
    m_buf = np.empty(n - 1)
    d_buf = np.empty(n - 1)
    best, witness = -1.0, (0, 1)
    for i in range(n - 1):
        d = _pair_distances(al[i, i + 1:], al[i + 1:, i], m_buf[: n - 1 - i], d_buf[: n - 1 - i])
        k = int(np.argmax(d))
        v = float(d[k])
        if math.isnan(v):
            return v, (i, i + 1 + k)
        if v > best:
            best, witness = v, (i, i + 1 + k)
    return best, witness


def _screened_max_pair_distance(M: np.ndarray, outside: np.ndarray, workers: int | None) -> tuple[float, tuple[int, int]] | None:
    """``_max_pair_distance`` of the float64 aleph table, bit for bit, via float32; None where it does not apply.

    It applies when every support entry is positive and ``max(M) / min(M[M >
    0]) < 2**60``: then ``M`` scaled to a largest entry in [1/2, 1) has every
    nonzero entry and quotient float32-normal, and no float64 quotient or
    product overflows or underflows.  A float32 quotient is within a factor
    ``1 +- (3 * 2**-24 + O(2**-48))`` of the exact one, a minimum keeps such
    bounds, and so each float64 aleph, the rounded exact one, lies between
    the exact ``al32 * (1 -+ 2**-21)``.  Rounding is monotone, so their
    ``_pair_distances`` bound each float64 distance above and below, and a
    pair attaining the maximum has an upper distance at or above every lower
    one.  These candidates are recomputed with the scan's divisions and
    ``fmin`` fold, the first largest in row-major order winning; more than
    ``n`` of them (ties) give None.
    """
    n, top, tiny = M.shape[1], float(M.max()), float(M.min(initial=np.inf, where=M > 0.0))
    if not (float(M.min(initial=np.inf, where=~outside)) > 0.0 and top / tiny < 2.0**60):
        return None
    al = _aleph_columns(np.ldexp(M, -math.frexp(top)[1]).astype(np.float32), 0.0, workers, outside)

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
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, d.size, _SCAN_BLOCK_ROWS):
            i, j = rows[s:s + _SCAN_BLOCK_ROWS], cols[s:s + _SCAN_BLOCK_ROWS]
            al_ij = np.fmin.reduce(M[:, j] / np.where(outside[:, i], 0.0, M[:, i]), axis=0)
            al_ji = np.fmin.reduce(M[:, i] / np.where(outside[:, j], 0.0, M[:, j]), axis=0)
            d[s:s + _SCAN_BLOCK_ROWS] = _pair_distances(al_ij, al_ji)
    k = int(np.argmax(d))
    return float(d[k]), (rows[k], cols[k])


def _unit_distance_witness(M: np.ndarray, outside: np.ndarray) -> tuple[int, int] | None:
    """First pair ``(0, j)`` at distance exactly 1.0, which settles ``c(M) = 1``, in O(d^2); else None.

    ``outside`` is the mask ``M <= zero_tol`` of the cone-preserving ``M``.
    When ``max(M) / min(M[~outside])`` is finite and positive, no quotient
    of the scan overflows and no distance is NaN, so the metric's bound
    1.0, once reached in row 0 of the pair table, is the maximum.  Row 0 is
    computed with the scan's divisions, ``fmin`` fold and distance formula,
    so the witness is the scan's.
    """
    lo = float(M.min(initial=np.inf, where=~outside))
    if not (lo > 0.0 and math.isfinite(float(M.max()) / lo)):
        return None
    denom = np.where(outside, 0.0, M) if outside.any() else M
    with np.errstate(divide="ignore", invalid="ignore"):
        al_0j = np.fmin.reduce(M[:, 1:] / denom[:, :1], axis=0)
        al_j0 = np.fmin.reduce(M[:, :1] / denom[:, 1:], axis=0)
    hits = np.flatnonzero(_pair_distances(al_0j, al_j0) == 1.0)
    return (0, 1 + int(hits[0])) if hits.size else None


def contraction_coeff(M, zero_tol: float = 0.0, workers: int | None = None) -> ContractionReport:
    """Contraction coefficient ``c(M)``: the best Lipschitz constant on rays.

    Computed definitionally as the maximum bounded-metric distance between
    column rays, scanning all column pairs in O(d^3) (see
    :func:`_aleph_columns`), then reducing the pairs row by row in O(d)
    extra memory.  The witness is the lexicographically smallest attaining
    pair.  When row 0 of the pair table already reaches the bound 1.0 and
    no quotient overflows (see :func:`_unit_distance_witness`), the scan is
    skipped and the same ``c`` and witness come from 2 d^2 divisions.  From
    d = 512 on, :func:`_screened_max_pair_distance` screens pairs in float32.

    ``workers`` fans the scan over that many threads.  With ``None`` the
    scan uses every CPU the process may run on (its affinity set) from
    d = 512 on, and one thread below.  The result (including the witness)
    is bitwise identical for every ``workers``.

    For a 1x1 matrix there is a single ray, so ``c = 0``.
    """
    M = as_nonneg_matrix(M)
    _check_cone_preserving(M, zero_tol)
    n = M.shape[1]
    if n == 1:
        return ContractionReport(c=0.0, is_strict=True, a_star=1.0, witness=(0, 0), method="definitional")
    outside = M <= zero_tol
    witness = _unit_distance_witness(M, outside)
    if witness is not None:
        return ContractionReport(c=1.0, is_strict=False, a_star=None, witness=witness, method="definitional")
    large = n >= _LARGE_SCAN_MIN_DIM
    if workers is None and large:
        workers = _usable_cpus()
    screened = _screened_max_pair_distance(M, outside, workers) if large else None
    c, witness = screened or _max_pair_distance(_aleph_columns(M, zero_tol, workers, outside))
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
    :func:`contraction_coeff` instead.
    """
    M = as_nonneg_matrix(M)
    if np.any(M <= zero_tol):
        raise ValueError("closed-form coefficient requires strictly positive entries; use contraction_coeff")
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
    return _first_pattern_offender(as_nonneg_matrix(M), zero_tol) is None


def is_strictly_contracting(M, zero_tol: float = 0.0) -> bool:
    """Pattern test for ``c(M) < 1``, assuming ``M`` preserves the cone.

    Under the column action, every zero entry must lie in an all-zero row.
    (Cone preservation rules out all-zero columns, so this coincides with
    :func:`is_uniformly_positive` on its domain.)
    """
    M = as_nonneg_matrix(M)
    _check_cone_preserving(M, zero_tol)
    return _first_pattern_offender(M, zero_tol) is None


def _sandwich_constant(V: np.ndarray, h: np.ndarray, b: np.ndarray, zero_tol: float) -> float:
    """Smallest ``A`` with ``h[k] * b[j] / A <= V[k, j] <= A * h[k] * b[j]`` wherever ``V > zero_tol`` (Birkhoff)."""
    pos = V > zero_tol
    r = V[pos] / np.outer(h, b)[pos]
    return float(max(r.max(), (1.0 / r).max()))


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
    prod = np.outer(h, b)
    slack = rtol * float(M.max())
    lower_ok = np.all(prod / cert.A <= M + slack)
    upper_ok = np.all(M <= cert.A * prod + slack)
    return bool(lower_ok and upper_ok)


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
    """
    M = as_nonneg_matrix(M)
    _check_cone_preserving(M, zero_tol)
    if _first_pattern_offender(M, zero_tol) is not None:
        raise ValueError("matrix is not uniformly positive: some zero entry lies in a nonzero row and a nonzero column")
    i0, j0 = _first_argmax(M)
    h = M[:, j0].copy()
    b = M[i0, :].copy()
    A = _sandwich_constant(M, h, b, zero_tol)
    cert = UniformPositivityCertificate(h=h, b=b, A=A, reference_row=i0, reference_col=j0)
    if not certificate_is_valid(M, cert, zero_tol=zero_tol):
        raise ArithmeticError("constructed certificate failed validation; this should be unreachable")
    return cert


def a_star(M, zero_tol: float = 0.0) -> float:
    """Optimal sandwich constant, ``psi_inverse(c(M))``.

    Defined only for strictly contracting matrices; raises when ``c = 1``
    (no finite constant exists).
    """
    report = contraction_coeff(M, zero_tol)
    if not report.is_strict:
        raise ValueError("matrix is not strictly contracting (c = 1); no finite sandwich constant exists")
    return report.a_star
