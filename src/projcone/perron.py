"""Projective power iteration with contraction-certified error bounds.

Repeatedly applying a cone-preserving matrix and renormalizing drives the
iterate toward the Perron ray when the matrix contracts strictly
(``c(M) < 1``).  The bounded projective metric is used as the stopping
criterion because it stays finite even when iterates touch the cone
boundary.  The error bound is Birkhoff's, from one pivot column ``h`` of
``M`` (the column of its largest entry) in O(n^2): with

    ``m = min_j aleph(h, M e_j) * aleph(M e_j, h)``,

every image lies in ``{z : s h <= z <= s h / m}``, a set of Hilbert
diameter at most ``2 log(1/m)``, so ``M`` contracts Hilbert's metric ``d_H`` by
``tau <= (1 - m) / (1 + m)``.  With ``K = tau / (1 - tau) = (1/m - 1) / 2``, ``v`` the last iterate before ``p``, and
``eps_H`` a bound on ``d_H`` from ``p`` to the exact ray of ``M v`` (the last image's rounding),

    ``d_H(p, p*) <= K d_H(v, p) + (1 + K) eps_H``, reported as ``d(p, p*) <= tanh`` of half of it.

Without ``eps_H`` this is ``tanh(K * atanh(step))``, which a step at rounding level, or of exactly 0, would
certify as near 0 however far the rounding left ``p`` from the ray.  ``m`` is at least ``c(M)``'s smallest pair
product, so ``K <= c / (1 - c)``.  For ``K >= 1``, ``tanh(K u) <= K tanh(u)``, so the step's share is at most
``c / (1 - c) * step``; for ``K < 1`` the inequality turns, and on a large step the bound can exceed
``c / (1 - c) * step`` (about 0.290 against 0.221 for ``[[1, 0.8], [0.8, 1]]`` from ``[1, 0.1]`` after one step).

Eigenvalue estimates come from the extreme coordinate ratios
``(M p) / p``, which bracket the Perron eigenvalue at every iterate.
A step is ``M.dot``, ``argmax`` and an in-place division, into a row of a C-ordered buffer (on a C-ordered ``M``,
``dot`` gives ``matmul``'s bits at half its dispatch cost).  Steps are tested in batches, two steps, then as many as
the rate needs, which changes no output.  An image is checked for refusal only where ``2 n max(M)`` overflows, the one
case where it can be refused; there a batch's largest entries are scanned after it.  Where the rate predicts a long
run, the loop jumps instead: it applies ``M^k`` by binary powering, ``floor(log2 k)`` n x n products in place of ``k``
steps, and then steps on, so the reported iterate, step and bound always come from plain steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import _aleph, _cone_vector, _support
from .matrices import _check_cone_preserving, _contraction, _listed_pair_products, _pivot, as_nonneg_matrix

__all__ = [
    "PerronResult",
    "collatz_wielandt",
    "perron_iterate",
    "product_contraction_bound",
]

_MAX_BATCH = 128  # most Perron steps between two convergence tests


@dataclass(frozen=True)
class PerronResult:
    """Outcome of projective power iteration.

    ``eigenvector`` is the canonical (sup-norm 1) representative of the last
    iterate, which is ``M^iterations f0`` up to rounding: a jump of ``k``
    powers counts as ``k`` iterations.  ``error_bound`` is the certified
    bounded-metric distance from it to the true fixed ray, from the pivot
    constant of the module docstring and the rounding term ``eps_H`` of
    the last step, rounded upward.  It is absent where the pivot ``m``
    rounds to 0 (as it does whenever ``c = 1``) or ``tau = (1 - m)/(1 + m)``
    rounds to 1, where the last step is 1, and where the bound is not
    below 1, which includes an infinite ``eps_H`` (the last image lost an
    entry to underflow, or its relative error can reach 1);
    ``no_bound_reason`` then says so, in one text for all these cases.
    """

    eigenvector: np.ndarray
    eigenvalue_lower: float
    eigenvalue_upper: float
    iterations: int
    final_step_distance: float
    error_bound: float | None
    converged: bool
    no_bound_reason: str | None = None


def _refusal(top: float, zero_tol: float) -> ValueError:
    """:func:`as_cone_vector`'s refusal of an image whose largest entry is ``top``, NaN if one is, where ``top`` is not in ``(zero_tol, inf)``."""
    return ValueError("cone vector entries must be finite" if not top < math.inf else "cone vector must have at least one positive entry")


def _image(M: np.ndarray, p: np.ndarray, zero_tol: float) -> np.ndarray:
    """``M @ p``, refused as :func:`as_cone_vector` refuses it: its largest entry (the first, by ``argmax``) alone decides."""
    q = M.dot(p)
    top = q[q.argmax()]
    if not zero_tol < top < math.inf:
        raise _refusal(top, zero_tol)
    return q


def _up(x: float) -> float:
    """``x`` moved one ulp toward ``inf``."""
    return math.nextafter(x, math.inf)


def _pivot_constant(Z: np.ndarray) -> float:
    """Birkhoff's ``K = (1/m - 1) / 2`` of the pivot column, rounded upward; ``inf``, no bound, where ``m`` is 0 or ``tau`` rounds to 1.

    ``m`` is the smallest ``b[j] * a[j]`` of :func:`projcone.matrices._pivot`, so ``K`` is ``(A - 1) / 2`` of the
    certificate's ``A``, rounded outward.  Each aleph, their product and the fold move one ulp toward 0, so ``m`` is at
    most its exact value: an ``a[j] = aleph(Z e_j, h)`` that overflows (a column below ``h`` by the whole double range)
    becomes the largest double, and no product is ``inf * 0`` or NaN.  Column ``h`` itself gives at most 1, as ``b`` is
    at most 1 (``h`` holds ``max(Z)``), so no clamp is needed.  Under the caller's errstate, as ``_pivot`` requires.

    Where ``tau = (1 - m) / (1 + m)`` rounds to 1 (``m`` below about ``2**-54``, ``K`` above about ``2**53``), a float
    step can stall far from the ray: on ``[[1, 1e-20], [2e-20, 1]]``, ``M @ [1, 1]`` rounds to ``[1, 1]``, a step of 0,
    while the Perron vector is near ``[0.707, 1]``.  Such a ``K`` times the step's rounding floor is not below 1, so it
    certifies nothing.  Below that cut the last step's rounding enters the bound as :func:`_error_bound`'s ``eps_H``.
    """
    _, _, b, a = _pivot(Z)
    products = np.nextafter(b, 0.0) * np.nextafter(a, 0.0)
    m = math.nextafter(float(np.minimum.reduce(products)), 0.0)
    return _up((_up(1.0 / m) - 1.0) / 2.0) if m > 0.0 and (1.0 - m) / (1.0 + m) < 1.0 else math.inf


def _power(M: np.ndarray, p: np.ndarray, k: int) -> np.ndarray | None:
    """``M^k p`` scaled to a largest entry of 1, by binary powering of ``P = M / max(M)``; None where an image underflows to 0.

    For each set bit of ``k``, lowest first, the current power is applied and the image normalized; between bits the
    power is squared and rescaled to a largest entry of 1, so one n x n power is held at a time and no entry exceeds
    ``n``.  ``floor(log2 k)`` squarings replace ``k`` steps.  ``M`` must be C-ordered, as :func:`perron_iterate`'s zeroed
    copy is, so that ``P`` and its squares are too and one matrix gives one result's bits.
    """
    P = M / M.max()
    while True:
        if k & 1:
            q = P.dot(p)
            top = q.max()
            if not top > 0.0:
                return None
            p = q / top
        k >>= 1
        if not k:
            return p
        P = P @ P
        P /= P.max()


def _error_bound(K: float, M: np.ndarray, v: np.ndarray, p: np.ndarray, top: float) -> float | None:
    """Upper bound on ``d(p, p*)`` for the computed step ``p = fl(fl(M v) / top)``, ``top`` the image's largest entry; None
    where it is not below 1.  Under the caller's errstate.

    With ``T`` the exact projective map, ``d_H(p, p*) <= d_H(p, T v) + tau d_H(v, p*)``, and the triangle inequality on
    ``d_H(v, p*)`` gives ``d_H(p, p*) <= K d_H(v, p) + (1 + K) eps_H``, returned as ``tanh`` of its half.  ``d_H(v, p)``
    is ``-log`` of the alephs' product, each rounded toward 0 as in :func:`_pivot_constant`.  ``eps_H`` bounds
    ``d_H(p, T v)``: a nonnegative dot product of length ``n`` is within ``gamma_n`` of its exact value, relatively,
    plus ``n 2**-1075`` for products that underflow, and the division by ``top`` adds ``2**-53`` and ``2**-1075``, so
    every entry of ``p`` on its support is within ``e = gamma_{n+1} + (1 + n / top) 2**-1074 / min(p)`` of its exact
    ray's, relatively, and ``eps_H = log((1 + e) / (1 - e))``.  No bound where ``e >= 1``, or where an entry of ``p``
    is 0 while its exact image is not (the ray moved off a face); that check alone is O(n^2), where ``p`` has a zero.
    Every term is rounded upward; ``log``, ``log1p`` and ``tanh`` take two ulps.
    """
    n = p.size
    m = math.nextafter(math.nextafter(float(_aleph(v, p)), 0.0) * math.nextafter(float(_aleph(p, v)), 0.0), 0.0)
    support = p > 0.0
    if K == math.inf or not m > 0.0 or (not support.all() and (M.dot(v > 0.0) > 0.0)[~support].any()):
        return None
    gamma = _up((n + 1) * 2.0 ** -53 / (1.0 - (n + 1) * 2.0 ** -53))
    e = _up(gamma + _up(_up(_up(n * _up(2.0 ** -1074 / top)) + 2.0 ** -1074) / float(p[support].min())))  # no n / top to overflow
    if not e < 1.0:
        return None
    eps = _up(_up(math.log1p(_up(2.0 * e / math.nextafter(1.0 - e, 0.0)))))
    x = _up(_up(K * _up(_up(-math.log(m)))) + _up(_up(1.0 + K) * eps))
    bound = _up(_up(math.tanh(_up(x / 2.0))))
    return bound if bound < 1.0 else None


def _eigenvalue_bracket(M: np.ndarray, p: np.ndarray, zero_tol: float) -> tuple[float, float]:
    """Extreme ratios (Mp)/p over the support of ``p``, as computed, tolerant of boundary zeros; ``M @ p`` may overflow or vanish, so it is checked.

    ``M`` and ``p`` hold no ``-0.0``.  Where ``1/aleph(Mp, p)`` overflows or rounds below the lower end, the upper end is
    the largest ratio itself, and both ends move one ulp outward.  Under the caller's errstate, which must ignore
    overflow, division by zero and 0/0: an overflowed ratio puts the ends out of order, which the guard mends.
    """
    Mp = _image(M, p, zero_tol)
    lower = float(_aleph(p, Mp))
    a = float(_aleph(Mp, p))
    upper = math.inf if a == 0.0 else 1.0 / a
    if not (lower <= upper):  # a > 0, so p is positive where Mp is, and fmax passes over the 0/0 elsewhere
        upper = float(np.fmax.reduce(Mp / p))
        lower, upper = float(np.nextafter(lower, 0.0)), float(np.nextafter(upper, math.inf))
    return lower, upper


def collatz_wielandt(M, f, zero_tol: float = 0.0) -> tuple[float, float]:
    """Eigenvalue bracket from the coordinate ratios ``(M f) / f``.

    For strictly positive ``f`` the minimum and maximum ratios enclose the
    Perron eigenvalue; the bracket tightens along power iteration when the
    matrix contracts strictly.  ``f`` must be strictly positive so that all
    ratios are defined, and every coordinate counts, at or below
    ``zero_tol`` too; the upper bound is ``inf`` only if ``M f`` has a
    zero entry.  An entry of ``M`` at or below ``zero_tol`` is a zero.
    """
    M = as_nonneg_matrix(M)
    f, _ = _cone_vector(f, zero_tol)
    if f.size != M.shape[1]:
        raise ValueError(f"dimension mismatch: matrix is {M.shape[0]}x{M.shape[1]}, vector has {f.size} entries")
    if (f <= 0.0).any():
        raise ValueError("collatz_wielandt requires a strictly positive vector")
    _check_cone_preserving(pos := _support(M, zero_tol))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _eigenvalue_bracket(np.where(pos, M, 0.0), f, zero_tol)


def perron_iterate(
    M,
    f0=None,
    tol: float = 1e-12,
    max_iter: int = 10000,
    zero_tol: float = 0.0,
) -> PerronResult:
    """Iterate ``p -> normalize(M @ p)`` until successive rays are within ``tol``.

    Parameters
    ----------
    M : array_like
        Cone-preserving nonnegative square matrix.
    f0 : array_like, optional
        Starting cone vector; defaults to the all-ones vector, which is
        strictly positive so the eigenvalue bracket is informative from the
        start.
    tol : float
        Stop when the bounded projective distance between successive
        iterates drops to this value.
    max_iter : int
        Iteration budget; hitting it is reported (``converged=False``), not
        an error, since matrices with ``c = 1`` may legitimately never
        settle.
    zero_tol : float
        Entries of ``M`` and ``f0`` at or below it are zeros: the iteration,
        the error bound and the bracket are those of the matrix and start vector
        with these entries set to 0.  The iterates are read as computed,
        with no threshold.  Must be below 1: every iterate is scaled to a
        largest entry of 1, and ``perron_iterate`` refuses an image whose
        largest entry is at or below ``zero_tol``.

    Steps are tested in batches: two steps, then as many as the rate of the
    last two steps needs to reach ``tol``, rounded down and clipped to [1, 128].
    A batch may step past its converging step when the rate quickens within
    it.  Where that rate is below 1 and its prediction ``size`` exceeds
    ``n * size.bit_length()``, so that ``floor(log2 size)`` n x n products
    cost less than ``size`` steps, the loop jumps ``min(size, max_iter -
    iterations - 1)`` powers of ``M`` instead, and then tests two steps,
    then as many as the rate needs again; a jump may pass the converging
    step too.  Refusals are checked only where ``2 n max(M)`` overflows, as
    no image can be refused elsewhere: there the batch's largest entries are
    scanned after it, and no jump is taken, so every refusal is raised
    where testing each step raises it; runs with no jump give the outputs
    of testing each step.
    """
    M = as_nonneg_matrix(M)
    _check_cone_preserving(pos := _support(M, zero_tol))
    if zero_tol >= 1.0:
        raise ValueError(f"perron_iterate requires zero_tol < 1, got {zero_tol}: each iterate has largest entry 1, which it would count as zero")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n = M.shape[1]
    _, p = _cone_vector(np.ones(n) if f0 is None else f0, zero_tol)
    p /= p.max()
    if p.size != n:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, start vector has {p.size} entries")

    M = M if pos.all() else np.where(pos, M, 0.0)  # the matrix the bound is of; no -0.0 reaches an iterate
    # Validated once above, a step's image never vanishes (p has an entry 1, each column of M one above zero_tol) and is
    # at most n max(M) (1 + gamma_{n-1}) < 2 n max(M), so where that is finite no image is refused.  Elsewhere the
    # batch's tops are scanned after it, and its first refused image ends it there.  An overflowed quotient is never an
    # aleph's minimum, which is at most 1.  A batch's iterates are the rows of V; its steps are measured after it, and
    # the first within tol ends the loop.
    V = np.empty((min(max_iter, _MAX_BATCH) + 1, n))
    V[0] = p
    tops = [math.nan] * V.shape[0]  # the images' largest entries
    iterations, size = 0, min(2, max_iter)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        K = _pivot_constant(M)
        safe = 2.0 * n * float(M.max()) < math.inf  # no image is refused, and the loop may jump
        while True:
            q = V[0]
            for k in range(1, size + 1):
                q = M.dot(q, V[k])
                tops[k] = top = q[q.argmax()]
                q /= top
            if not safe:  # the refused image is no iterate
                k = next((j - 1 for j in range(1, size + 1) if not zero_tol < tops[j] < math.inf), size)
            m = _listed_pair_products(V[: k + 1].T, slice(None, -1), slice(1, None))
            steps = (1.0 - m) / (1.0 + m)
            hits = (steps <= tol).nonzero()[0]
            if not hits.size and k < size:
                raise _refusal(tops[k + 1], zero_tol)  # where the step by step loop raises: no earlier step converged
            k = int(hits[0]) + 1 if hits.size else k
            iterations += k
            step, prev = float(steps[k - 1]), float(steps[k - 2]) if k > 1 else math.nan
            if hits.size or iterations == max_iter:
                break
            V[0] = V[k]
            rate = step / prev if prev > 0.0 else math.nan
            size = 1 if not rate > 0.0 else _MAX_BATCH if rate >= 1.0 else math.floor(math.log(tol / step) / math.log(rate))
            if safe and rate < 1.0 and size > n * size.bit_length() and (jump := min(size, max_iter - iterations - 1)):
                if (w := _power(M, V[0], jump)) is not None:
                    V[0], iterations, size = w, iterations + jump, 2  # the next rate needs two steps
            size = min(max(size, 1), _MAX_BATCH, max_iter - iterations)
        p = V[k].copy()
        bound = _error_bound(K, M, V[k - 1], p, float(tops[k]))
        lower, upper = _eigenvalue_bracket(M, p, zero_tol)
    return PerronResult(eigenvector=p, eigenvalue_lower=lower, eigenvalue_upper=upper, iterations=iterations, final_step_distance=step,
                        error_bound=bound, converged=step <= tol,
                        no_bound_reason=None if bound is not None else
                        "no error bound: the pivot constant certifies no contraction (m = 0, as where c = 1, or tau rounds to 1), "
                        "the last step is 1, or the bound is not below 1")


def product_contraction_bound(Ms, zero_tol: float = 0.0) -> float:
    """Product of the factors' contraction coefficients.

    Upper-bounds the coefficient of the matrix product (in any order), since
    each factor is ``c``-Lipschitz on rays.  A single rank-one factor
    (``c = 0``) collapses the whole bound to zero.
    """
    mats = [as_nonneg_matrix(M) for M in Ms]
    if not mats:
        raise ValueError("product_contraction_bound needs at least one matrix")
    n = mats[0].shape[1]
    bound = 1.0
    for M in mats:
        if M.shape[1] != n:
            raise ValueError(f"dimension mismatch between factors: {M.shape[1]} vs {n}")
        bound *= _contraction(M, _support(M, zero_tol)).c
    return bound
