"""Projective power iteration with contraction-certified error bounds.

Repeatedly applying a cone-preserving matrix and renormalizing drives the
iterate toward the Perron ray when the matrix contracts strictly
(``c(M) < 1``), at geometric rate ``c``.  The bounded projective metric is
used as the stopping criterion because it stays finite even when iterates
touch the cone boundary.  A Banach-style a-posteriori bound converts the
last step length into a certified distance to the fixed ray:

    ``d(p_final, p*) <= c / (1 - c) * d(p_prev, p_final)``

Eigenvalue estimates come from the extreme coordinate ratios
``(M p) / p``, which bracket the Perron eigenvalue at every iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import _aleph, _support, as_cone_vector, normalize, phi
from .matrices import _check_cone_preserving, as_nonneg_matrix, contraction_coeff

__all__ = [
    "PerronResult",
    "collatz_wielandt",
    "perron_iterate",
    "product_contraction_bound",
]

_CONTRACTION_DIM_LIMIT = 512  # above this dimension perron_iterate skips the O(d^3) c(M) and reports no error bound


@dataclass(frozen=True)
class PerronResult:
    """Outcome of projective power iteration.

    ``eigenvector`` is the canonical (sup-norm 1) representative of the last
    iterate.  ``error_bound`` is the certified bounded-metric distance from
    it to the true fixed ray; present exactly when a contraction coefficient
    ``c < 1`` was computed.  Otherwise ``no_bound_reason`` says why it is
    absent: ``c = 1``, or a dimension above 512, where ``c`` is not computed.
    """

    eigenvector: np.ndarray
    eigenvalue_lower: float
    eigenvalue_upper: float
    iterations: int
    final_step_distance: float
    error_bound: float | None
    converged: bool
    no_bound_reason: str | None = None


def _eigenvalue_bracket(M: np.ndarray, p: np.ndarray, zero_tol: float) -> tuple[float, float]:
    """Extreme ratios (Mp)/p for a validated ``p``, tolerant of boundary zeros; ``M @ p`` may overflow or vanish, so it is validated.

    Where ``1/aleph(Mp, p)`` overflows or rounds below the lower end, the upper end is the largest ratio itself, and
    both ends move one ulp outward.
    """
    Mp = as_cone_vector(M @ p, zero_tol)
    with np.errstate(over="ignore"):  # an overflowed ratio puts the ends out of order, which the guard mends
        lower = _aleph(p, Mp, zero_tol)
        a = _aleph(Mp, p, zero_tol)
        upper = math.inf if a == 0.0 else 1.0 / a
        if not (lower <= upper):
            support = _support(Mp, zero_tol)  # a > 0, so p is positive here
            upper = float((Mp[support] / p[support]).max())
            lower, upper = float(np.nextafter(lower, 0.0)), float(np.nextafter(upper, math.inf))
    return lower, upper


def collatz_wielandt(M, f, zero_tol: float = 0.0) -> tuple[float, float]:
    """Eigenvalue bracket from the coordinate ratios ``(M f) / f``.

    For strictly positive ``f`` the minimum and maximum ratios enclose the
    Perron eigenvalue; the bracket tightens along power iteration when the
    matrix contracts strictly.  ``f`` must be strictly positive so that all
    ratios are defined; the upper bound is ``inf`` only if ``M f`` has a
    zero entry.
    """
    M = as_nonneg_matrix(M)
    f = as_cone_vector(f, zero_tol)
    if f.size != M.shape[1]:
        raise ValueError(f"dimension mismatch: matrix is {M.shape[0]}x{M.shape[1]}, vector has {f.size} entries")
    if np.any(f <= 0.0):
        raise ValueError("collatz_wielandt requires a strictly positive vector")
    _check_cone_preserving(_support(M, zero_tol))
    return _eigenvalue_bracket(M, f, zero_tol)


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
        Must be below 1: every iterate is scaled to a largest entry of 1,
        and a larger ``zero_tol`` would count all of it as zero.
    """
    M = as_nonneg_matrix(M)
    _check_cone_preserving(_support(M, zero_tol))
    if zero_tol >= 1.0:
        raise ValueError(f"perron_iterate requires zero_tol < 1, got {zero_tol}: each iterate has largest entry 1, which it would count as zero")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n = M.shape[1]
    if f0 is None:
        f0 = np.ones(n)
    p = normalize(f0, zero_tol)
    if p.size != n:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, start vector has {p.size} entries")

    if n > _CONTRACTION_DIM_LIMIT:
        c, no_bound_reason = None, f"contraction coefficient skipped for dimension > {_CONTRACTION_DIM_LIMIT}; error bound unavailable"
    else:
        c = contraction_coeff(M, zero_tol).c
        no_bound_reason = None if c < 1.0 else "no contraction certificate (c = 1); error bound unavailable"
    # p and q have largest entry 1 > zero_tol, so each aleph is at most 1 and an overflowed quotient is never its
    # minimum; normalize refuses an overflowed image
    with np.errstate(over="ignore"):
        for iterations in range(1, max_iter + 1):
            # pseudo_distance(p, q) on vectors already validated (q by normalize: M @ p can overflow or vanish)
            q = normalize(M @ p, zero_tol)
            step = phi(min(_aleph(p, q, zero_tol) * _aleph(q, p, zero_tol), 1.0))
            p = q
            if step <= tol:
                break
    converged = step <= tol

    lower, upper = _eigenvalue_bracket(M, p, zero_tol)
    error_bound = None if no_bound_reason else c / (1.0 - c) * step
    return PerronResult(
        eigenvector=p,
        eigenvalue_lower=lower,
        eigenvalue_upper=upper,
        iterations=iterations,
        final_step_distance=step,
        error_bound=error_bound,
        converged=converged,
        no_bound_reason=no_bound_reason,
    )


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
        bound *= contraction_coeff(M, zero_tol).c
    return bound
