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

from .cone import aleph, as_cone_vector, normalize, pseudo_distance
from .matrices import _check_cone_preserving, as_nonneg_matrix, contraction_coeff, is_cone_preserving

__all__ = [
    "PerronResult",
    "collatz_wielandt",
    "perron_iterate",
    "product_contraction_bound",
]


@dataclass(frozen=True)
class PerronResult:
    """Outcome of projective power iteration.

    ``eigenvector`` is the canonical (sup-norm 1) representative of the last
    iterate.  ``error_bound`` is the certified bounded-metric distance from
    it to the true fixed ray; present exactly when a contraction coefficient
    ``c < 1`` was computed, absent otherwise (``c = 1``, or the dimension
    exceeded the coefficient budget).
    """

    eigenvector: np.ndarray
    eigenvalue_lower: float
    eigenvalue_upper: float
    iterations: int
    final_step_distance: float
    error_bound: float | None
    converged: bool


def _eigenvalue_bracket(M: np.ndarray, p: np.ndarray, zero_tol: float) -> tuple[float, float]:
    """Extreme ratios (Mp)/p via the cone functionals; tolerant of boundary zeros."""
    Mp = M @ p
    lower = aleph(p, Mp, zero_tol)
    a = aleph(Mp, p, zero_tol)
    upper = math.inf if a == 0.0 else 1.0 / a
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
    if not is_cone_preserving(M, zero_tol):
        raise ValueError("matrix is not cone-preserving")
    return _eigenvalue_bracket(M, f, zero_tol)


def perron_iterate(
    M,
    f0=None,
    tol: float = 1e-12,
    max_iter: int = 10000,
    zero_tol: float = 0.0,
    contraction_dim_limit: int = 512,
    workers: int | None = None,
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
    contraction_dim_limit : int
        ``c(M)`` costs O(d^3); above this dimension it is skipped and no
        error bound is attached.
    """
    M = as_nonneg_matrix(M)
    _check_cone_preserving(M, zero_tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n = M.shape[1]
    if f0 is None:
        f0 = np.ones(n)
    p = as_cone_vector(f0, zero_tol)
    if p.size != n:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, start vector has {p.size} entries")
    p = normalize(p, zero_tol)

    c = None
    if n <= contraction_dim_limit:
        c = contraction_coeff(M, zero_tol, workers=workers).c

    step = math.inf
    iterations = 0
    converged = False
    for _ in range(max_iter):
        q = normalize(M @ p, zero_tol)
        step = pseudo_distance(p, q, zero_tol)
        p = q
        iterations += 1
        if step <= tol:
            converged = True
            break

    lower, upper = _eigenvalue_bracket(M, p, zero_tol)
    error_bound = c / (1.0 - c) * step if c is not None and c < 1.0 else None
    return PerronResult(
        eigenvector=p,
        eigenvalue_lower=lower,
        eigenvalue_upper=upper,
        iterations=iterations,
        final_step_distance=step,
        error_bound=error_bound,
        converged=converged,
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
