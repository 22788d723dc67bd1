"""Quadrature discretization and factorization certificates for positive kernels.

An integral operator ``(Kf)(x) = integral K(x, y) f(y) dy`` on [0, 1] with a
nonnegative kernel acts on the cone of nonnegative functions.  Sampled on an
n-point quadrature grid it becomes the nonnegative matrix
``values[k, j] * weights[j]``, whose contraction coefficient estimates the
operator's.  The coefficient does not depend on the (positive) weights at
all: rescaling columns fixes every ray.

Strict contraction corresponds to Birkhoff's factorization sandwich

    ``g1(x) * g2(y) <= K(x, y) <= A * g1(x) * g2(y)``

which this module constructs around the column of the sampled values'
largest entry; it certifies ``c <= psi(A)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cone import _support, psi
from .matrices import ContractionReport, as_nonneg_matrix
from .matrices import _check_cone_preserving, _contraction, _first_dead_column, _first_pattern_offender, _sandwich, _sandwich_holds

__all__ = [
    "FactorizationCertificate",
    "KernelGrid",
    "KernelPatternError",
    "builtin_kernel",
    "discretize",
    "factorization_certificate",
    "factorization_is_valid",
    "kernel_contraction_estimate",
    "relate_certificate_to_coefficient",
    "tabulate_kernel",
    "uniform_grid",
]

BUILTIN_KERNELS = ("constant", "separable", "poly1xy", "gaussian")


class KernelPatternError(ValueError):
    """The sampled kernel's zero pattern admits no factorization certificate."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(
            "kernel not uniformly factorizable at this resolution: "
            f"value grid is zero at row {row}, column {col}, but neither that row nor that column vanishes"
        )


@dataclass(frozen=True)
class KernelGrid:
    """Samples ``values[k, j] = K(nodes[k], nodes[j])`` with quadrature weights.

    Nodes are strictly increasing points in [0, 1]; weights are positive and
    sum to 1 (up to the endpoint rule); every column of ``values`` must have
    a positive entry, the grid analogue of "for each y some x sees the
    kernel", so the discretized operator preserves the cone.
    """

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 1:
            raise ValueError("nodes must be a nonempty 1-d sequence")
        n = nodes.size
        if not np.all(np.isfinite(nodes)) or nodes[0] < 0.0 or nodes[-1] > 1.0:
            raise ValueError("nodes must be finite and lie in [0, 1]")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if weights.shape != (n,) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and match the number of nodes")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(float(weights.sum()) - 1.0) > 1e-6:
            raise ValueError(f"weights must sum to 1, got {float(weights.sum())}")
        if values.shape != (n, n) or not np.all(np.isfinite(values)):
            raise ValueError(f"values must be a finite {n}x{n} grid")
        if np.any(values < 0.0):
            raise ValueError("kernel values must be nonnegative")
        j = _first_dead_column(_support(values, 0.0))
        if j is not None:
            raise ValueError(f"column {j} of the value grid is identically zero")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.nodes.size


def uniform_grid(n: int, rule: str = "midpoint") -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a uniform quadrature rule on [0, 1].

    ``midpoint`` (default) uses cell centers ``(k + 1/2)/n`` with equal
    weights; ``trapezoid`` includes both endpoints with half weights at the
    ends.  Both rules have strictly positive weights, which the cone
    structure requires.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if rule == "midpoint":
        nodes = (np.arange(n) + 0.5) / n
        weights = np.full(n, 1.0 / n)
    elif rule == "trapezoid":
        if n < 2:
            raise ValueError("trapezoid rule needs at least 2 nodes")
        nodes = np.linspace(0.0, 1.0, n)
        h = 1.0 / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}; expected 'midpoint' or 'trapezoid'")
    return nodes, weights


def tabulate_kernel(kernel: Callable, n: int, rule: str = "midpoint") -> KernelGrid:
    """Sample a broadcasting kernel function on a uniform grid."""
    nodes, weights = uniform_grid(n, rule)
    values = np.asarray(kernel(nodes[:, None], nodes[None, :]), dtype=float)
    values = np.broadcast_to(values, (n, n)).copy()
    return KernelGrid(nodes=nodes, weights=weights, values=values)


def builtin_kernel(name: str, **params) -> Callable:
    """Named kernel families for quick experiments.

    - ``constant``: K = value (default 1.0)
    - ``separable``: K(x, y) = (1 + x) * exp(-y), an exactly factorizable kernel
    - ``poly1xy``: K(x, y) = 1 + x*y
    - ``gaussian``: K(x, y) = exp(-(x - y)**2 / sigma), sigma > 0 (default 1.0)
    """
    if name == "constant":
        value = float(params.pop("value", 1.0))
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"constant kernel needs a positive value, got {value}")
        fn = lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), value)
    elif name == "separable":
        fn = lambda x, y: (1.0 + x) * np.exp(-y)
    elif name == "poly1xy":
        fn = lambda x, y: 1.0 + x * y
    elif name == "gaussian":
        sigma = float(params.pop("sigma", 1.0))
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"gaussian kernel needs sigma > 0, got {sigma}")
        fn = lambda x, y: np.exp(-((x - y) ** 2) / sigma)
    else:
        raise ValueError(f"unknown builtin kernel {name!r}; expected one of {BUILTIN_KERNELS}")
    if params:
        raise ValueError(f"unexpected parameters for kernel {name!r}: {sorted(params)}")
    return fn


def discretize(grid: KernelGrid) -> np.ndarray:
    """Quadrature matrix of the integral operator: ``values[k, j] * weights[j]``.

    Column action approximates the integral:
    ``(M f)[k] = sum_j K(x_k, y_j) w_j f_j``.  Cone-preserving by the grid's
    column invariant.
    """
    if not isinstance(grid, KernelGrid):
        grid = KernelGrid(*grid)
    return grid.values * grid.weights[None, :]


@dataclass(frozen=True)
class FactorizationCertificate:
    """Grid functions ``g1``, ``g2`` and constant ``A`` sandwiching the kernel.

    ``g1[k] * g2[j] <= values[k, j] <= A * g1[k] * g2[j]`` at every grid
    point, which certifies ``c <= psi(A)``.
    """

    g1: np.ndarray
    g2: np.ndarray
    A: float
    reference_row: int
    reference_col: int


def factorization_is_valid(values, cert: FactorizationCertificate, rtol: float = 1e-9, zero_tol: float = 0.0) -> bool:
    """Check the factorization sandwich at every grid point; a value at or below ``zero_tol`` is a zero."""
    V = as_nonneg_matrix(values)
    if np.size(cert.g1) != V.shape[0] or np.size(cert.g2) != V.shape[1]:
        raise ValueError("certificate dimensions do not match the value grid")
    return _sandwich_holds(np.where(_support(V, zero_tol), V, 0.0), cert.g1, cert.g2, cert.A, rtol)


def factorization_certificate(grid: KernelGrid, zero_tol: float = 0.0) -> FactorizationCertificate:
    """Construct Birkhoff's factorization sandwich around the column of the grid maximum (:func:`projcone.matrices._pivot`).

    The reference point ``(k0, j0)`` is the grid maximum (ties broken in
    row-major order); ``g1`` is the column of values through ``j0``,
    ``g2[j]`` the largest multiple of ``g1`` below column ``j``, and ``A``
    the smallest constant closing the sandwich for this ``g1``.  A value
    at or below ``zero_tol`` is a zero, in the sandwich and in its check.

    A column with no value above ``zero_tol`` is a ``ValueError``.  The
    value grid's zeros must be confined to all-zero rows or columns;
    otherwise no finite ``A`` exists at this resolution and a
    :class:`KernelPatternError` identifies an offending grid point.
    ``ArithmeticError`` when the sandwich fails its check (``A = inf``).
    """
    pos = _support(grid.values, zero_tol)
    _check_cone_preserving(pos)
    offender = _first_pattern_offender(pos)
    if offender is not None:
        raise KernelPatternError(*offender)
    k0, j0, g1, g2, A = _sandwich(np.where(pos, grid.values, 0.0))
    return FactorizationCertificate(g1=g1, g2=g2, A=A, reference_row=k0, reference_col=j0)


def kernel_contraction_estimate(grid: KernelGrid, zero_tol: float = 0.0) -> ContractionReport:
    """Contraction coefficient of the discretized operator.

    Invariant under the quadrature weights at every ``zero_tol`` (scaling
    columns by positive numbers fixes every ray distance): the support is
    ``values > zero_tol``, less any product ``values * weights`` that underflows to 0.
    """
    V = discretize(grid)
    return _contraction(V, _support(grid.values, zero_tol) & _support(V, 0.0))


def relate_certificate_to_coefficient(grid: KernelGrid, zero_tol: float = 0.0) -> tuple[float, float]:
    """Pair ``(psi(A), c)`` for the grid certificate and grid coefficient.

    The certificate bounds ``c <= psi(A)``; ``ArithmeticError`` where ``c``
    exceeds it by more than 1e-10, the theorem's runtime guard.
    """
    cert = factorization_certificate(grid, zero_tol)
    report = kernel_contraction_estimate(grid, zero_tol)
    bound = psi(cert.A)
    if report.c > bound + 1e-10:
        raise ArithmeticError(f"grid coefficient {report.c} exceeds psi(A) = {bound}")
    return bound, report.c
