"""Projective geometry of the nonnegative cone.

Bounded and classical Hilbert-type metrics on rays, contraction
coefficients of nonnegative matrices and discretized positive kernels,
uniform-positivity and factorization certificates, and projective power
iteration with certified error bounds.
"""

from . import cone, kernels, matrices, perron
from .cone import *
from .kernels import *
from .kernels import BUILTIN_KERNELS
from .matrices import *
from .perron import *

__version__ = "0.1.0"

__all__ = sorted([*cone.__all__, *kernels.__all__, *matrices.__all__, *perron.__all__, "BUILTIN_KERNELS"])
