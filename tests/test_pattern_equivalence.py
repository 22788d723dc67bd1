"""Zero-pattern predicates and sandwich certificates against reference formulas.

The library computes the zero pattern, the cone check and the sandwich
constant once and shares them between matrices and kernels.  The reference
formulas below are separate per-function versions: the patterns by their
definitions, and both certificates by public ``aleph`` per column around
the first largest entry.  Every verdict, every offending grid point and
every certificate must agree with them bit for bit.
"""

import itertools
import math
import struct

import numpy as np
import pytest

from projcone import (
    FactorizationCertificate,
    KernelGrid,
    KernelPatternError,
    UniformPositivityCertificate,
    aleph,
    certificate_is_valid,
    contraction_coeff_formula,
    factorization_certificate,
    factorization_is_valid,
    is_strictly_contracting,
    is_uniformly_positive,
    uniform_grid,
    uniform_positivity_certificate,
)


def _ref_uniformly_positive(M, zt):
    pos = M > zt
    row_zero = ~pos.any(axis=1)
    col_zero = ~pos.any(axis=0)
    return bool(np.all(pos | row_zero[:, None] | col_zero[None, :]))


def _ref_strictly_contracting(M, zt):
    pos = M > zt
    row_zero = ~pos.any(axis=1)
    return bool(np.all(pos | row_zero[:, None]))


def _ref_dead_column(M, zt):
    dead = ~(M > zt).any(axis=0)
    return int(np.argmax(dead)) if dead.any() else None


def _ref_offender(V, zt):
    pos = V > zt
    row_zero = ~pos.any(axis=1)
    col_zero = ~pos.any(axis=0)
    bad = ~pos & ~row_zero[:, None] & ~col_zero[None, :]
    return tuple(int(v) for v in np.argwhere(bad)[0]) if bad.any() else None


def _ref_pivot(V):
    """Birkhoff's sandwich of the zeroed ``V`` by public ``aleph``, column by column around its first largest entry."""
    i0, j0 = (int(k) for k in np.unravel_index(int(np.argmax(V)), V.shape))
    h = V[:, j0].copy()
    b = np.array([aleph(h, V[:, j]) for j in range(V.shape[1])])
    products = [float(b[j]) * aleph(V[:, j], h) for j in range(V.shape[1])]
    A = 1.0 / min(products) if all(p > 0.0 for p in products) else math.inf
    return i0, j0, h, b, A


def _ref_uniform_certificate(M, zt):
    i0, j0, h, b, A = _ref_pivot(np.where(M > zt, M, 0.0))
    return UniformPositivityCertificate(h=h, b=b, A=A, reference_row=i0, reference_col=j0)


def _ref_factorization(V, zt):
    k0, j0, g1, g2, A = _ref_pivot(np.where(V > zt, V, 0.0))
    return FactorizationCertificate(g1=g1, g2=g2, A=A, reference_row=k0, reference_col=j0)


def _bits(cert):
    """Every field of a certificate: arrays and floats by their IEEE bits, ints as they are."""
    out = []
    for x in vars(cert).values():
        if isinstance(x, np.ndarray):
            out.append(x.tobytes())
        elif isinstance(x, float):
            out.append(struct.pack("<d", x))
        else:
            out.append(x)
    return out


def _corpus():
    rng = np.random.default_rng(71)
    for d in (1, 2, 3):
        for bits in itertools.product((0.0, 1.0), repeat=d * d):
            pattern = np.array(bits).reshape(d, d)
            for M in (pattern, pattern * rng.uniform(0.1, 3.0, size=(d, d))):
                for zt in (0.0, 0.5):
                    yield f"d={d} {bits} zt={zt}", M, zt
    for k in range(300):
        d = int(rng.integers(2, 10))
        M = 10.0 ** rng.uniform(-3.0, 1.0, size=(d, d))
        M[rng.random(d) < 0.3, :] = 0.0
        M[:, rng.random(d) < 0.2] = 0.0
        if k % 3 == 0:
            M[rng.random((d, d)) < 0.1] = 0.0
        if not M.any():
            M[0, 0] = 1.0
        for zt in (0.0, 0.01, 0.5):
            yield f"random {k} zt={zt}", M, zt


def test_zero_pattern_and_sandwich_match_reference_formulas():
    # Both certificates are of the matrix with its entries at or below zero_tol
    # set to 0, and so are their checks: a row whose positive entries all lie
    # at or below zero_tol is a zero row, and no certificate here fails.
    certified = factorized = unvalidated = 0
    for label, M, zt in _corpus():
        dead = _ref_dead_column(M, zt)
        assert is_uniformly_positive(M, zt) == _ref_uniformly_positive(M, zt), label
        if dead is None:
            assert is_strictly_contracting(M, zt) == _ref_strictly_contracting(M, zt), label
        else:
            with pytest.raises(ValueError, match="not cone-preserving") as info:
                is_strictly_contracting(M, zt)
            assert info.value.column == dead, label
        # the closed form refuses a dead column first, then names the first zero in row-major order
        if dead is not None:
            with pytest.raises(ValueError, match="not cone-preserving") as info:
                contraction_coeff_formula(M, zt)
            assert info.value.column == dead, label
        elif (M <= zt).any():
            with pytest.raises(ValueError, match="requires strictly positive entries") as info:
                contraction_coeff_formula(M, zt)
            assert info.value.entry == tuple(int(k) for k in np.argwhere(M <= zt)[0]), label
        else:
            assert 0.0 <= contraction_coeff_formula(M, zt) <= 1.0, label

        if dead is None and _ref_uniformly_positive(M, zt):
            ref = _ref_uniform_certificate(M, zt)
            if certificate_is_valid(M, ref, zero_tol=zt):
                assert _bits(uniform_positivity_certificate(M, zt)) == _bits(ref), label
                certified += 1
            else:
                with pytest.raises(ArithmeticError):
                    uniform_positivity_certificate(M, zt)
                unvalidated += 1
        else:
            with pytest.raises(ValueError) as info:
                uniform_positivity_certificate(M, zt)
            assert getattr(info.value, "column", None) == dead, label

        nodes, weights = uniform_grid(M.shape[0])
        dead_at_zero = _ref_dead_column(M, 0.0)
        if dead_at_zero is not None:
            with pytest.raises(ValueError, match=f"^column {dead_at_zero} of the value grid is identically zero$"):
                KernelGrid(nodes=nodes, weights=weights, values=M)
            continue
        grid = KernelGrid(nodes=nodes, weights=weights, values=M)
        offender = _ref_offender(M, zt)
        if dead is not None:  # cone preservation first, as for the matrix certificate
            with pytest.raises(ValueError, match=f"column {dead} has no positive entry") as info:
                factorization_certificate(grid, zt)
            assert info.value.column == dead, label
        elif offender is not None:
            with pytest.raises(KernelPatternError) as info:
                factorization_certificate(grid, zt)
            assert (info.value.row, info.value.col) == offender, label
        else:
            ref = _ref_factorization(M, zt)
            if factorization_is_valid(M, ref, zero_tol=zt):
                assert _bits(factorization_certificate(grid, zt)) == _bits(ref), label
                factorized += 1
            else:
                with pytest.raises(ArithmeticError):
                    factorization_certificate(grid, zt)
                unvalidated += 1
    assert certified > 100 and factorized > 100 and unvalidated == 0
