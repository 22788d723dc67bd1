import math
import struct
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from projcone import (
    PerronResult,
    aleph,
    collatz_wielandt,
    contraction_coeff,
    normalize,
    perron_iterate,
    product_contraction_bound,
    pseudo_distance,
)

from _util import random_cone_preserving_matrix


def _iterate_rays(M, f0, count):
    """Manual recurrence p -> normalize(M p), returning all iterates."""
    p = normalize(np.asarray(f0, dtype=float))
    out = [p]
    for _ in range(count):
        p = normalize(M @ p)
        out.append(p)
    return out


def test_symmetric_2x2_converges_fast():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    res = perron_iterate(M, [1, 0], tol=1e-12, max_iter=30)
    assert res.converged and res.iterations <= 30
    assert np.max(np.abs(res.eigenvector - [1.0, 1.0])) <= 1e-10
    assert res.eigenvalue_lower <= 3.0 <= res.eigenvalue_upper
    assert res.eigenvalue_upper - res.eigenvalue_lower <= 1e-9
    assert res.error_bound is not None
    assert res.error_bound == pytest.approx(0.6 / 0.4 * res.final_step_distance)


def test_symmetric_2x2_step_ratio_below_coefficient():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    c = contraction_coeff(M).c
    iterates = _iterate_rays(M, [1, 0], 40)
    steps = [pseudo_distance(p, q) for p, q in zip(iterates, iterates[1:])]
    for s0, s1 in zip(steps, steps[1:]):
        if s0 > 0.0:
            assert s1 <= c * s0 + 1e-10
            assert s1 <= s0 + 1e-12  # monotone


def test_rank_one_converges_in_one_step():
    res = perron_iterate([[1, 1], [1, 1]], tol=1e-12, max_iter=10)
    assert res.converged and res.iterations == 1
    np.testing.assert_array_equal(res.eigenvector, [1.0, 1.0])
    assert res.eigenvalue_lower == res.eigenvalue_upper == 2.0


def test_rank_one_from_any_start():
    res = perron_iterate([[1, 1], [1, 1]], [5, 1], tol=1e-12, max_iter=10)
    assert res.converged
    np.testing.assert_array_equal(res.eigenvector, [1.0, 1.0])


def test_diagonal_gap_never_settles_projectively():
    # diag(2, 1) pushes every interior ray toward the boundary ray (1, 0),
    # but successive iterates (1, 2**-n) stay at constant bounded distance
    # 1/3 from each other, so the stopping rule is never met and c = 1
    # leaves no error bound.
    M = np.diag([2.0, 1.0])
    res = perron_iterate(M, [1, 1], tol=1e-12, max_iter=60)
    assert not res.converged and res.iterations == 60
    assert res.final_step_distance == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.error_bound is None
    assert not contraction_coeff(M).is_strict
    # coordinatewise the iterate is already essentially the boundary ray
    assert np.max(np.abs(res.eigenvector - [1.0, 0.0])) <= 1e-15
    assert res.eigenvalue_lower <= 2.0 <= res.eigenvalue_upper


def test_perron_input_validation():
    with pytest.raises(ValueError):
        perron_iterate([[1, 0], [1, 0]])  # not cone-preserving
    with pytest.raises(ValueError):
        perron_iterate([[2, 1], [1, 2]], tol=0.0)
    with pytest.raises(ValueError):
        perron_iterate([[2, 1], [1, 2]], max_iter=0)
    with pytest.raises(ValueError):
        perron_iterate([[2, 1], [1, 2]], [1, 2, 3])


@pytest.mark.parametrize("zero_tol", [1.0, 1.5])
@pytest.mark.parametrize("f0", [None, [5, 5], [1, 2, 3]], ids=["default-start", "5-5", "wrong-length"])
def test_zero_tol_of_one_or_more_is_refused_before_the_start_vector(zero_tol, f0):
    # each normalized iterate has largest entry 1, which such a zero_tol counts as zero
    with pytest.raises(ValueError, match=f"perron_iterate requires zero_tol < 1, got {zero_tol}"):
        perron_iterate([[2, 1], [1, 2]], f0, zero_tol=zero_tol)
    with pytest.raises(ValueError, match="not cone-preserving"):  # the matrix checks come first
        perron_iterate([[2, 0], [1, 0]], f0, zero_tol=zero_tol)


def test_error_bound_sound_against_known_fixed_rays():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a, b = rng.uniform(0.5, 5.0, size=2)
        cases = [
            (np.array([[a, b], [b, a]]), np.array([1.0, 1.0])),
            (np.array([[a, b, b], [b, a, b], [b, b, a]]), np.array([1.0, 1.0, 1.0])),
        ]
        for M, p_star in cases:
            c = contraction_coeff(M).c
            iterates = _iterate_rays(M, rng.uniform(0.1, 1.0, size=M.shape[0]), 25)
            for p, q in zip(iterates, iterates[1:]):
                step = pseudo_distance(p, q)
                assert pseudo_distance(q, p_star) <= c / (1.0 - c) * step + 1e-12


def test_residual_small_at_convergence():
    rng = np.random.default_rng(32)
    tol = 1e-12
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        M = rng.uniform(0.1, 5.0, size=(dim, dim))
        res = perron_iterate(M, tol=tol, max_iter=2000)
        assert res.converged
        p = res.eigenvector
        assert pseudo_distance(M @ p, p) <= tol
        lam = (res.eigenvalue_lower + res.eigenvalue_upper) / 2.0
        Mp = M @ p
        assert np.max(np.abs(Mp - lam * p)) <= 10.0 * tol * np.max(Mp)


def test_eigenvalue_bracket_shrinks_and_contains_truth():
    rng = np.random.default_rng(33)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        M = rng.uniform(0.1, 5.0, size=(dim, dim))
        lam_true = max(np.linalg.eigvals(M).real)
        iterates = _iterate_rays(M, np.ones(dim), 15)
        prev_lo, prev_hi = -math.inf, math.inf
        for p in iterates:
            lo, hi = collatz_wielandt(M, p)
            assert lo - 1e-10 <= lam_true <= hi + 1e-10
            assert lo >= prev_lo - 1e-10 and hi <= prev_hi + 1e-10
            prev_lo, prev_hi = lo, hi


def test_collatz_wielandt_examples():
    assert collatz_wielandt([[2, 1], [1, 2]], [1, 1]) == (3.0, 3.0)
    lo, hi = collatz_wielandt([[2, 1], [1, 2]], [1, 2])
    assert (lo, hi) == (2.5, 4.0)
    assert collatz_wielandt(np.eye(3), [1, 2, 3]) == (1.0, 1.0)
    with pytest.raises(ValueError):
        collatz_wielandt([[2, 1], [1, 2]], [1, 0])


def test_product_contraction_bound():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert product_contraction_bound([A]) == contraction_coeff(A).c
    assert product_contraction_bound([[[1, 1], [1, 1]], A]) == 0.0

    rng = np.random.default_rng(34)
    for _ in range(30):
        mats = [rng.uniform(0.1, 5.0, size=(3, 3)) for _ in range(int(rng.integers(2, 6)))]
        bound = product_contraction_bound(mats)
        expected = 1.0
        for M in mats:
            expected *= contraction_coeff(M).c
        assert bound == expected
        prod = mats[0]
        for M in mats[1:]:
            prod = prod @ M
        assert contraction_coeff(prod).c <= bound + 1e-10

    with pytest.raises(ValueError):
        product_contraction_bound([])
    with pytest.raises(ValueError):
        product_contraction_bound([np.eye(2), np.eye(3)])


def test_large_dimension_skips_error_bound():
    rng = np.random.default_rng(35)
    M = rng.uniform(0.5, 1.5, size=(513, 513))
    res = perron_iterate(M, max_iter=500)
    assert res.converged and res.error_bound is None


_SKIPPED = "contraction coefficient skipped for dimension > 512; error bound unavailable"
_NO_CERTIFICATE = "no contraction certificate (c = 1); error bound unavailable"


def test_no_bound_reason():
    res = perron_iterate([[2.0, 1.0], [1.0, 2.0]])
    assert res.error_bound is not None and res.no_bound_reason is None
    res = perron_iterate([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0], max_iter=10)
    assert res.error_bound is None and res.no_bound_reason == _NO_CERTIFICATE
    res = perron_iterate(np.random.default_rng(38).uniform(0.5, 1.5, size=(513, 513)))
    assert res.error_bound is None and res.no_bound_reason == _SKIPPED


def _validating_route(M, f0=None, tol=1e-12, max_iter=10000, zero_tol=0.0):
    """The loop through the public, validating functions: normalize, pseudo_distance, aleph."""
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    p = normalize(np.ones(n) if f0 is None else f0, zero_tol)
    c = contraction_coeff(M, zero_tol).c if n <= 512 else None
    step, iterations, converged = math.inf, 0, False
    for _ in range(max_iter):
        q = normalize(M @ p, zero_tol)
        step = pseudo_distance(p, q, zero_tol)
        p = q
        iterations += 1
        if step <= tol:
            converged = True
            break
    lower, upper = _validating_bracket(M, p, zero_tol)
    error_bound = c / (1.0 - c) * step if c is not None and c < 1.0 else None
    no_bound_reason = None if error_bound is not None else _SKIPPED if c is None else _NO_CERTIFICATE
    return PerronResult(p, lower, upper, iterations, step, error_bound, converged, no_bound_reason)


def _validating_bracket(M, p, zero_tol=0.0):
    Mp = M @ p
    a = aleph(Mp, p, zero_tol)
    return aleph(p, Mp, zero_tol), math.inf if a == 0.0 else 1.0 / a


def _bits(res):
    """Every field of a PerronResult, floats and arrays by their IEEE bits."""
    return [x.tobytes() if isinstance(x, np.ndarray) else struct.pack("<d", x) if isinstance(x, float) else x
            for x in vars(res).values()]


def _slowly_mixing(rng, n):
    return np.eye(n) + 0.02 * rng.uniform(0.1, 1.0, size=(n, n))


def test_loop_is_bitwise_the_validating_route():
    rng = np.random.default_rng(36)
    cases = [(f"slow n={n}", _slowly_mixing(rng, n), {}) for n in (2, 5, 16, 64)]
    M = rng.uniform(0.0, 1.0, size=(6, 6))
    cases.append(("zero_tol 0.2", M, {"zero_tol": 0.2}))
    cases.append(("zero_tol 0.2, start with zeros", M, {"zero_tol": 0.2, "f0": [0, 1, 0, 0.1, 0, 2]}))
    for n in (3, 8):
        f0 = rng.uniform(0.5, 2.0, size=n)
        f0[: n // 2] = 0.0
        cases.append((f"start with zeros n={n}", random_cone_preserving_matrix(rng, n), {"f0": f0}))
    cases.append(("c = 1, max_iter", [[0.0, 1.0], [1.0, 0.0]], {"f0": [1.0, 2.0], "max_iter": 37}))
    cases.append(("block diagonal, max_iter", np.kron(np.eye(2), np.ones((2, 2))), {"f0": [1, 2, 3, 4], "max_iter": 5}))
    cases.append(("dimension limit", _slowly_mixing(np.random.default_rng(39), 513), {"tol": 1e-9}))
    M = _slowly_mixing(rng, 4)
    cases.append(("tol equal to the third step", M, {"tol": _validating_route(M, max_iter=3).final_step_distance}))
    for label, M, kwargs in cases:
        res = perron_iterate(M, **kwargs)
        assert _bits(res) == _bits(_validating_route(M, **kwargs)), label
    assert not perron_iterate([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0], max_iter=37).converged


def test_collatz_wielandt_is_bitwise_the_validating_route():
    rng = np.random.default_rng(37)
    for n in (1, 2, 7, 30):
        for M in (rng.uniform(0.1, 5.0, size=(n, n)), random_cone_preserving_matrix(rng, n)):
            f = rng.uniform(0.01, 3.0, size=n)
            for zt in (0.0, 0.5):
                if not (M > zt).any(axis=0).all():
                    continue
                got = struct.pack("<2d", *collatz_wielandt(M, f, zt))
                assert got == struct.pack("<2d", *_validating_bracket(M, f, zt)), (n, zt)


def _exact_root_2x2(M):
    """Larger eigenvalue of a 2x2 matrix of doubles, to 60 digits."""
    (a, b), (c, d) = (map(Fraction, row) for row in M)
    tr, disc = a + d, (a - d) ** 2 + 4 * b * c
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(tr.numerator) / tr.denominator + (Decimal(disc.numerator) / disc.denominator).sqrt()) / 2


@pytest.mark.parametrize(
    "M, root",
    [
        # 1/aleph(Mp, p) overflows to an upper end of 0
        ([[1e-310, 1e-310], [1e-310, 2e-310]], _exact_root_2x2([[1e-310, 1e-310], [1e-310, 2e-310]])),
        # rank one, so the root is the row sum; 1/aleph(Mp, p) rounds one ulp below the lower end
        ([[1.0, 1e-310, 1e300, 1e-310]] * 4, sum(map(Fraction, [1.0, 1e-310, 1e300, 1e-310]))),
    ],
    ids=["subnormal", "1e300-rank-one"],
)
def test_bracket_is_ordered_and_holds_the_root_at_the_ends_of_the_double_range(M, root):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # raw numpy warnings are a separate defect
        res = perron_iterate(M)
    assert res.eigenvalue_lower <= res.eigenvalue_upper
    assert Fraction(res.eigenvalue_lower) <= Fraction(root) <= Fraction(res.eigenvalue_upper)


def test_bracket_rejects_an_image_outside_the_cone():
    # the last iterate is valid, but its image overflows
    M = np.array([[1e308, 1e308], [1e308, 1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            collatz_wielandt(M, [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            _validating_bracket(M, np.array([1.0, 1.0]))
