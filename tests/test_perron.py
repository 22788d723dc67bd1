import itertools
import math
import struct
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from projcone import cone, matrices, perron
from projcone import (
    PerronResult,
    aleph,
    apply,
    as_cone_vector,
    collatz_wielandt,
    contraction_coeff,
    m_ratio,
    normalize,
    perron_iterate,
    product_contraction_bound,
    pseudo_distance,
    uniform_positivity_certificate,
)

import _exact
from _util import random_cone_preserving_matrix, support_calls
from test_cli_fuzz import ENTRIES


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


def test_iterates_below_zero_tol_are_measured_as_computed():
    # both eigenvalues of [[1, 0], [1, 1]] are 1; the iterates (1/k, 1) creep toward (0, 1), and their first entry
    # falls to zero_tol on step 2, which must neither end the iteration nor drop the ratio 1 from the bracket
    res = perron_iterate([[1.0, 0.0], [1.0, 1.0]], zero_tol=0.5, max_iter=200)
    assert res.iterations == 200 and not res.converged and res.final_step_distance > 1e-3
    assert res.eigenvalue_lower <= 1.0 <= res.eigenvalue_upper
    for max_iter in (2, 3):
        res = perron_iterate([[1.0, 0.0], [1.0, 1.0]], zero_tol=0.5, max_iter=max_iter)
        assert not res.converged and res.eigenvalue_lower <= 1.0 <= res.eigenvalue_upper


def test_zero_tol_zeroes_the_matrix_it_iterates():
    # c(M) is that of M with 0.1 and 0.3 set to 0, rank one (c = 0): the iteration, its bracket and its error bound
    # are those of that matrix, whose Perron pair is 1 and (1, 0); the bound is the rounding term of the last image alone
    M = [[1.0, 1.0], [0.1, 0.3]]
    res = perron_iterate(M, zero_tol=0.5)
    assert _bits(res) == _bits(perron_iterate([[1.0, 1.0], [0.0, 0.0]]))
    assert (res.eigenvalue_lower, res.eigenvalue_upper, res.eigenvector.tolist()) == (1.0, 1.0, [1.0, 0.0])
    assert 3 * 2.0 ** -53 < res.error_bound < 4 * 2.0 ** -53  # about gamma_3


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
    # every coordinate of the strictly positive f counts, at or below zero_tol too: the Perron root 2 stays in
    assert collatz_wielandt([[1, 0], [0, 2]], [1, 0.1], zero_tol=0.5) == (1.0, 2.0)
    lo, hi = collatz_wielandt([[2, 1], [1, 2]], [1, 2])
    assert (lo, hi) == (2.5, 4.0)
    assert collatz_wielandt(np.eye(3), [1, 2, 3]) == (1.0, 1.0)
    with pytest.raises(ValueError):
        collatz_wielandt([[2, 1], [1, 2]], [1, 0])
    with pytest.raises(ValueError, match="^dimension mismatch: matrix is 2x2, vector has 3 entries$"):
        collatz_wielandt([[2, 1], [1, 2]], [1, 1, 1])


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


def test_large_dimension_gets_an_error_bound():
    rng = np.random.default_rng(35)
    M = rng.uniform(0.5, 1.5, size=(513, 513))
    res = perron_iterate(M, max_iter=500)
    assert res.converged and res.error_bound is not None and res.no_bound_reason is None
    w, V = np.linalg.eig(M)
    assert pseudo_distance(res.eigenvector, np.abs(V[:, int(np.argmax(w.real))].real)) <= res.error_bound


_NO_BOUND = ("no error bound: the pivot constant certifies no contraction (m = 0, as where c = 1, or tau rounds to 1), "
             "the last step is 1, or the bound is not below 1")


def test_no_bound_reason():
    res = perron_iterate([[2.0, 1.0], [1.0, 2.0]])
    assert res.error_bound is not None and res.no_bound_reason is None
    res = perron_iterate([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0], max_iter=10)
    assert res.error_bound is None and res.no_bound_reason == _NO_BOUND
    # aleph(h, M e_1) underflows to 0 (1e-310 / 1e300) while aleph(M e_1, h) overflows: m rounds to 0, no bound
    res = perron_iterate([[1.0, 1e-310, 1e300, 1e-310]] * 4)
    assert res.converged and res.error_bound is None and res.no_bound_reason == _NO_BOUND
    # a start on the boundary: the one step has no finite Hilbert distance
    res = perron_iterate([[2.0, 1.0], [1.0, 2.0]], [1.0, 0.0], max_iter=1)
    assert res.final_step_distance == 1.0 and res.error_bound is None and res.no_bound_reason == _NO_BOUND
    # m = 1e-10, K near 5e9, and a step near 3e-5: tanh rounds to 1, which bounds nothing
    res = perron_iterate([[1.0, 1e-5], [1e-5, 1.0]], [1.0, 0.5], max_iter=1)
    assert 0.0 < res.final_step_distance < 1.0 and res.error_bound is None and res.no_bound_reason == _NO_BOUND
    # above n = 512 too: no dimension limit
    res = perron_iterate(np.random.default_rng(38).uniform(0.5, 1.5, size=(513, 513)))
    assert res.error_bound is not None and res.no_bound_reason is None


@pytest.mark.parametrize("M, f0, p_star", [
    ([[1.0, 1e-20], [2e-20, 1.0]], None, [2.0 ** -0.5, 1.0]),
    ([[1.0, 1e-20], [1e-20, 1.0]], [1.0, 0.5], [1.0, 1.0]),
])
def test_a_stalled_step_certifies_nothing_where_tau_rounds_to_1(M, f0, p_star):
    # M @ p rounds to p, a step of 0 far from the ray; m near 1e-40 is a normal double, K near 1e39 is finite
    res = perron_iterate(M, f0)
    assert res.converged and res.final_step_distance == 0.0
    assert pseudo_distance(res.eigenvector, p_star) > 0.1
    assert res.error_bound is None and res.no_bound_reason == _NO_BOUND


def test_the_bound_can_exceed_c_over_1_minus_c_times_the_step_where_k_is_below_1():
    # tanh(K u) >= K tanh(u) for K < 1: on one large step, Birkhoff's bound is above c / (1 - c) * step
    M = [[1.0, 0.8], [0.8, 1.0]]  # m = 0.64, K = c / (1 - c) = 0.28125
    res = perron_iterate(M, [1.0, 0.1], max_iter=1)
    c = contraction_coeff(M).c
    assert c / (1.0 - c) * res.final_step_distance < 0.222 < 0.289 < res.error_bound < 0.290
    assert pseudo_distance(res.eigenvector, [1.0, 1.0]) <= res.error_bound


def _exact_pivot_pairs(M):
    """Exact ``(aleph(h, M e_j), aleph(M e_j, h))`` for every column, ``h`` the column of ``M``'s first largest entry."""
    cols = [list(map(float, col)) for col in np.asarray(M, dtype=float).T]
    h = cols[int(np.unravel_index(np.argmax(M), np.shape(M))[1])]
    return [(_exact.aleph(h, g), _exact.aleph(g, h)) for g in cols]


def _exact_m_min(M):
    """Exact smallest pair product of ``c(M)``: ``c = (1 - m_min) / (1 + m_min)``; 1 for a single column."""
    cols = [list(map(float, col)) for col in np.asarray(M, dtype=float).T]
    return min((_exact.m(f, g) for f, g in itertools.combinations(cols, 2)), default=Fraction(1))


def _exact_bound(K, d, e):
    """``tanh(K atanh(d) + (1 + K) atanh(e))`` to 60 significant digits, for Fractions ``K``, ``d`` and ``e``: the
    bound's exact value, ``d`` the bounded distance of the last step and ``e`` the rounding term's relative error.  The
    working precision grows with the digits that ``1 + s`` and ``exp(2x) - 1`` cancel."""
    with localcontext() as ctx:
        x = Decimal(0)
        for weight, s in ((K, d), (1 + K, e)):
            if s:
                t = 2 * s / (1 - s)  # atanh(s) = log(1 + t) / 2, with 1 + t exact
                ctx.prec = 70 + max(0, -(Decimal(t.numerator) / Decimal(t.denominator)).adjusted())
                x += Decimal(weight.numerator) / Decimal(weight.denominator) * ((Decimal((1 + t).numerator) / Decimal((1 + t).denominator)).ln() / 2)
        if not x:
            return x
        ctx.prec = 70 + max(0, -x.adjusted())
        e = (2 * x).exp()
        return (e - 1) / (e + 1)


def _exact_rounding_error(n, p, top):
    """Exact ``e = gamma_{n+1} + (1 + n / top) 2**-1074 / min(p)`` over the support of ``p``."""
    u = Fraction(2) ** -53
    return (n + 1) * u / (1 - (n + 1) * u) + (1 + n / Fraction(top)) * Fraction(2) ** -1074 / Fraction(min(x for x in p if x > 0.0))


_NORMAL, _HUGE, _TAU_ROUNDS_TO_1 = Fraction(2) ** -1022, Fraction(2) ** 1023, Fraction(2) ** -54


def _check_pivot_constant(M):
    """``perron._pivot_constant`` against the exact pivot ``m`` and ``c(M)``'s exact ``m_min``; returns it."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        K = perron._pivot_constant(np.asarray(M, dtype=float))
    pairs = _exact_pivot_pairs(M)
    m = min(min(a * b, Fraction(1)) for a, b in pairs)
    if m <= _TAU_ROUNDS_TO_1:  # the pattern fails (m = 0, as where c = 1), or tau = (1 - m) / (1 + m) rounds to 1: no bound
        assert K == math.inf
        return K
    if all(_NORMAL <= x < _HUGE for pair in pairs for x in pair) and m >= 4 * _TAU_ROUNDS_TO_1:
        # K lies above its exact value, by no more than its rounding
        assert (1 / m - 1) / 2 <= Fraction(K) <= ((1 / m) * (1 + Fraction(2) ** -49) - 1) / 2 * (1 + Fraction(2) ** -51)
        # and below c / (1 - c) = (1/m_min - 1) / 2 exactly, wherever the pivot pairs' m does not round onto m_min
        m_min = _exact_m_min(M)
        assert m >= m_min
        if m >= m_min * (1 + Fraction(2) ** -48):
            assert Fraction(K) <= (1 / m_min - 1) / 2
        return K
    # at the ends of the double range and next to the cut on tau, only soundness: no bound, or one above the exact value
    assert K == math.inf or Fraction(K) >= (1 / m - 1) / 2
    return K


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(M=st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n), min_size=n, max_size=n)))
@example(M=[[1.0, 1e-310], [2.0, 1e-310]])  # aleph(M e_1, h) overflows while aleph(h, M e_1) > 0: m is 1/2, not inf
def test_pivot_constant_lies_between_its_exact_value_and_c_over_1_minus_c_over_the_fuzz_entries(M):
    M = np.array(M, dtype=float)
    assume((M > 0.0).any(axis=0).all())
    _check_pivot_constant(M)


def test_pivot_constant_lies_between_its_exact_value_and_c_over_1_minus_c_on_random_matrices():
    rng = np.random.default_rng(43)
    finite = below_c = 0
    for k in range(600):
        n = int(rng.integers(1, 8))
        M = [rng.uniform(0.1, 3.0, size=(n, n)), 10.0 ** rng.uniform(-3.0, 3.0, size=(n, n)),
             random_cone_preserving_matrix(rng, n), _perron_loop_matrix(max(n, 2), 0.02)][k % 4]
        K = _check_pivot_constant(M)
        finite += K < math.inf
        below_c += K < math.inf and Fraction(K) < (1 / _exact_m_min(M) - 1) / 2
    assert finite >= 400 and below_c >= 100


def test_pivot_constant_is_the_certificates_A_minus_1_over_2_rounded_outward():
    # Perron's pivot and check's certificate are one sandwich: K = (A - 1) / 2, moved outward by its alephs' rounding
    rng = np.random.default_rng(45)
    finite = 0
    for k in range(600):
        n = int(rng.integers(1, 8))
        M = [rng.uniform(0.1, 3.0, size=(n, n)), 10.0 ** rng.uniform(-6.0, 6.0, size=(n, n))][k % 2]
        if k % 3 == 0 and n > 1:
            M[int(rng.integers(n))] = 0.0  # a zero row keeps M uniformly positive
        A = uniform_positivity_certificate(M).A
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            K = perron._pivot_constant(M)
        if K < math.inf:
            assert (Fraction(A) - 1) / 2 <= Fraction(K) <= (Fraction(A) + 16 * Fraction(math.ulp(A)) - 1) / 2, M
            finite += 1
    assert finite >= 400


def test_error_bound_is_at_least_the_exact_formula_at_the_reported_step():
    rng = np.random.default_rng(44)
    checked = 0
    for k in range(300):
        n = int(rng.integers(2, 7))
        M = [rng.uniform(0.1, 3.0, size=(n, n)), 10.0 ** rng.uniform(-3.0, 3.0, size=(n, n)), _perron_loop_matrix(n, 0.05)][k % 3]
        kwargs = {"f0": rng.uniform(0.0, 1.0, size=n), "max_iter": int(rng.integers(1, 40))}
        res = perron_iterate(M, **kwargs)
        if res.error_bound is not None:
            _, v, top, _ = _validating_run(M, **kwargs)
            m = min(min(a * b, Fraction(1)) for a, b in _exact_pivot_pairs(M))
            p = list(map(float, res.eigenvector))
            want = _exact_bound((1 / m - 1) / 2, _exact.distance(list(map(float, v)), p), _exact_rounding_error(n, p, top))
            assert Decimal(res.error_bound) >= want
            checked += 1
    assert checked >= 150
    # the rounding of every term alone, from K = 1e-16 to 1e16, steps from 5e-324 to 1 - 2**-53, and images from
    # subnormal to huge whose smallest entry is from 1 down to subnormal
    ones = np.ones((2, 2))
    for _ in range(3000):
        K, x = float(10.0 ** rng.uniform(-16.0, 16.0)), float(10.0 ** -rng.uniform(0.0, 330.0))
        p, top = np.array([1.0, x]), float(10.0 ** rng.uniform(-320.0, 300.0))
        v = np.array([1.0, float(x * (1.0 + 10.0 ** -rng.uniform(0.0, 17.0)))]) if rng.random() < 0.8 else np.array([x, 1.0])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bound = perron._error_bound(K, ones, v, p, top)
        if bound is not None:
            want = _exact_bound(Fraction(K), _exact.distance(list(v), list(p)), _exact_rounding_error(2, p, top))
            assert Decimal(bound) >= want, (K, v, p, top)
            checked += 1
    assert checked >= 1500


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(M=st.lists(st.lists(st.sampled_from(ENTRIES), min_size=2, max_size=2), min_size=2, max_size=2), tol=st.sampled_from([1e-12, 1e-300]))
@example(M=[[2.0, 0.3], [1.0, 1.0]], tol=1e-300)  # a step of 0 next to the ray, which the bound without the rounding term certified as 0
@example(M=[[1e20, 2e20], [1e-300, 3e-300]], tol=1e-12)  # the eigenvector's second entry is subnormal: the division by top rounds it
def test_error_bound_holds_against_the_exact_2x2_perron_ray_over_the_fuzz_entries(M, tol):
    assume((np.array(M) > 0.0).any(axis=0).all())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _outcome(perron_iterate, M, tol=tol)
    ray = _exact.perron_ray_2x2(M)
    if isinstance(res, str) or res.error_bound is None or ray is None:
        return
    assert Decimal(res.error_bound) >= _exact.ray_distance(res.eigenvector, ray)


def test_error_bound_holds_against_the_exact_2x2_perron_ray_at_the_rounding_level():
    # at tol 1e-300 the runs end on a step of rounding size, or 0, where the bound is its rounding term alone
    rng = np.random.default_rng(7)
    below = 0
    for _ in range(400):
        M = rng.uniform(0.1, 3.0, size=(2, 2))
        res = perron_iterate(M, tol=1e-300)
        below += Decimal(res.error_bound) < _exact.ray_distance(res.eigenvector, _exact.perron_ray_2x2(M.tolist()))
    assert below == 0


def _zeroed(a, zero_tol):
    """``a`` with every entry at or below ``zero_tol`` set to +0.0: the one reading of ``zero_tol``."""
    return np.where(a > zero_tol, a, 0.0)


def _validating_run(M, f0=None, tol=1e-12, max_iter=10000, zero_tol=0.0):
    """The loop through the public, validating functions (normalize, pseudo_distance, aleph) and numpy products: the
    result, the last iterate ``v`` before the eigenvector, the largest entry of ``M v``, and the schedule, a list of
    ``("batch", size)`` and ``("jump", power)``.

    ``zero_tol`` zeroes entries of ``M`` and ``f0`` and refuses an image whose largest entry is at or below it; the
    iterates are measured as computed, at ``zero_tol = 0``.  The schedule is the library's: one step, one step, then
    as many as the rate of the last two steps needs to reach ``tol``, clipped to [1, 128] and to the budget; where that
    rate is below 1, ``2 n max(M)`` is finite and the prediction ``size`` exceeds ``n * size.bit_length()``, a jump of
    ``min(size, max_iter - iterations - 1)`` powers of ``M`` instead, after which the schedule starts again.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    p = normalize(_zeroed(as_cone_vector(np.ones(n) if f0 is None else f0, zero_tol), zero_tol))
    M = _zeroed(M, zero_tol)
    jumps = 2.0 * n * float(M.max()) < math.inf
    v, top, iterations, size, steps, schedule = p, math.nan, 0, 1, [], []
    while True:
        schedule.append(("batch", size))
        for _ in range(size):
            image = M @ p
            q = normalize(image, zero_tol)
            steps.append(pseudo_distance(p, q))
            v, top, p = p, image.max(), q
            iterations += 1
            if steps[-1] <= tol:
                break
        if steps[-1] <= tol or iterations == max_iter:
            break
        step, prev = steps[-1], steps[-2] if len(steps) > 1 else math.nan
        rate = step / prev if prev > 0.0 else math.nan
        size = 1 if not rate > 0.0 else perron._MAX_BATCH if rate >= 1.0 else math.floor(math.log(tol / step) / math.log(rate))
        jump = min(size, max_iter - iterations - 1)
        if jumps and rate < 1.0 and size > n * size.bit_length() and jump > 0 and (w := _validating_power(M, p, jump)) is not None:
            schedule.append(("jump", jump))
            p, iterations, size, steps = w, iterations + jump, 1, []
        size = min(max(size, 1), perron._MAX_BATCH, max_iter - iterations)
    lower, upper = _validating_bracket(M, p, zero_tol)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        error_bound = perron._error_bound(_validating_pivot_constant(M), M, v, p, top)
    res = PerronResult(p, lower, upper, iterations, steps[-1], error_bound, steps[-1] <= tol, None if error_bound is not None else _NO_BOUND)
    return res, v, top, schedule


def _validating_route(M, **kwargs):
    return _validating_run(M, **kwargs)[0]


def _validating_power(M, p, k):
    """``M^k p`` normalized, by binary powering of ``M / max(M)`` with numpy products; None where an image vanishes."""
    P = np.ascontiguousarray(M / M.max())
    while True:
        if k & 1:
            image = P @ p
            if not image.max() > 0.0:
                return None
            p = normalize(image)
        k >>= 1
        if not k:
            return p
        P = P @ P
        P = P / P.max()


def _down(x):
    return math.nextafter(x, 0.0)


def _validating_pivot_constant(Z):
    """Birkhoff's ``K`` of a zeroed matrix through public ``m_ratio`` on the pivot pairs, with the library's rounding."""
    h = Z[:, np.unravel_index(np.argmax(Z), Z.shape)[1]]
    m = _down(min(_down(r.aleph_fg) * _down(r.aleph_gf) for r in (m_ratio(h, g) for g in Z.T)))
    return perron._up((perron._up(1.0 / m) - 1.0) / 2.0) if m > 0.0 and (1.0 - m) / (1.0 + m) < 1.0 else math.inf


def _validating_bracket(M, p, zero_tol=0.0):
    """Extreme ratios of ``M p`` and ``p`` as computed, for a zeroed ``M``; an image with no entry above ``zero_tol`` is refused."""
    Mp = as_cone_vector(M @ p, zero_tol)
    a = aleph(Mp, p)
    return aleph(p, Mp), math.inf if a == 0.0 else 1.0 / a


def _bits(res):
    """Every field of a PerronResult, floats and arrays by their IEEE bits."""
    return [x.tobytes() if isinstance(x, np.ndarray) else struct.pack("<d", x) if isinstance(x, float) else x
            for x in vars(res).values()]


def _slowly_mixing(rng, n):
    return np.eye(n) + 0.02 * rng.uniform(0.1, 1.0, size=(n, n))


def _outcome(route, M, **kwargs):
    """A route's result, or the message of the ``ValueError`` it raised."""
    try:
        return route(M, **kwargs)
    except ValueError as exc:
        return str(exc)


def _same_outcome(got, want):
    """Equal messages, or results equal in every bit."""
    return got == want if isinstance(want, str) else not isinstance(got, str) and _bits(got) == _bits(want)


def _reference_outcome(M, **kwargs):
    with np.errstate(over="ignore"):  # the reference's raw M @ p may overflow
        return _outcome(_validating_route, M, **kwargs)


def _perron_loop_matrix(n, eps):
    """The perron-loop benchmark's family: a dominant diagonal that mixes slowly, at mixing weight ``eps``."""
    R = np.random.default_rng(20231218).uniform(0.0, 1.0, (n, n))
    return (1.0 - eps) * np.diag(1.0 - 0.5 * np.arange(n) / (n - 1)) + eps * R


def _batch_rule_cases():
    """Cases for the loop's schedule: long runs that jump, one cut by the budget, budgets around the largest batch, one
    step, a large n, and a slowly mixing matrix at 1e308 scale, where the steps could overflow and no jump is taken."""
    slow = _perron_loop_matrix(8, 0.01)
    cases = [(f"perron-loop n={n} eps={eps}", _perron_loop_matrix(n, eps), {}) for n, eps in ((8, 0.01), (16, 0.01), (128, 0.01))]
    cases.append(("perron-loop n=8, a jump cut by max_iter", slow, {"max_iter": 60}))
    B = perron._MAX_BATCH
    cases += [(f"max_iter {k}", slow, {"max_iter": k}) for k in (1, 2, B - 1, B, B + 1, 2 * B + 1)]
    cases.append(("rank one, converges on step 1", np.outer([1.0, 2.0, 3.0], [0.5, 1.0, 4.0]), {"f0": [2.0, 4.0, 6.0]}))
    cases.append(("slow n=600", _slowly_mixing(np.random.default_rng(40), 600), {}))
    cases.append(("perron-loop n=8 at 1e308 scale", 1e308 * slow, {}))
    return cases


def _schedule(M, monkeypatch, **kwargs):
    """The batches and jumps of ``perron_iterate``, as ``_validating_run`` lists them: a batch's size is read off the
    step products the pair kernel measures after it, a jump's power off ``_power``."""
    schedule, kernel, power = [], perron._listed_pair_products, perron._power

    def measured(W, i, j):
        products = kernel(W, i, j)
        schedule.append(("batch", products.size))
        return products

    def jumped(M, p, k):
        schedule.append(("jump", k))
        return power(M, p, k)

    monkeypatch.setattr(perron, "_listed_pair_products", measured)
    monkeypatch.setattr(perron, "_power", jumped)
    res = perron_iterate(M, **kwargs)
    monkeypatch.undo()
    return schedule, res


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
    cases.append(("n = 513", _slowly_mixing(np.random.default_rng(39), 513), {"tol": 1e-9}))
    M = _slowly_mixing(rng, 4)
    cases.append(("tol equal to the third step", M, {"tol": _validating_route(M, max_iter=3).final_step_distance}))
    # the iterates are read as computed: entries that fall below or rise above zero_tol are not thresholded
    cases.append(("iterate falls below zero_tol", [[1.0, 0.01], [0.01, 0.5]], {"zero_tol": 0.2}))
    cases.append(("iterate rises above zero_tol", [[1.0, 0.5], [0.5, 1.0]], {"f0": [1.0, 0.05], "zero_tol": 0.2}))
    cases.append(("subnormal start, q / p overflows", _slowly_mixing(rng, 3), {"f0": [1.0, 1e-310, 5e-324]}))
    tiny = 1e-300 * np.array([[1.0, 1.0, 0.0], [0.0, 1e-15, 1.0], [1e-10, 0.0, 1.0]])
    cases.append(("image entries underflow to 0", tiny, {"f0": [1.0, 1e-20, 1e-30], "max_iter": 60}))
    cases.append(("first image overflows", [[1e308, 1e308], [1e308, 1e308]], {}))
    cases += _batch_rule_cases()
    M, f0 = 1e308 * np.array([[1.745, 0.056], [0.684, 1.28]]), [0.001, 0.98]  # images grow as the iterates align
    cases.append(("image overflows one step past convergence", M, {"f0": f0, "tol": _validating_route(M, f0=f0, max_iter=13).final_step_distance}))
    for label, M, kwargs in cases:
        assert _same_outcome(_outcome(perron_iterate, M, **kwargs), _reference_outcome(M, **kwargs)), label
    assert (tiny @ [1.0, 1e-20, 1e-30])[1] == 0.0
    assert _reference_outcome([[1e308, 1e308], [1e308, 1e308]]) == "cone vector entries must be finite"
    assert _reference_outcome(M, f0=f0, max_iter=14) == "cone vector entries must be finite"
    assert not perron_iterate([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0], max_iter=37).converged


def test_steps_and_jumps_pass_the_reported_iteration_by_less_than_the_last_batch(monkeypatch):
    # a jump of k powers counts as k steps; only the last batch may run past the step that ends the loop
    image = perron._image
    jumped = 0
    for label, M, kwargs in _batch_rule_cases():
        outs = []  # the images written into a given output: the loop's steps, not the bracket's product

        def counting(M, p, zero_tol, out=None):
            outs.append(out is not None)
            return image(M, p, zero_tol, out)

        monkeypatch.setattr(perron, "_image", counting)
        schedule, res = _schedule(M, monkeypatch, **kwargs)
        powers = sum(k for kind, k in schedule if kind == "jump")
        assert res.iterations <= sum(outs) + powers < res.iterations + schedule[-1][1], label
        jumped += powers > 0
    assert jumped >= 3


def test_batch_sizes_follow_the_observed_rate(monkeypatch):
    # steps that never shrink (rate 1) take the largest batch, B, and the budget cuts the last one
    B = perron._MAX_BATCH
    schedule, res = _schedule([[0.0, 1.0], [1.0, 0.0]], monkeypatch, f0=[1.0, 2.0], max_iter=3 * B + 4)
    assert schedule == [("batch", k) for k in (1, 1, B, B, B, 2)] and res.iterations == 3 * B + 4
    # converging runs: 1 step, 1 step, then floor(log(tol / step) / log(rate)) clipped to [1, B], or a jump where that
    # prediction exceeds n times its bit length, after which the schedule starts again
    seen = set()
    for label, M, kwargs in _batch_rule_cases():
        schedule = _schedule(M, monkeypatch, **kwargs)[0]
        assert schedule == _validating_run(M, **kwargs)[3], label
        seen.update(kind for kind, _ in schedule)
    assert seen == {"batch", "jump"}
    slow = _perron_loop_matrix(8, 0.01)
    schedule = _schedule(slow, monkeypatch)[0]
    assert ("jump", 494) in schedule and len(schedule) < 20 < sum(k for _, k in schedule)
    # the budget cuts a jump so that one plain step is left, and at 1e308 scale, where a step could overflow, none is taken
    assert _schedule(slow, monkeypatch, max_iter=60)[0] == [("batch", 1), ("batch", 1), ("jump", 57), ("batch", 1)]
    assert {kind for kind, _ in _schedule(1e308 * slow, monkeypatch)[0]} == {"batch"}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), zero_tol=st.sampled_from([0.0, 1e-300, 0.5]))
def test_loop_is_bitwise_the_validating_route_over_the_fuzz_entries(data, zero_tol):
    n = data.draw(st.integers(1, 6))
    vectors = st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)
    M = np.array(data.draw(st.lists(vectors, min_size=n, max_size=n)), dtype=float)
    assume((M > zero_tol).any(axis=0).all())  # the reference route does not check cone preservation
    kwargs = {"f0": data.draw(st.none() | vectors), "max_iter": data.draw(st.integers(1, 50)), "zero_tol": zero_tol}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(perron_iterate, M, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _reference_outcome(M, **kwargs)
    if isinstance(want, str) or want.eigenvalue_lower <= want.eigenvalue_upper:
        assert _same_outcome(got, want)
        return
    # 1 / aleph overflowed or rounded low in the reference's raw bracket, which the library mends: the other fields
    # agree, and the library's bracket is ordered and holds every exact ratio (M p) / p with p > 0
    assert not isinstance(got, str) and _bits(got)[:1] + _bits(got)[3:] == _bits(want)[:1] + _bits(want)[3:]
    p = got.eigenvector
    ratios = [Fraction(y) / Fraction(x) for x, y in zip(p, _zeroed(M, zero_tol) @ p) if x > 0.0]
    assert got.eigenvalue_lower <= got.eigenvalue_upper
    assert all(got.eigenvalue_lower <= r <= got.eigenvalue_upper for r in ratios)


def test_collatz_wielandt_is_bitwise_the_validating_route():
    rng = np.random.default_rng(37)
    for n in (1, 2, 7, 30):
        for M in (rng.uniform(0.1, 5.0, size=(n, n)), random_cone_preserving_matrix(rng, n)):
            f = rng.uniform(0.01, 3.0, size=n)
            for zt in (0.0, 0.5):
                if not (M > zt).any(axis=0).all():
                    continue
                got = _outcome(lambda M: struct.pack("<2d", *collatz_wielandt(M, f, zt)), M)
                assert got == _outcome(lambda M: struct.pack("<2d", *_validating_bracket(_zeroed(M, zt), f, zt)), M), (n, zt)


def test_collatz_wielandt_and_perron_iterate_build_one_support_mask_per_array(monkeypatch):
    M, f = np.array([[2.0, 1.0], [1.0, 2.0]]), [1.0, 2.0]
    shapes = support_calls(monkeypatch, cone, perron)
    assert collatz_wielandt(M, f) == (2.5, 4.0)
    assert shapes == [(2,), (2, 2)]  # f and M: the bracket reads M f as computed
    shapes.clear()
    res = perron_iterate(M)
    assert [s for s in shapes if len(s) == 1] == [(2,)]  # the start vector: the iterates are read as computed
    assert res.converged


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
    # the last iterate is valid, but its image overflows, or vanishes by underflow; neither prints a raw warning
    M = np.array([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(ValueError, match="finite"):
        collatz_wielandt(M, [1.0, 1.0])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            _validating_bracket(M, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="at least one positive entry"):
        collatz_wielandt([[0.3]], [5e-324])
    with pytest.raises(ValueError, match="at least one positive entry"):
        _validating_bracket(np.array([[0.3]]), np.array([5e-324]))


def _layouts(M):
    """One matrix in C order, in F order, as a strided view, and as the transpose of a C-ordered copy of its transpose."""
    n = M.shape[0]
    strided = np.zeros((2 * n, 3 * n))
    strided[::2, 1::3] = M
    return {"C": M, "F": np.asfortranarray(M), "strided": strided[::2, 1::3], "transposed copy": np.ascontiguousarray(M.T).T}


def test_every_layout_of_a_matrix_gives_the_same_bits():
    rng = np.random.default_rng(41)
    for n in (5, 8, 33, 64, 128):
        for M in (_perron_loop_matrix(n, 0.02), rng.uniform(0.1, 5.0, size=(n, n))):
            f = rng.uniform(0.5, 2.0, size=n)
            want = None
            for layout, L in _layouts(M).items():
                assert np.array_equal(L, M)
                report = contraction_coeff(L)
                got = (_bits(perron_iterate(L)), struct.pack("<2d", *collatz_wielandt(L, f)), apply(L, f).tobytes(),
                       struct.pack("<d", report.c), report.witness, report.a_star)
                want = want or got
                assert got == want, (n, layout)


def test_product_contraction_bound_validates_each_factor_once(monkeypatch):
    validated, check = [], matrices.as_nonneg_matrix

    def spy(M):
        validated.append(np.shape(M))
        return check(M)

    for module in (matrices, perron):
        monkeypatch.setattr(module, "as_nonneg_matrix", spy)
    rng = np.random.default_rng(42)
    factors = [rng.uniform(0.1, 1.0, size=(4, 4)) for _ in range(3)]
    bound = product_contraction_bound(factors)
    assert validated == [(4, 4)] * 3
    assert bound == math.prod(contraction_coeff(M).c for M in factors)
