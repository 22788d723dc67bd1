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
    # c(M) is that of M with 0.1 and 0.3 set to 0, rank one (c = 0): the iteration, its bracket and its error bound 0
    # are those of that matrix, whose Perron pair is 1 and (1, 0)
    M = [[1.0, 1.0], [0.1, 0.3]]
    res = perron_iterate(M, zero_tol=0.5)
    assert _bits(res) == _bits(perron_iterate([[1.0, 1.0], [0.0, 0.0]]))
    assert (res.eigenvalue_lower, res.eigenvalue_upper, res.error_bound, res.eigenvector.tolist()) == (1.0, 1.0, 0.0, [1.0, 0.0])


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


def _exact_bound(K, step):
    """``tanh(K * atanh(step))`` to 60 significant digits, for a Fraction ``K``: the working precision grows with the
    digits that ``1 + s`` and ``exp(2x) - 1`` cancel."""
    with localcontext() as ctx:
        s = Decimal(step)
        ctx.prec = 70 + max(0, -s.adjusted())
        x = Decimal(K.numerator) / Decimal(K.denominator) * ((1 + s) / (1 - s)).ln() / 2
        ctx.prec = 70 + max(0, -x.adjusted())
        e = (2 * x).exp()
        return (e - 1) / (e + 1)


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


def test_error_bound_is_at_least_the_exact_formula_at_the_reported_step():
    rng = np.random.default_rng(44)
    checked = 0
    for k in range(300):
        n = int(rng.integers(2, 7))
        M = [rng.uniform(0.1, 3.0, size=(n, n)), 10.0 ** rng.uniform(-3.0, 3.0, size=(n, n)), _perron_loop_matrix(n, 0.05)][k % 3]
        res = perron_iterate(M, rng.uniform(0.0, 1.0, size=n), max_iter=int(rng.integers(1, 40)))
        if res.error_bound is not None:
            m = min(min(a * b, Fraction(1)) for a, b in _exact_pivot_pairs(M))
            assert Decimal(res.error_bound) >= _exact_bound((1 / m - 1) / 2, res.final_step_distance)
            checked += 1
    assert checked >= 150
    # the rounding of tanh, atanh and the product alone, from K = 1e-16 to 1e16 and steps from 5e-324 to 1 - 2**-53
    for _ in range(3000):
        K, step = float(10.0 ** rng.uniform(-16.0, 16.0)), float(10.0 ** -rng.uniform(0.0, 330.0))
        step = step if rng.random() < 0.8 else 1.0 - step if step >= 2.0 ** -53 else step
        bound = perron._error_bound(K, step)
        if bound is not None:
            assert Decimal(bound) >= _exact_bound(Fraction(K), step), (K, step)
            checked += 1
    assert checked >= 1500


def _zeroed(a, zero_tol):
    """``a`` with every entry at or below ``zero_tol`` set to +0.0: the one reading of ``zero_tol``."""
    return np.where(a > zero_tol, a, 0.0)


def _validating_route(M, f0=None, tol=1e-12, max_iter=10000, zero_tol=0.0):
    """The loop through the public, validating functions: normalize, pseudo_distance, aleph.

    ``zero_tol`` zeroes entries of ``M`` and ``f0`` and refuses an image whose largest entry is at or below it; the
    iterates are measured as computed, at ``zero_tol = 0``.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    p = normalize(_zeroed(as_cone_vector(np.ones(n) if f0 is None else f0, zero_tol), zero_tol))
    M = _zeroed(M, zero_tol)
    step, iterations, converged = math.inf, 0, False
    for _ in range(max_iter):
        q = normalize(M @ p, zero_tol)
        step = pseudo_distance(p, q)
        p = q
        iterations += 1
        if step <= tol:
            converged = True
            break
    lower, upper = _validating_bracket(M, p, zero_tol)
    error_bound = perron._error_bound(_validating_pivot_constant(M), step)
    return PerronResult(p, lower, upper, iterations, step, error_bound, converged, None if error_bound is not None else _NO_BOUND)


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
    """Cases for the loop's rate-sized batches: long runs, budgets around the largest batch, one step, a large n."""
    slow = _perron_loop_matrix(8, 0.01)
    cases = [(f"perron-loop n={n} eps=0.01", _perron_loop_matrix(n, 0.01), {}) for n in (8, 128)]
    B = perron._MAX_BATCH
    cases += [(f"max_iter {k}", slow, {"max_iter": k}) for k in (1, 2, B - 1, B, B + 1, 2 * B + 1)]
    cases.append(("rank one, converges on step 1", np.outer([1.0, 2.0, 3.0], [0.5, 1.0, 4.0]), {"f0": [2.0, 4.0, 6.0]}))
    cases.append(("slow n=600", _slowly_mixing(np.random.default_rng(40), 600), {}))
    return cases


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
    cases.append(("image overflows one step past convergence", M, {"f0": f0, "tol": _validating_route(M, f0, max_iter=13).final_step_distance}))
    for label, M, kwargs in cases:
        assert _same_outcome(_outcome(perron_iterate, M, **kwargs), _reference_outcome(M, **kwargs)), label
    assert (tiny @ [1.0, 1e-20, 1e-30])[1] == 0.0
    assert _reference_outcome([[1e308, 1e308], [1e308, 1e308]]) == "cone vector entries must be finite"
    assert _reference_outcome(M, f0=f0, max_iter=14) == "cone vector entries must be finite"
    assert not perron_iterate([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0], max_iter=37).converged


def test_batches_never_step_more_than_once_past_the_last_iteration(monkeypatch):
    image = perron._image
    for label, M, kwargs in _batch_rule_cases():
        outs = []  # the images written into a given output: the loop's steps, not the bracket's product

        def counting(M, p, zero_tol, out=None):
            outs.append(out is not None)
            return image(M, p, zero_tol, out)

        monkeypatch.setattr(perron, "_image", counting)
        res = perron_iterate(M, **kwargs)
        monkeypatch.undo()
        assert res.iterations <= sum(outs) <= res.iterations + 1, label


def _batch_sizes(M, monkeypatch, **kwargs):
    """Steps per batch of ``perron_iterate``, read off the step distances the pair kernel measures after each batch."""
    sizes, kernel = [], perron._listed_pair_distances

    def spy(W, i, j):
        steps = kernel(W, i, j)
        sizes.append(steps.size)
        return steps

    monkeypatch.setattr(perron, "_listed_pair_distances", spy)
    res = perron_iterate(M, **kwargs)
    monkeypatch.undo()
    return sizes, res


def test_batch_sizes_follow_the_observed_rate(monkeypatch):
    # steps that never shrink (rate 1) take the largest batch, B, and the budget cuts the last one
    B = perron._MAX_BATCH
    sizes, res = _batch_sizes([[0.0, 1.0], [1.0, 0.0]], monkeypatch, f0=[1.0, 2.0], max_iter=3 * B + 4)
    assert sizes == [1, 1, B, B, B, 2] and res.iterations == 3 * B + 4
    # a converging run: 1 step, 1 step, then floor(log(tol / step) / log(rate)) clipped to [1, B], from the steps
    M, tol = _perron_loop_matrix(8, 0.01), 1e-12
    p, steps = normalize(np.ones(8)), []
    for _ in range(perron_iterate(M, tol=tol).iterations):
        q = normalize(M @ p)
        steps.append(pseudo_distance(p, q))
        p = q
    want, done, step, prev = [], 0, math.nan, math.nan
    while not want or min(steps[done - want[-1]:done]) > tol:
        rate = step / prev if prev > 0.0 else math.nan
        size = 1 if not rate > 0.0 else B if rate >= 1.0 else math.floor(math.log(tol / step) / math.log(rate))
        want.append(min(max(size, 1), B))
        done += want[-1]
        step, prev = steps[min(done, len(steps)) - 1], steps[min(done, len(steps)) - 2] if want[-1] > 1 else step
    assert _batch_sizes(M, monkeypatch, tol=tol)[0] == want
    assert len(want) < 20 < len(steps)


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
