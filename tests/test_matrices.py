import itertools
import math
import os
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from projcone import (
    a_star,
    apply,
    as_nonneg_matrix,
    builtin_kernel,
    certificate_is_valid,
    contraction_coeff,
    contraction_coeff_formula,
    is_cone_preserving,
    is_strictly_contracting,
    is_uniformly_positive,
    kernel_contraction_estimate,
    m_ratio,
    normalize,
    phi,
    pseudo_distance,
    psi,
    tabulate_kernel,
    uniform_positivity_certificate,
)
from projcone import matrices
from projcone.matrices import _LOG_STEPS, _SCAN_BLOCK_ROWS, _aleph_columns, _usable_cpus

import _exact
from _util import assert_batch_matches_scalar, batch_pseudo_distance, c_and_a_star, farthest_pair, random_cone_preserving_matrix, random_cone_vector
from test_cli_fuzz import ENTRIES


def test_as_nonneg_matrix_rejects_bad_input():
    for bad in ([[1, 2, 3], [4, 5, 6]], [[1, -2], [3, 4]], [[1, np.inf], [3, 4]], [1, 2, 3]):
        with pytest.raises(ValueError):
            as_nonneg_matrix(bad)


def test_apply_examples():
    np.testing.assert_array_equal(apply([[2, 1], [1, 2]], [1, 0]), [2.0, 1.0])
    np.testing.assert_array_equal(apply(np.eye(2), [3, 5]), [3.0, 5.0])
    np.testing.assert_array_equal(apply([[1, 1], [1, 1]], [1, 2]), [3.0, 3.0])


def test_apply_errors():
    with pytest.raises(ValueError, match="image of the cone vector is zero"):
        apply([[1, 0], [1, 0]], [0, 1])
    with pytest.raises(ValueError, match="image of the cone vector is not finite"):
        apply([[1e308, 1e308], [1e308, 1e308]], [1, 1])  # no raw overflow warning either
    with pytest.raises(ValueError):
        apply([[1, 0], [1, 0]], [1, 0, 0])


def test_is_cone_preserving():
    assert is_cone_preserving(np.eye(2))
    assert is_cone_preserving([[1, 1], [0, 0]])
    assert not is_cone_preserving([[1, 0], [1, 0]])


# ---------------------------------------------------------------------------
# contraction coefficient, definitional route


def test_contraction_coeff_examples():
    rep = contraction_coeff([[2, 1], [1, 2]])
    assert rep.c == 0.6 and rep.is_strict and rep.witness == (0, 1) and rep.method == "definitional"
    assert rep.a_star == pytest.approx(2.0, abs=1e-12)

    rep = contraction_coeff([[1, 1], [1, 1]])
    assert rep.c == 0.0 and rep.a_star == 1.0

    rep = contraction_coeff(np.eye(2))
    assert rep.c == 1.0 and not rep.is_strict and rep.a_star is None

    rep = contraction_coeff([[4.0]])
    assert rep.c == 0.0 and rep.witness == (0, 0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), zero_tol=st.sampled_from([0.0, 1e-300, 0.5]))
def test_guarded_coefficient_is_within_4_units_of_2_to_the_minus_53_of_the_exact_one(data, zero_tol):
    # fuzz entries, one band of 2**60 anywhere in the double range (subnormals included), or entries within 2**-37 of
    # 1, where m is near 1 and its rounding moves c the most
    n = data.draw(st.integers(2, 6))
    lo = data.draw(st.integers(-1080, 960))
    band = st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(lo, lo + 60))
    near_one = st.integers(0, 8).map(lambda k: 1.0 + k * 2.0**-40)
    entries = data.draw(st.sampled_from([st.sampled_from(ENTRIES), band | st.just(0.0), near_one]))
    M = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)), dtype=float)
    assume((M > zero_tol).any(axis=0).all() and _quotients_are_finite(M, zero_tol))
    c = contraction_coeff(M, zero_tol).c
    assert abs(Fraction(c) - _exact.contraction(M.tolist(), zero_tol)) <= Fraction(4, 2**53)


def test_contraction_coeff_requires_cone_preserving():
    with pytest.raises(ValueError, match="column 1"):
        contraction_coeff([[1, 0], [1, 0]])


def test_contraction_coeff_matches_pairwise_m_ratio():
    # guarded input (entries 0 or in [0.1, 10]); at zero_tol 0.5 the entries in (0.1, 0.5] are zeros of both
    for zero_tol in (0.0, 1e-300, 0.5):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            M = random_cone_preserving_matrix(rng, dim)
            if not (M > zero_tol).any(axis=0).all():
                continue
            rep = contraction_coeff(M, zero_tol)
            pairwise = max(
                phi(m_ratio(M[:, i], M[:, j], zero_tol).m) for i in range(dim) for j in range(i + 1, dim)
            )
            assert rep.c == pairwise, zero_tol  # bitwise: same divisions, same reductions
            checked += 1
        assert checked >= 40, zero_tol


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data(), zero_tol=st.sampled_from([0.0, 1e-300, 0.5]))
def test_a_pattern_that_is_not_strictly_contracting_has_c_1_and_a_witness_at_m_0(data, zero_tol):
    # the paper's theorem, at every zero_tol and on unguarded input too: c < 1 needs every zero in an all-zero row
    n = data.draw(st.integers(2, 6))
    M = np.array(data.draw(st.lists(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n), min_size=n, max_size=n)), dtype=float)
    assume((M > zero_tol).any(axis=0).all())
    if not is_strictly_contracting(M, zero_tol):
        rep = contraction_coeff(M, zero_tol)
        assert (rep.c, rep.is_strict, rep.a_star) == (1.0, False, None)
        i, j = rep.witness
        assert _exact.m(M[:, i].tolist(), M[:, j].tolist(), zero_tol) == 0


@st.composite
def fuzz_and_random_matrices(draw):
    """n x n matrices, n = 1..5, of the fuzz entries, of 10**U(-9, 9) entries, or of uniform(0, 1) entries and zeros."""
    n = draw(st.integers(1, 5))
    entries = draw(st.sampled_from([st.sampled_from(ENTRIES), st.floats(-9.0, 9.0).map(lambda e: 10.0**e), st.floats(0.0, 1.0) | st.just(0.0)]))
    return np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)), dtype=float)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(M=fuzz_and_random_matrices(), zero_tol=st.sampled_from([0.0, 0.5]))
@example(M=np.array([[1.0, 1e-9], [1e-9, 1.0]]), zero_tol=0.0)
def test_is_strict_is_the_zero_pattern_test_also_where_c_rounds_to_1(M, zero_tol):
    # the paper's second result: a cone-preserving matrix contracts strictly exactly when it is uniformly positive
    assume((M > zero_tol).any(axis=0).all())
    with np.errstate(over="ignore", invalid="ignore"):
        rep = contraction_coeff(M, zero_tol)
    assert rep.is_strict == is_strictly_contracting(M, zero_tol), M.tolist()


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(M=fuzz_and_random_matrices(), zero_tol=st.sampled_from([0.0, 0.5]))
@example(M=np.array([[1.0, 1e-9], [1e-9, 1.0]]), zero_tol=0.0)
def test_a_star_is_within_4_ulp_of_the_exact_m_min_to_the_minus_one_half(M, zero_tol):
    # on guarded input whose exact m_min is a normal double, also where c rounds to 1
    assume((M > zero_tol).any(axis=0).all() and is_strictly_contracting(M, zero_tol) and _quotients_are_finite(M, zero_tol))
    cols = M.T.tolist()
    m_min = min((_exact.m(f, g, zero_tol) for i, f in enumerate(cols) for g in cols[i + 1:]), default=Fraction(1))
    assume(m_min >= Fraction(np.finfo(float).tiny))
    want = float(m_min) ** -0.5
    rep = contraction_coeff(M, zero_tol)
    assert abs(rep.a_star - want) <= 4 * math.ulp(want), (M.tolist(), rep.a_star, want)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_theorem_1_holds_exactly_on_the_fuzz_entries(data):
    # d(Mf, Mg) <= c(M) d(f, g) <= d(f, g) in rational arithmetic, with no tolerance, for cone-preserving M
    n = data.draw(st.integers(2, 4))
    vector = st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)
    M = data.draw(st.lists(vector, min_size=n, max_size=n))
    f, g = data.draw(vector), data.draw(vector)
    assume(all(any(row[j] > 0 for row in M) for j in range(n)) and any(f) and any(g))
    d = _exact.distance(f, g)
    assert _exact.distance(_exact.image(M, f), _exact.image(M, g)) <= _exact.contraction(M) * d <= d, (M, f, g)


def test_contraction_coeff_deterministic_across_workers():
    rng = np.random.default_rng(22)
    M = rng.uniform(0.1, 5.0, size=(40, 40))
    serial = contraction_coeff(M)
    for workers in (1, 2, 4):
        threaded = contraction_coeff(M, workers=workers)
        assert threaded.c == serial.c
        assert threaded.witness == serial.witness


def test_contraction_coeff_witness_is_lexicographically_smallest():
    # columns 1 and 2 are identical, so pairs (0,1) and (0,2) tie for the max
    M = np.array([[1.0, 2.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    rep = contraction_coeff(M)
    assert rep.witness == (0, 1)


def test_one_lipschitz_and_contraction_law():
    rng = np.random.default_rng(23)
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        M = random_cone_preserving_matrix(rng, dim)
        c = contraction_coeff(M).c
        F = np.column_stack([random_cone_vector(rng, dim, zero_prob=0.3) for _ in range(20)])
        G = np.column_stack([random_cone_vector(rng, dim, zero_prob=0.3) for _ in range(20)])
        assert_batch_matches_scalar(F, G, count=3)
        before = batch_pseudo_distance(F, G)
        after = batch_pseudo_distance(M @ F, M @ G)
        assert np.all(after <= before + 1e-10)          # 1-Lipschitz, always
        assert np.all(after <= c * before + 1e-10)       # contraction law
        assert np.all(after <= c + 1e-10)                # coefficient is the sup


def test_contraction_submultiplicative():
    rng = np.random.default_rng(24)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        A = random_cone_preserving_matrix(rng, dim)
        B = random_cone_preserving_matrix(rng, dim)
        assert contraction_coeff(A @ B).c <= contraction_coeff(A).c * contraction_coeff(B).c + 1e-10


# ---------------------------------------------------------------------------
# closed form


def test_formula_examples():
    assert contraction_coeff_formula([[2, 1], [1, 2]]) == 0.6
    assert contraction_coeff_formula([[1, 1], [1, 1]]) == 0.0
    assert contraction_coeff_formula([[3, 1], [1, 3]]) == 0.8
    assert contraction_coeff_formula([[5.0]]) == 0.0


def test_formula_requires_strict_positivity():
    with pytest.raises(ValueError):
        contraction_coeff_formula([[1, 1], [0, 1]])


def test_formula_agrees_with_definitional_and_transpose():
    rng = np.random.default_rng(25)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        M = rng.uniform(0.1, 10.0, size=(dim, dim))
        via_formula = contraction_coeff_formula(M)
        assert abs(via_formula - contraction_coeff(M).c) <= 1e-12
        assert via_formula == contraction_coeff_formula(M.T)


# ---------------------------------------------------------------------------
# zero-pattern predicates


def test_is_uniformly_positive_examples():
    assert is_uniformly_positive([[2, 1], [1, 2]])
    assert not is_uniformly_positive(np.eye(2))
    assert is_uniformly_positive([[1, 1], [0, 0]])
    assert is_uniformly_positive([[1, 0], [1, 0]])  # zeros fill an all-zero column


def test_is_strictly_contracting_examples():
    assert is_strictly_contracting([[1, 1], [0, 0]])
    assert not is_strictly_contracting(np.eye(2))
    assert is_strictly_contracting([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        is_strictly_contracting([[1, 0], [1, 0]])


def test_extreme_dynamic_range_saturates_the_metric():
    # mathematically c < 1 here, but once m falls to ~5.6e-17 the bounded distance (1-m)/(1+m) rounds to exactly
    # 1.0 in double precision; is_strict is the zero-pattern test, and a_star = m**-0.5 keeps m = 2.5e-31's digits
    M = np.array([[2.0, 1e-15], [1e-15, 2.0]])
    assert is_strictly_contracting(M)
    rep = contraction_coeff(M)
    assert rep.c == 1.0 and rep.is_strict
    assert rep.a_star == pytest.approx(2e15, rel=1e-15)


def test_pattern_agrees_with_metric_fuzzed():
    rng = np.random.default_rng(26)
    for _ in range(300):
        dim = int(rng.integers(2, 9))
        M = random_cone_preserving_matrix(rng, dim, zero_prob=float(rng.uniform(0.0, 0.7)))
        assert is_strictly_contracting(M) == (contraction_coeff(M).c < 1.0 - 1e-12)


def test_pattern_agrees_with_metric_exhaustive_2x2():
    rng = np.random.default_rng(27)
    for bits in itertools.product((0, 1), repeat=4):
        pattern = np.array(bits, dtype=float).reshape(2, 2)
        if not (pattern > 0).any(axis=0).all():
            continue
        M = pattern * rng.uniform(0.1, 10.0, size=(2, 2))
        assert is_strictly_contracting(M) == (contraction_coeff(M).c < 1.0 - 1e-12)


# ---------------------------------------------------------------------------
# certificates and the optimal constant


def test_certificate_examples():
    cert = uniform_positivity_certificate([[1, 1], [1, 1]])
    assert cert.A == 1.0
    np.testing.assert_array_equal(cert.h, [1.0, 1.0])
    np.testing.assert_array_equal(cert.b, [1.0, 1.0])

    # Birkhoff's one-sided sandwich: b[1] h = [1, 0.5] <= [1, 2] <= 4 b[1] h, and c = 0.6 <= psi(4) = 15/17
    cert = uniform_positivity_certificate([[2, 1], [1, 2]])
    assert (cert.reference_row, cert.reference_col) == (0, 0)
    np.testing.assert_array_equal(cert.h, [2.0, 1.0])
    np.testing.assert_array_equal(cert.b, [1.0, 0.5])
    assert cert.A == 4.0

    cert = uniform_positivity_certificate([[1, 1], [0, 0]])
    np.testing.assert_array_equal(cert.h, [1.0, 0.0])
    np.testing.assert_array_equal(cert.b, [1.0, 1.0])
    assert cert.A == 1.0


def test_certificate_preconditions():
    with pytest.raises(ValueError):
        uniform_positivity_certificate(np.eye(2))  # not uniformly positive
    with pytest.raises(ValueError):
        uniform_positivity_certificate([[1, 0], [1, 0]])  # not cone-preserving


def test_certificate_sandwich_and_linearity():
    rng = np.random.default_rng(28)
    for _ in range(50):
        dim = int(rng.integers(1, 7))
        M = rng.uniform(0.1, 10.0, size=(dim, dim))
        if rng.random() < 0.3 and dim > 1:
            M[int(rng.integers(dim)), :] = 0.0  # an all-zero row keeps the pattern valid
        if not is_cone_preserving(M):
            continue
        cert = uniform_positivity_certificate(M)
        assert certificate_is_valid(M, cert)
        assert cert.A >= a_star(M) - 1e-10
        # by linearity the sandwich extends from basis rays to the whole cone
        f = random_cone_vector(rng, dim)
        Mf = M @ f
        coeff = float(cert.b @ f)
        slack = 1e-9 * max(Mf.max(), 1.0)
        assert np.all(coeff * cert.h <= Mf + slack)
        assert np.all(Mf <= cert.A * coeff * cert.h + slack)


def test_certificate_is_valid_rejects_tampering():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    cert = uniform_positivity_certificate(M)
    bad = type(cert)(h=cert.h, b=cert.b, A=1.0, reference_row=0, reference_col=0)
    assert not certificate_is_valid(M, bad)
    # the symmetric form A**-1 b[j] h <= M e_j <= A b[j] h holds here with h = b = [2, 1], A = 2, but b[j] h
    # exceeds M e_j (4 > 2 at (0, 0)), so it is no one-sided sandwich
    symmetric = type(cert)(h=np.array([2.0, 1.0]), b=np.array([2.0, 1.0]), A=2.0, reference_row=0, reference_col=0)
    assert not certificate_is_valid(M, symmetric)
    # h * b overflows: a verdict, with no raw RuntimeWarning
    huge = type(cert)(h=np.array([1e200, 1e200]), b=np.array([1e200, 1e200]), A=2.0, reference_row=0, reference_col=0)
    assert not certificate_is_valid(M, huge)
    longer = type(cert)(h=np.append(cert.h, 1.0), b=cert.b, A=cert.A, reference_row=0, reference_col=0)
    with pytest.raises(ValueError, match="^certificate dimensions do not match the matrix$"):
        certificate_is_valid(M, longer)


def test_a_certificate_whose_pivot_product_is_0_times_inf_fails_as_A_inf():
    # b[1] = 5e-324 / 2 underflows to 0 and a[1] = 2 / 5e-324 overflows: min(b * a) is NaN, and A = inf, never nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=r"^the sandwich with A = inf fails its check$"):
            uniform_positivity_certificate([[0.0, 0.0], [2.0, 5e-324]])


def test_a_row_at_or_below_zero_tol_is_a_zero_row_of_the_certificate():
    M = [[1.0, 2.0], [0.3, 0.01]]
    assert is_strictly_contracting(M, 0.5) and contraction_coeff(M, 0.5).c == 0.0
    cert = uniform_positivity_certificate(M, 0.5)
    assert (cert.A, cert.h.tolist(), cert.b.tolist()) == (1.0, [2.0, 0.0], [0.5, 1.0])
    assert certificate_is_valid(M, cert, zero_tol=0.5)
    assert not certificate_is_valid(M, cert)  # at zero_tol 0, row 1 is no zero row


def test_a_star_examples():
    assert a_star([[2, 1], [1, 2]]) == pytest.approx(2.0, abs=1e-12)
    assert a_star([[1, 1], [1, 1]]) == 1.0
    assert a_star([[3, 1], [1, 3]]) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError, match="not strictly contracting"):
        a_star(np.eye(2))
    # strict, but m = 1e-400 underflows to 0: the report keeps c = 1 and no a_star, and a_star() refuses
    M = [[1.0, 1e-200], [1e-200, 1.0]]
    rep = contraction_coeff(M)
    assert (rep.c, rep.is_strict, rep.a_star) == (1.0, True, None)
    with pytest.raises(ArithmeticError, match="m_min is 0 or NaN"):
        a_star(M)


def test_psi_roundtrip_on_random_matrices():
    rng = np.random.default_rng(29)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        M = rng.uniform(0.1, 10.0, size=(dim, dim))
        rep = contraction_coeff(M)
        assert abs(psi(rep.a_star) - rep.c) <= 1e-12


# ---------------------------------------------------------------------------
# the blocked aleph scan against the per-row formula it replaces


def _aleph_columns_per_row(M, zero_tol):
    """One support copy and one quotient block per column, reduced at once; an entry at or below ``zero_tol`` is 0."""
    M = np.where(M > zero_tol, M, 0.0)
    out = np.empty((M.shape[1], M.shape[1]))
    for i in range(M.shape[1]):
        sup = M[:, i] > 0.0
        out[i, :] = (M[sup, :] / M[sup, i, None]).min(axis=0)
    return out


def _min_pair_product_dense(al):
    """The n x n reduction: m and argmin over the upper triangle."""
    m = np.minimum(al * al.T, 1.0)
    rows, cols = np.triu_indices(al.shape[0], k=1)
    vals = m[rows, cols]
    k = int(np.argmin(vals))
    return float(vals[k]), (int(rows[k]), int(cols[k]))


def _scan_corpus(rng, n):
    """(label, matrix, zero_tol) for each kind of input the scan must reproduce."""
    dense = rng.uniform(0.1, 10.0, size=(n, n))
    zeros = random_cone_preserving_matrix(rng, n, zero_prob=0.3)
    # zeros confined to all-zero rows keep c < 1, so the witness is informative
    zero_rows = dense.copy()
    zero_rows[rng.random(n) < 0.3] = 0.0
    zero_rows[0] = 1.0
    tol = rng.uniform(0.0, 1.0, size=(n, n))
    tol[0] = 0.9
    wide = 10.0 ** rng.uniform(-300.0, 300.0, size=(n, n))
    tiny = rng.uniform(0.0, 1e-310, size=(n, n))
    tiny[rng.random((n, n)) < 0.3] = 1.0
    tiny[0] = 5e-324
    # pair (0, n - 1) alone has m near 1e-18, a distance of 1.0
    saturated = rng.uniform(1.0, 2.0, size=(n, n))
    saturated[0, 0] = saturated[-1, -1] = 1e-9
    return [
        ("dense", dense, 0.0),
        ("30% zeros", zeros, 0.0),
        ("all-zero rows", zero_rows, 0.0),
        ("zero_tol 0.5", tol, 0.5),
        ("1e+-300", wide, 0.0),
        ("subnormal", tiny, 0.0),
        ("one saturated pair", saturated, 0.0),
        ("ties", rng.choice([1.0, 2.0, 3.0], size=(n, n)), 0.0),
    ]


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, _SCAN_BLOCK_ROWS - 1, _SCAN_BLOCK_ROWS, _SCAN_BLOCK_ROWS + 1, 2 * _SCAN_BLOCK_ROWS + 2, 203, 256, 257])
def test_blocked_scan_is_bitwise_the_per_row_formula(n):
    # the table is built on the rows with support of a uniformly positive pattern, which hold no zero
    rng = np.random.default_rng(1000 + n)
    for label, M, zt in _scan_corpus(rng, n):
        al = _aleph_columns_per_row(M, zt)
        pos = M > zt
        if is_uniformly_positive(M, zt):
            P = M[pos.any(axis=1)]
            for workers in (1, 2):
                assert np.array_equal(_aleph_columns(P, workers), al), (label, workers)
        reports = [contraction_coeff(M, zt, workers=w) for w in (None, 1, 2, 3)]
        if label == "one saturated pair":
            assert reports[0].c == float(n > 1) and reports[0].is_strict
        assert reports[0].is_strict == is_strictly_contracting(M, zt), label
        if n > 1:
            m, witness = _min_pair_product_dense(al)
            c, a = c_and_a_star(m)
            assert _same(reports[0].c, c) and reports[0].witness == witness and reports[0].a_star == a, label
        for rep in reports[1:]:
            assert _same(rep.c, reports[0].c), label
            assert rep.witness == reports[0].witness, label
            assert rep.a_star == reports[0].a_star, label


def _aleph_columns_per_row_int16(Q):
    """The int16 table per row: the least exact difference ``Q[k, :] - Q[k, i]`` over every row."""
    out = np.empty((Q.shape[1], Q.shape[1]), np.int16)
    for i in range(Q.shape[1]):
        out[i, :] = (Q.astype(np.int32) - Q[:, i, None]).min(axis=0)
    return out


@pytest.mark.parametrize("n", [128, 129, 300])
def test_int16_scan_is_bitwise_the_per_row_differences(n):
    # 8, 7 and 3 columns per step
    rng = np.random.default_rng(3000 + n)
    Q = rng.integers(0, _LOG_STEPS + 1, size=(n, n)).astype(np.int16)
    want = _aleph_columns_per_row_int16(Q)
    for workers in (1, 2):
        assert np.array_equal(_aleph_columns(Q, workers), want), workers


@pytest.mark.parametrize("dtype, rows, n", [(np.float64, 300, 512), (np.float64, 60, 100), (np.int16, 100, 512)])
def test_scan_of_fewer_rows_than_columns_is_bitwise_the_per_row_formula(dtype, rows, n):
    # contraction_coeff scans only the rows with support
    rng = np.random.default_rng(3100 + rows)
    small = rng.random((rows, n)) < 0.2
    if dtype is np.int16:
        M = rng.integers(0, _LOG_STEPS + 1, size=(rows, n)).astype(np.int16)
        want = _aleph_columns_per_row_int16(M)
    else:
        M = np.where(small, rng.uniform(0.01, 0.05, size=(rows, n)), rng.uniform(0.1, 10.0, size=(rows, n)))
        want = _aleph_columns_per_row(M, 0.0)
    for workers in (1, 2):
        assert np.array_equal(_aleph_columns(M, workers), want), workers


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_blocked_scan_nan_distance_wins_at_first_occurrence():
    # pairs (1, 2) and (2, 3) have m = inf * 0 = NaN; the dense argmax picks
    # the first NaN even though the finite pair (0, 1) comes earlier
    M = np.tile([1.0, 1e-310, 1e300, 1e-310], (4, 1))
    al = _aleph_columns_per_row(M, 0.0)
    m, witness = _min_pair_product_dense(al)
    rep = contraction_coeff(M)
    assert math.isnan(m) and witness == (1, 2)
    assert math.isnan(rep.c) and rep.witness == (1, 2) and rep.a_star is None and rep.is_strict


@pytest.mark.parametrize("workers", [None, 2])
def test_scan_runs_under_the_callers_error_state(workers):
    # column 1 divides row 0 into 1e300 / 1e-10, which overflows
    M = np.ones((4, 4))
    M[0, 0], M[0, 1] = 1e300, 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            report = contraction_coeff(M, workers=workers)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            contraction_coeff(M, workers=workers)
    with np.errstate(over="ignore"):
        assert report == contraction_coeff(M)


# ---------------------------------------------------------------------------
# c = 1 decided by the zero pattern, and saturated by rounding, against the full scan


_SHORTCUT_VALUES = np.array([1e-310, 1e-300, 1e-15, 0.3, 1.0, 2.0, 1e15, 1e300])


def _shortcut_corpus(rng, count):
    """(matrix, zero_tol) pairs: n = 2..70, 0-50% zeros, some zeros only in all-zero rows.

    Entries come from _SHORTCUT_VALUES or uniform(0, 1).  zero_tol cycles
    through 0, 0.5 with no entry in (0, 0.5], and 0.5 with such entries.
    Every fifth matrix writes its zeros as -0.0.  The first matrix has its
    zeros in an all-zero row, and c rounds to 1.0 on its pair (0, 1).  Then
    ``count // 20`` uniform(1, 2) matrices whose pair (0, j) holds one 1e-9
    each, so that its distance rounds to 1.0 on a uniformly positive pattern.
    """
    yield np.array([[1e-15, 1e15, 1.0], [1e15, 1e-15, 1.0], [0.0, 0.0, 0.0]]), 0.0
    for k in range(count):
        n = int(rng.integers(2, 71))
        if k % 2:
            M = rng.choice(_SHORTCUT_VALUES, size=(n, n))
        else:
            M = rng.uniform(0.0, 1.0, size=(n, n))
        if k % 4 == 3:
            M[rng.random(n) < 0.3] = 0.0
        else:
            M[rng.random((n, n)) < rng.uniform(0.0, 0.5)] = 0.0
        zt = (0.0, 0.5, 0.5)[k % 3]
        if k % 3 == 1:
            M[(M > 0.0) & (M <= zt)] = 0.0
        for j in np.flatnonzero(~(M > zt).any(axis=0)):
            M[int(rng.integers(n)), j] = 1.0
        if k % 5 == 0:
            M[M == 0.0] = -0.0
        yield M, zt
    for _ in range(count // 20):
        n = int(rng.integers(2, 71))
        M = rng.uniform(1.0, 2.0, size=(n, n))
        k, l = rng.choice(n, size=2, replace=False)
        M[k, 0] = M[l, int(rng.integers(1, n))] = 1e-9
        yield M, 0.0


def _quotients_are_finite(M, zero_tol):
    """max(M) / min(M[M > zero_tol]) is finite and positive: no quotient of the scan overflows."""
    lo = float(M[M > zero_tol].min())
    return lo > 0.0 and math.isfinite(float(M.max()) / lo)


def _rows_with_support(M, zero_tol):
    return M[(M > zero_tol).any(axis=1)]


def test_pattern_shortcut_is_bitwise_the_full_scan(aleph_scans):
    rng = np.random.default_rng(2024)
    patterns = saturated = refused = 0
    for M, zt in _shortcut_corpus(rng, 600):
        scans = len(aleph_scans)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = contraction_coeff(M, zt)
        label = (M.tolist(), zt)
        if not is_uniformly_positive(M, zt):  # the zero pattern decides, with the first pair at exact m = 0
            assert (rep.c, rep.witness, rep.a_star) == (1.0, _exact.first_pair_at_m_0(M.tolist(), zt), None), label
            assert len(aleph_scans) == scans, label
            patterns += 1
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            m, witness = farthest_pair(_aleph_columns(_rows_with_support(M, zt)))
        c, a = c_and_a_star(m)
        assert _same(rep.c, c) and rep.witness == witness and rep.a_star == a and rep.is_strict, label
        saturated += rep.c == 1.0
        refused += not _quotients_are_finite(M, zt)
    # every route is exercised: the zero pattern, a distance saturated by rounding on a strict pattern, and the
    # overflow guard
    assert patterns >= 200 and saturated >= 10 and refused >= 10, (patterns, saturated, refused)


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_pattern_shortcut_keeps_the_overflow_verdicts():
    # a failed zero pattern divides nothing, so it settles c = 1 without an overflow
    rng = np.random.default_rng(2025)
    raised = 0
    for M, zt in _shortcut_corpus(rng, 300):
        if not is_uniformly_positive(M, zt):
            with np.errstate(over="raise"):
                rep = contraction_coeff(M, zt)
            assert (rep.c, rep.witness) == (1.0, _exact.first_pair_at_m_0(M.tolist(), zt)), (M.tolist(), zt)
            continue
        P = _rows_with_support(M, zt)
        verdicts = []
        for route in (lambda: contraction_coeff(M, zt), lambda: farthest_pair(_aleph_columns(P))):
            try:
                with np.errstate(over="raise"):
                    rep = route()
                c, witness = (c_and_a_star(rep[0])[0], rep[1]) if isinstance(rep, tuple) else (rep.c, rep.witness)
                verdicts.append((repr(c), witness))
            except FloatingPointError:
                verdicts.append("overflow")
        assert verdicts[0] == verdicts[1], (M.tolist(), zt)
        raised += verdicts[0] == "overflow"
    assert raised >= 20


def test_pattern_shortcut_leaves_the_nan_coefficient(aleph_scans):
    # 1e300 / 1e-310 overflows, so at full scan pair (1, 2) is inf * 0 = NaN; but the zero at (3, 0) gives column 0
    # a support that column 1 does not share, which settles c = 1 at pair (0, 1) before any division
    M = np.tile([1.0, 1e-310, 1e300, 1e-310], (4, 1))
    M[3, 0] = 0.0
    rep = contraction_coeff(M)
    assert (rep.c, rep.witness, rep.a_star) == (1.0, (0, 1), None)
    assert aleph_scans == []


def test_pattern_shortcut_skips_the_scan_at_n_1024(aleph_scans):
    M = random_cone_preserving_matrix(np.random.default_rng(2026), 1024, zero_prob=0.3)
    start = time.perf_counter()
    rep = contraction_coeff(M)
    elapsed = time.perf_counter() - start
    assert rep.c == 1.0 and rep.witness[0] == 0 and rep.a_star is None
    assert aleph_scans == [] and elapsed < 1.0, elapsed


def test_a_single_saturated_pair_is_the_witness_with_its_a_star():
    # m is about 1e-18 on pair (0, 150) alone: c rounds to 1.0, and a_star = m**-0.5 is about 1e9
    M = np.random.default_rng(0).uniform(1.0, 2.0, size=(200, 200))
    M[3, 0] = M[7, 150] = 1e-9
    rep = contraction_coeff(M)
    assert rep.c == 1.0 and rep.is_strict and rep.witness == (0, 150) and 1e8 < rep.a_star < 1e10
    m, witness = farthest_pair(_aleph_columns(M))
    assert (c_and_a_star(m), witness) == ((rep.c, rep.a_star), rep.witness)


def _route_matrix(rng, route):
    """(matrix, zero_tol) at n = 512 that contraction_coeff sends down ``route``; "n = 511" and "ties, 30% zero rows" are at n = 511."""
    if route == "ties":
        return rng.choice([1.0, 2.0, 3.0], size=(512, 512)), 0.0
    if route == "ties, 30% zero rows":
        M = rng.choice([1.0, 2.0, 3.0], size=(511, 511))
        M[rng.random(511) < 0.3] = 0.0
        return M, 0.0
    if route == "1e+-200":
        return 10.0 ** rng.uniform(-200.0, 200.0, size=(512, 512)), 0.0
    if route == "30% zeros":
        return random_cone_preserving_matrix(rng, 512, zero_prob=0.3), 0.0
    M = rng.uniform(0.1, 10.0, size=(511, 511) if route == "n = 511" else (512, 512))
    if route == "zero rows":
        M[rng.random(512) < 0.2] = 0.0
    return M, 0.0


# the int16 screen (one table, or two with the float64 fallback; at every n), the float64 scan, and the zero pattern;
# both tables hold only the rows with support: 416 of 512 and 347 of 511 on the zero-row routes
@pytest.mark.parametrize("route, scans", [
    ("dense", [(512, np.int16)]),
    ("zero rows", [(416, np.int16)]),
    ("ties", [(512, np.int16), (512, np.float64)]),
    ("1e+-200", [(512, np.float64)]),
    ("30% zeros", []),
    ("n = 511", [(511, np.int16)]),
    ("ties, 30% zero rows", [(347, np.int16), (347, np.float64)]),
])
def test_scan_peak_memory_is_at_most_2_5_times_the_matrix(aleph_scans, route, scans):
    M, zt = _route_matrix(np.random.default_rng(2032), route)
    # the thread count the bound was set at (a 2-CPU machine): each further thread's buffer adds 0.25x the matrix here
    workers = 2 if M.shape[0] >= 512 else 1
    tracemalloc.start()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            contraction_coeff(M, zt, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aleph_scans == scans
    assert peak <= 2.5 * M.nbytes, peak / M.nbytes


def _saturated_pair_matrix(rng, n):
    """uniform(1, 2) with one random column pair (i, j) at distance 1.0 and no other pair there.

    Columns i and j each hold 1e-9 in a different row, so their m is about
    1e-18 and (1 - m) / (1 + m) rounds to 1.0, while every other pair keeps
    m above 1e-10.
    """
    M = rng.uniform(1.0, 2.0, size=(n, n))
    i, j = rng.choice(n, size=2, replace=False)
    k, l = rng.choice(n, size=2, replace=False)
    M[k, i] = M[l, j] = 1e-9
    return M


def test_permutations_leave_c_bitwise_unchanged():
    rng = np.random.default_rng(2030)
    for count in range(60):
        n = int(rng.integers(3, 25))
        M = _saturated_pair_matrix(rng, n) if count % 2 else random_cone_preserving_matrix(rng, n, zero_prob=0.3)
        base = contraction_coeff(M)
        for _ in range(6):
            rows, cols = rng.permutation(n), rng.permutation(n)
            rep = contraction_coeff(M[rows][:, cols])
            assert rep.c == base.c, (M.tolist(), rows, cols)
            i, j = rep.witness
            assert pseudo_distance(M[rows, cols[i]], M[rows, cols[j]]) == rep.c


def test_narrow_gaussian_grid_saturates_c_on_its_farthest_pair():
    # m = exp(-2 s**2 / sigma) with s = 1 - 1/512, about 5e-18: c rounds to 1.0 on the strict grid
    grid = tabulate_kernel(builtin_kernel("gaussian", sigma=0.05), 512)
    for rep in (kernel_contraction_estimate(grid), contraction_coeff(grid.values)):
        assert (rep.c, rep.is_strict, rep.witness) == (1.0, True, (0, 511))


# ---------------------------------------------------------------------------
# threads for the scan: the process's CPUs from n = 512 on


@pytest.fixture
def pool_sizes(monkeypatch):
    """Thread counts of the pools the scan starts."""
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(matrices, "ThreadPoolExecutor", RecordingPool)
    return sizes


def test_scan_stays_serial_on_one_cpu_and_below_512(monkeypatch, pool_sizes):
    M = np.random.default_rng(2027).uniform(0.5, 1.5, size=(512, 512))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    contraction_coeff(M)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    contraction_coeff(M[:511, :511])
    assert pool_sizes == []


def test_scan_uses_two_cpus_at_512_with_the_serial_report(monkeypatch, pool_sizes):
    M = np.random.default_rng(2028).uniform(0.5, 1.5, size=(512, 512))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    threaded = contraction_coeff(M)
    assert pool_sizes == [2]
    assert threaded == contraction_coeff(M, workers=1)
    assert pool_sizes == [2]


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1
