import itertools
import math
import os
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

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
    psi_inverse,
    tabulate_kernel,
    uniform_positivity_certificate,
)
from projcone import matrices
from projcone.matrices import _SCAN_BLOCK_ROWS, _aleph_columns, _max_pair_distance, _usable_cpus

from _util import assert_batch_matches_scalar, batch_pseudo_distance, random_cone_preserving_matrix, random_cone_vector


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


def test_contraction_coeff_requires_cone_preserving():
    with pytest.raises(ValueError, match="column 1"):
        contraction_coeff([[1, 0], [1, 0]])


def test_contraction_coeff_matches_pairwise_m_ratio():
    rng = np.random.default_rng(21)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        M = random_cone_preserving_matrix(rng, dim)
        rep = contraction_coeff(M)
        pairwise = max(
            phi(m_ratio(M[:, i], M[:, j]).m) for i in range(dim) for j in range(i + 1, dim)
        )
        assert rep.c == pairwise  # bitwise: same divisions, same reductions


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
    # mathematically c < 1 here, but once m drops below ~2e-17 the bounded
    # distance (1-m)/(1+m) rounds to exactly 1.0 in double precision; the
    # zero-pattern test works on exact entries and is not affected
    M = np.array([[2.0, 1e-15], [1e-15, 2.0]])
    assert is_strictly_contracting(M)
    rep = contraction_coeff(M)
    assert rep.c == 1.0 and not rep.is_strict


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

    cert = uniform_positivity_certificate([[2, 1], [1, 2]])
    assert (cert.reference_row, cert.reference_col) == (0, 0)
    np.testing.assert_array_equal(cert.h, [2.0, 1.0])
    np.testing.assert_array_equal(cert.b, [2.0, 1.0])
    assert cert.A == 2.0

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
        assert np.all(coeff * cert.h / cert.A <= Mf + slack)
        assert np.all(Mf <= cert.A * coeff * cert.h + slack)


def test_certificate_is_valid_rejects_tampering():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    cert = uniform_positivity_certificate(M)
    bad = type(cert)(h=cert.h, b=cert.b, A=1.0, reference_row=0, reference_col=0)
    assert not certificate_is_valid(M, bad)


def test_a_star_examples():
    assert a_star([[2, 1], [1, 2]]) == pytest.approx(2.0, abs=1e-12)
    assert a_star([[1, 1], [1, 1]]) == 1.0
    assert a_star([[3, 1], [1, 3]]) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        a_star(np.eye(2))


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
    """One support copy and one quotient block per column, reduced at once."""
    out = np.empty(M.shape)
    for i in range(M.shape[1]):
        sup = M[:, i] > zero_tol
        out[i, :] = (M[sup, :] / M[sup, i, None]).min(axis=0)
    return out


def _max_pair_distance_dense(al):
    """The n x n reduction: m, distance and argmax over the upper triangle."""
    m = np.minimum(al * al.T, 1.0)
    dist = (1.0 - m) / (1.0 + m)
    rows, cols = np.triu_indices(al.shape[0], k=1)
    vals = dist[rows, cols]
    k = int(np.argmax(vals))
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
    return [
        ("dense", dense, 0.0),
        ("30% zeros", zeros, 0.0),
        ("all-zero rows", zero_rows, 0.0),
        ("zero_tol 0.5", tol, 0.5),
        ("1e+-300", wide, 0.0),
        ("subnormal", tiny, 0.0),
    ]


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, _SCAN_BLOCK_ROWS - 1, _SCAN_BLOCK_ROWS, _SCAN_BLOCK_ROWS + 1, 203])
def test_blocked_scan_is_bitwise_the_per_row_formula(n):
    rng = np.random.default_rng(1000 + n)
    for label, M, zt in _scan_corpus(rng, n):
        al = _aleph_columns_per_row(M, zt)
        assert np.array_equal(_aleph_columns(M, M > zt), al), label
        reports = [contraction_coeff(M, zt, workers=w) for w in (None, 1, 2, 3)]
        if n > 1:
            c, witness = _max_pair_distance_dense(al)
            assert _same(reports[0].c, c) and reports[0].witness == witness, label
        for rep in reports[1:]:
            assert _same(rep.c, reports[0].c), label
            assert rep.witness == reports[0].witness, label
            assert rep.a_star == reports[0].a_star, label


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_blocked_scan_nan_distance_wins_at_first_occurrence():
    # pairs (1, 2) and (2, 3) have m = inf * 0 = NaN; the dense argmax picks
    # the first NaN even though the finite pair (0, 1) comes earlier
    M = np.tile([1.0, 1e-310, 1e300, 1e-310], (4, 1))
    al = _aleph_columns_per_row(M, 0.0)
    c, witness = _max_pair_distance_dense(al)
    rep = contraction_coeff(M)
    assert math.isnan(c) and witness == (1, 2)
    assert math.isnan(rep.c) and rep.witness == (1, 2) and rep.a_star is None


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
# c = 1 decided from row 0 of the pair table, against the full scan


_SHORTCUT_VALUES = np.array([1e-310, 1e-300, 1e-15, 0.3, 1.0, 2.0, 1e15, 1e300])


def _shortcut_corpus(rng, count):
    """(matrix, zero_tol) pairs: n = 2..70, 0-50% zeros, some zeros only in all-zero rows.

    Entries come from _SHORTCUT_VALUES or uniform(0, 1).  zero_tol cycles
    through 0, 0.5 with no entry in (0, 0.5], and 0.5 with such entries.
    Every fifth matrix writes its zeros as -0.0.  The first matrix has its
    zeros in an all-zero row, and c rounds to 1.0 on its pair (0, 1).
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


def _quotients_are_finite(M, zero_tol):
    """max(M) / min(M[M > zero_tol]) is finite and positive: no quotient of the scan overflows."""
    lo = float(M[M > zero_tol].min())
    return lo > 0.0 and math.isfinite(float(M.max()) / lo)


def _row_0_decides(M, zero_tol, al):
    """Whether c(M) = 1 may be settled without the scan, read off the full aleph table ``al``."""
    if not _quotients_are_finite(M, zero_tol):
        return False
    m = np.minimum(al[0, 1:] * al[1:, 0], 1.0)
    return bool(((1.0 - m) / (1.0 + m) == 1.0).any())


def test_pattern_shortcut_is_bitwise_the_full_scan(aleph_scans):
    rng = np.random.default_rng(2024)
    decided = beyond_pattern = refused = 0
    for M, zt in _shortcut_corpus(rng, 600):
        scans = len(aleph_scans)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = contraction_coeff(M, zt)
            al = _aleph_columns(M, M > zt)
            c, witness = _max_pair_distance(al)
        label = (M.tolist(), zt)
        assert _same(rep.c, c) and rep.witness == witness, label
        assert rep.a_star == (psi_inverse(c) if c < 1.0 else None), label
        decides = _row_0_decides(M, zt, al)
        assert (len(aleph_scans) == scans) == decides, label
        offender = not is_uniformly_positive(M, zt)
        exact_zeros = not ((M > 0.0) & (M <= zt)).any()
        decided += decides
        beyond_pattern += decides and not (offender and exact_zeros)
        refused += not _quotients_are_finite(M, zt)
    # every route is exercised: the rule, the rule where the zero pattern alone
    # does not decide (entries in (0, zero_tol], zeros only in all-zero rows), and the overflow guard
    assert decided >= 200 and beyond_pattern >= 50 and refused >= 10, (decided, beyond_pattern, refused)


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_pattern_shortcut_keeps_the_overflow_verdicts():
    rng = np.random.default_rng(2025)
    raised = 0
    for M, zt in _shortcut_corpus(rng, 300):
        verdicts = []
        for route in (lambda: contraction_coeff(M, zt), lambda: _max_pair_distance(_aleph_columns(M, M > zt))):
            try:
                with np.errstate(over="raise"):
                    rep = route()
                c, witness = rep if isinstance(rep, tuple) else (rep.c, rep.witness)
                verdicts.append((repr(c), witness))
            except FloatingPointError:
                verdicts.append("overflow")
        assert verdicts[0] == verdicts[1], (M.tolist(), zt)
        raised += verdicts[0] == "overflow"
    assert raised >= 20


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_pattern_shortcut_leaves_the_nan_coefficient(aleph_scans):
    # row 0 of the pair table reaches 1.0 at (0, 1), but 1e300 / 1e-310
    # overflows, so pair (1, 2) is inf * 0 = NaN, as at full scan
    M = np.tile([1.0, 1e-310, 1e300, 1e-310], (4, 1))
    M[3, 0] = 0.0
    rep = contraction_coeff(M)
    assert math.isnan(rep.c) and rep.witness == (1, 2) and rep.a_star is None
    assert aleph_scans == [(4, np.float64)]


def test_pattern_shortcut_skips_the_scan_at_n_1024(aleph_scans):
    M = random_cone_preserving_matrix(np.random.default_rng(2026), 1024, zero_prob=0.3)
    start = time.perf_counter()
    rep = contraction_coeff(M)
    elapsed = time.perf_counter() - start
    assert rep.c == 1.0 and rep.witness[0] == 0 and rep.a_star is None
    assert aleph_scans == [] and elapsed < 1.0, elapsed


def _route_matrix(rng, route):
    """(matrix, zero_tol) at n = 512 (n = 511 for "n = 511") that contraction_coeff sends down ``route``."""
    if route == "ties":
        return rng.choice([1.0, 2.0, 3.0], size=(512, 512)), 0.0
    if route == "1e+-200":
        return 10.0 ** rng.uniform(-200.0, 200.0, size=(512, 512)), 0.0
    if route == "30% zeros":
        return random_cone_preserving_matrix(rng, 512, zero_prob=0.3), 0.0
    M = rng.uniform(0.1, 10.0, size=(511, 511) if route == "n = 511" else (512, 512))
    if route == "zero rows, zero_tol 0.5":
        M[rng.random(512) < 0.2] = 0.0
        return M, 0.5
    return M, 0.0


# the float32 screen (one table, or two with the float64 fallback), the float64 scan, and the row-0 rule
@pytest.mark.parametrize("route, scans", [
    ("dense", [(512, np.float32)]),
    ("zero rows, zero_tol 0.5", [(512, np.float32)]),
    ("ties", [(512, np.float32), (512, np.float64)]),
    ("1e+-200", [(512, np.float64)]),
    ("30% zeros", []),
    ("n = 511", [(511, np.float64)]),
])
def test_scan_peak_memory_is_at_most_2_5_times_the_matrix(aleph_scans, route, scans):
    M, zt = _route_matrix(np.random.default_rng(2032), route)
    tracemalloc.start()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            contraction_coeff(M, zt)
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


def test_permutations_leave_c_bitwise_unchanged(aleph_scans):
    rng = np.random.default_rng(2030)
    routes = set()
    for count in range(60):
        n = int(rng.integers(3, 25))
        M = _saturated_pair_matrix(rng, n) if count % 2 else random_cone_preserving_matrix(rng, n, zero_prob=0.3)
        base = contraction_coeff(M)
        for _ in range(6):
            rows, cols = rng.permutation(n), rng.permutation(n)
            scans = len(aleph_scans)
            rep = contraction_coeff(M[rows][:, cols])
            routes.add((count % 2, len(aleph_scans) == scans))
            assert rep.c == base.c, (M.tolist(), rows, cols)
            i, j = rep.witness
            assert pseudo_distance(M[rows, cols[i]], M[rows, cols[j]]) == rep.c
    # saturated pairs take the row-0 route under some permutations and the scan under others
    assert {(1, True), (1, False)} <= routes, routes


def test_narrow_gaussian_grid_runs_no_scan(aleph_scans):
    grid = tabulate_kernel(builtin_kernel("gaussian", sigma=0.05), 512)
    assert kernel_contraction_estimate(grid).c == 1.0
    assert contraction_coeff(grid.values).c == 1.0
    assert aleph_scans == []


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
