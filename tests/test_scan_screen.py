"""The int16 log screen of the column-pair scan against the full float64 scan, and the routes contraction_coeff takes."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from projcone import builtin_kernel, contraction_coeff, discretize, is_strictly_contracting, kernel_contraction_estimate, tabulate_kernel
from projcone.matrices import _aleph_columns, _quotients_are_finite, _screened_min_pair_product

import _exact
from _util import c_and_a_star, farthest_pair
from test_perron import _perron_loop_matrix


def _full_scan(P):
    """The float64 scan and pair reduction of rows ``P`` with no zero, which the screen must reproduce bit for bit."""
    with np.errstate(all="ignore"):
        return farthest_pair(_aleph_columns(P))


def _screen(P, workers=1):
    # under the guard, on these inputs, no quotient or product of the screen overflows or underflows
    with np.errstate(over="raise", under="raise"):
        return _screened_min_pair_product(P, workers) if _quotients_are_finite(P) else None


def _near_rank_one(rng, n, eps=1e-9):
    """An outer product perturbed by about ``eps`` per entry, so that c is about ``eps``."""
    u, v = rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)
    return np.outer(u, v) * (1.0 + eps * rng.uniform(-1.0, 1.0, size=(n, n)))


def _toeplitz_grid(rng, n):
    """A Gaussian kernel on a regular grid, or a circulant, perturbed at about the screen's quantization step: many near-tied pairs."""
    x = np.arange(n)
    if rng.random() < 0.5:
        M = rng.uniform(0.01, 0.1) + np.exp(-(((x[:, None] - x[None, :]) / n) ** 2) / rng.uniform(0.05, 0.5))
    else:
        M = rng.uniform(0.1, 10.0, size=n)[(x[:, None] - x[None, :]) % n]
    return M * (1.0 + 10.0 ** rng.uniform(-9.0, -2.5) * rng.uniform(-1.0, 1.0, size=(n, n)))


def _spanning(rng, n, ratio):
    """A perturbed outer product of log-uniform vectors with smallest entry 1.0 and largest ``ratio``."""
    a, b = rng.uniform(0.0, 29.0, size=(2, n))
    M = np.outer(2.0**a, 2.0**b) * rng.uniform(1.0, 1.5, size=(n, n))
    M /= M.min()
    M[np.unravel_index(np.argmax(M), M.shape)] = ratio
    return M


def _near_one(rng, n):
    """c near 1 (m about 1e-16): a Gaussian grid whose farthest columns are 30-40 nats apart, or uniform(1, 2) with two entries near 1e-8."""
    if rng.random() < 0.5:
        x = (np.arange(n) + 0.5) / n
        span = x[-1] - x[0]
        return np.exp(-rng.uniform(30.0, 40.0) * (x[:, None] - x[None, :]) ** 2 / (2.0 * span**2))
    M = rng.uniform(1.0, 2.0, size=(n, n))
    (i, j), (k, l) = rng.choice(n, size=2, replace=False), rng.choice(n, size=2, replace=False)
    M[k, i], M[l, j] = 10.0 ** rng.uniform(-8.3, -7.7, size=2)
    return M


@st.composite
def screen_cases(draw):
    """Rows with support of a uniformly positive matrix, which hold no zero: n = 2..40, scaled by a power of two or their rows and columns scaled."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "columns", "rank_one", "rank_one_1e-6", "rank_one_1e-12", "toeplitz",
                                 "under_2_60", "over_2_60", "uniform", "near_one"]))
    if kind == "ties":
        M = rng.choice([1.0, 2.0, 3.0], size=(n, n))
    elif kind == "columns":
        # duplicated and power-of-ten-scaled copies of a few base columns
        base = rng.uniform(1.0, 2.0, size=(n, int(rng.integers(1, n + 1))))
        M = base[:, rng.integers(base.shape[1], size=n)] * 10.0 ** rng.integers(-5, 6, size=n)
    elif kind.startswith("rank_one"):
        M = _near_rank_one(rng, n, float(kind[9:] or 1e-9))
    elif kind == "toeplitz":
        M = _toeplitz_grid(rng, n)
    elif kind == "uniform":
        M = rng.uniform(0.0, 1.0, size=(n, n))
    elif kind == "near_one":
        M = _near_one(rng, n)
    else:
        M = _spanning(rng, n, 2.0**60 * (1.0 - 2.0**-52 if kind == "under_2_60" else 1.0 + 2.0**-52))
    if draw(st.booleans()):  # fewer rows than columns, as where all-zero rows are left out
        M = M[: int(rng.integers(1, n + 1))]
    if draw(st.booleans()):  # a row- and column-scaled copy, whose scalings the screen's balancing takes out
        return M * 2.0 ** rng.uniform(-20.0, 20.0, size=(len(M), 1)) * 2.0 ** rng.uniform(-20.0, 20.0, size=n)
    # 2**-1020 makes the smallest entries subnormal
    return M * draw(st.sampled_from([1.0, 2.0**-1020, 2.0**-600, 2.0**930]))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(P=screen_cases(), workers=st.sampled_from([1, 2]))
def test_screen_is_bitwise_the_full_float64_scan(P, workers):
    screened = _screen(P, workers)
    if screened is not None:
        m, witness = _full_scan(P)
        assert repr(screened[0]) == repr(m) and screened[1] == witness, P.tolist()


def test_screen_applies_and_refuses_where_documented(aleph_scans):
    rng = np.random.default_rng(3101)
    # any range the guard admits, and distances near 1e-9, which the balanced logs resolve
    near = _near_rank_one(rng, 40)
    assert 1e-10 < c_and_a_star(_full_scan(near)[0])[0] < 1e-8
    with_zero = rng.uniform(0.1, 10.0, size=(40, 40))
    with_zero[3, 5] = 0.0
    for M in (rng.uniform(0.1, 10.0, size=(40, 40)), _spanning(rng, 40, 2.0**60), _spanning(rng, 40, 2.0**900), near):
        (m, witness), screened = _full_scan(M), _screen(M)
        assert (repr(screened[0]), screened[1]) == (repr(m), witness)
    # an exact zero in a row with support: the zero pattern settles c = 1 before any table
    aleph_scans.clear()
    report = contraction_coeff(with_zero)
    assert (report.c, report.witness, report.a_star, aleph_scans) == (1.0, (0, 5), None, [])
    # more than n candidates: ties
    assert _screen(rng.choice([1.0, 2.0, 3.0], size=(40, 40))) is None


@st.composite
def zero_in_a_used_row(draw):
    """Guarded cone-preserving matrices, entries from subnormal to 1e+-300, with an exact zero in a row with support."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.floats(-323.0, -300.0) | st.floats(-323.0, 300.0))  # subnormal entries often
    hi = min(lo + draw(st.floats(0.0, 307.0)), 308.0)  # max / min stays below 1e307: the guard holds
    M = 10.0 ** rng.uniform(lo, hi, size=(n, n))
    M[rng.random((n, n)) < draw(st.floats(0.0, 0.5))] = 0.0
    if draw(st.booleans()):  # all-zero rows too
        M[rng.random(n) < 0.3] = 0.0
    k, j = (int(v) for v in rng.integers(n, size=2))
    M[k, j], M[k, (j + 1) % n] = 0.0, 10.0**lo
    others = np.delete(np.arange(n), k)
    for col in np.flatnonzero(~(M > 0.0).any(axis=0)):
        M[int(rng.choice(others)), col] = 10.0**hi
    if draw(st.booleans()):
        M[M == 0.0] = -0.0
    return M


@settings(max_examples=300, derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(M=zero_in_a_used_row())
def test_exact_zeros_of_used_rows_are_settled_by_the_pattern(aleph_scans, M):
    # no table is built, and the witness is the first pair whose exact m is 0
    aleph_scans.clear()
    report = contraction_coeff(M)
    assert aleph_scans == []
    assert (report.c, report.a_star) == (1.0, None)
    assert report.witness == _exact.first_pair_at_m_0(M.tolist())


def test_an_entry_at_or_below_zero_tol_is_a_zero_of_the_pattern(aleph_scans):
    # M[7, 0] lies in (0, zero_tol]: a zero of column 0 in a row where column 1 has an entry, as numerator and as
    # denominator alike, so pair (0, 1) has m = 0
    M = np.random.default_rng(5).uniform(1.0, 2.0, size=(64, 64))
    M[7, 0], M[7, 11] = 0.3, 0.0
    report = contraction_coeff(M, 0.5)
    assert aleph_scans == []
    assert (report.c, report.witness, report.a_star) == (1.0, (0, 1), None)
    assert _exact.m(M[:, 0].tolist(), M[:, 1].tolist(), 0.5) == 0 and not is_strictly_contracting(M, 0.5)


def _assert_is_the_full_scan(report, M):
    m, witness = _full_scan(M)
    c, a_star = c_and_a_star(m)
    assert np.array_equal(report.c, c, equal_nan=True) and report.witness == witness and report.is_strict
    assert report.a_star == a_star


def test_dense_input_at_512_runs_one_int16_pass_and_no_float64_scan(aleph_scans):
    M = np.random.default_rng(3102).uniform(0.1, 10.0, size=(512, 512))
    report = contraction_coeff(M)
    assert aleph_scans == [(512, np.int16)]
    _assert_is_the_full_scan(report, M)


def test_tie_heavy_input_at_512_falls_back_to_the_float64_scan(aleph_scans):
    M = np.random.default_rng(3103).choice([1.0, 2.0, 3.0], size=(512, 512))
    report = contraction_coeff(M)
    assert aleph_scans == [(512, np.int16), (512, np.float64)]
    assert report.c == 0.7999999999999999
    _assert_is_the_full_scan(report, M)


def test_entries_spanning_1e_pm_200_run_only_the_float64_scan(aleph_scans):
    # max(M) / min(M) overflows: the guard admits no screen
    M = 10.0 ** np.random.default_rng(3104).uniform(-200.0, 200.0, size=(512, 512))
    with np.errstate(over="ignore", invalid="ignore"):
        report = contraction_coeff(M)
    assert aleph_scans == [(512, np.float64)]
    _assert_is_the_full_scan(report, M)


def test_dimension_256_runs_one_int16_pass_and_no_float64_scan(aleph_scans):
    M = np.random.default_rng(3105).uniform(0.1, 10.0, size=(256, 256))
    report = contraction_coeff(M)
    assert aleph_scans == [(256, np.int16)]
    _assert_is_the_full_scan(report, M)


def test_narrow_gaussian_grid_of_cli_scan_runs_one_int16_pass_and_no_float64_scan(aleph_scans):
    # m is about 2e-16: c is 4 ulp below 1, and the screen still splits the pairs
    grid = tabulate_kernel(builtin_kernel("gaussian", sigma=0.05518444732177106), 512, "midpoint")
    report = kernel_contraction_estimate(grid)
    assert aleph_scans == [(512, np.int16)]
    m, witness = _full_scan(discretize(grid))
    # pairs (0, 508) to (0, 511) round to one distance, and (0, 511) alone has the smallest m
    assert (report.c, report.witness) == (c_and_a_star(m)[0], witness) == (0.9999999999999996, (0, 511))


def test_perron_loop_family_runs_one_int16_pass_and_no_float64_scan(aleph_scans):
    for n in (8, 128):
        M = _perron_loop_matrix(n, 0.01)
        report = contraction_coeff(M)
        assert aleph_scans == [(n, np.int16)], n
        _assert_is_the_full_scan(report, M)
        aleph_scans.clear()
