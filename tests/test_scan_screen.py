"""The float32 screen of the column-pair scan against the full float64 scan, and the routes contraction_coeff takes."""

import numpy as np
from hypothesis import given, settings, strategies as st

from projcone import contraction_coeff, psi_inverse
from projcone.matrices import _aleph_columns, _max_pair_distance, _quotients_are_finite, _screened_max_pair_distance


def _full_scan(M, zero_tol):
    """The float64 scan and pair reduction that the screen must reproduce bit for bit."""
    with np.errstate(all="ignore"):
        return _max_pair_distance(_aleph_columns(M, M > zero_tol))


def _screen(M, zero_tol, workers=1):
    # under the guard no quotient, product or distance of the screen overflows or underflows
    pos = M > zero_tol
    with np.errstate(over="raise", under="raise"):
        return _screened_max_pair_distance(M, pos, workers) if _quotients_are_finite(M, pos) else None


def _near_rank_one(rng, n):
    """An outer product perturbed by about 1e-9 per entry, so that c is about 1e-9."""
    u, v = rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)
    return np.outer(u, v) * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, size=(n, n)))


def _spanning(rng, n, ratio):
    """A perturbed outer product of log-uniform vectors with smallest entry 1.0 and largest ``ratio``."""
    a, b = rng.uniform(0.0, 29.0, size=(2, n))
    M = np.outer(2.0**a, 2.0**b) * rng.uniform(1.0, 1.5, size=(n, n))
    M /= M.min()
    M[np.unravel_index(np.argmax(M), M.shape)] = ratio
    return M


@st.composite
def screen_cases(draw):
    """(matrix, zero_tol): n = 2..12, cone-preserving for its zero_tol, scaled by a power of two."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "columns", "rank_one", "under_2_60", "over_2_60", "uniform"]))
    if kind == "ties":
        M = rng.choice([1.0, 2.0, 3.0], size=(n, n))
    elif kind == "columns":
        # duplicated and power-of-ten-scaled copies of a few base columns
        base = rng.uniform(1.0, 2.0, size=(n, int(rng.integers(1, n + 1))))
        M = base[:, rng.integers(base.shape[1], size=n)] * 10.0 ** rng.integers(-5, 6, size=n)
    elif kind == "rank_one":
        M = _near_rank_one(rng, n)
    elif kind == "uniform":
        M = rng.uniform(0.0, 1.0, size=(n, n))
    else:
        M = _spanning(rng, n, 2.0**60 * (1.0 - 2.0**-52 if kind == "under_2_60" else 1.0 + 2.0**-52))
    zero_tol = draw(st.sampled_from([0.0, 0.5]))
    if draw(st.booleans()):  # zeros confined to all-zero rows
        M[rng.random(n) < 0.3] = 0.0
    if draw(st.booleans()):  # entries at or below zero_tol in nonzero rows
        M[rng.random((n, n)) < 0.2] = rng.choice([0.0, 0.25, 0.5])
    for j in np.flatnonzero(~(M > zero_tol).any(axis=0)):
        M[int(rng.integers(n)), j] = 1.0
    if draw(st.booleans()):
        M[M == 0.0] = -0.0
    # an exact scaling keeps the support; 2**-1020 makes the smallest entries subnormal
    scale = draw(st.sampled_from([1.0, 2.0**-1020, 2.0**-600, 2.0**930]))
    return M * scale, zero_tol * scale


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(case=screen_cases(), workers=st.sampled_from([1, 2]))
def test_screen_is_bitwise_the_full_float64_scan(case, workers):
    M, zero_tol = case
    screened = _screen(M, zero_tol, workers)
    if screened is not None:
        c, witness = _full_scan(M, zero_tol)
        assert repr(screened[0]) == repr(c) and screened[1] == witness, (M.tolist(), zero_tol)


def test_screen_applies_and_refuses_where_documented():
    rng = np.random.default_rng(3101)
    for M in (rng.uniform(0.1, 10.0, size=(40, 40)), _spanning(rng, 40, 2.0**60 * (1.0 - 2.0**-52))):
        (c, witness), screened = _full_scan(M, 0.0), _screen(M, 0.0)
        assert (repr(screened[0]), screened[1]) == (repr(c), witness)
    # a range of 2**60 or more, and more than n candidates:
    # ties, or distances near 1e-9, below what the float32 bounds resolve, so that every pair is a candidate
    assert _screen(_spanning(rng, 40, 2.0**60), 0.0) is None
    near = _near_rank_one(rng, 40)
    assert 1e-10 < _full_scan(near, 0.0)[0] < 1e-8 and _screen(near, 0.0) is None
    with_zero = rng.uniform(0.1, 10.0, size=(40, 40))
    with_zero[3, 5] = 0.0
    assert _screen(with_zero, 0.0) is not None
    assert _screen(rng.choice([1.0, 2.0, 3.0], size=(40, 40)), 0.0) is None


def _assert_is_the_full_scan(report, M):
    c, witness = _full_scan(M, 0.0)
    assert np.array_equal(report.c, c, equal_nan=True) and report.witness == witness
    assert report.a_star == (psi_inverse(c) if c < 1.0 else None)


def test_dense_input_at_512_runs_one_float32_pass_and_no_float64_scan(aleph_scans):
    M = np.random.default_rng(3102).uniform(0.1, 10.0, size=(512, 512))
    report = contraction_coeff(M)
    assert aleph_scans == [(512, np.float32)]
    _assert_is_the_full_scan(report, M)


def test_tie_heavy_input_at_512_falls_back_to_the_float64_scan(aleph_scans):
    M = np.random.default_rng(3103).choice([1.0, 2.0, 3.0], size=(512, 512))
    report = contraction_coeff(M)
    assert aleph_scans == [(512, np.float32), (512, np.float64)]
    assert report.c == 0.7999999999999999
    _assert_is_the_full_scan(report, M)


def test_entries_spanning_1e_pm_200_run_no_float32_pass(aleph_scans):
    M = 10.0 ** np.random.default_rng(3104).uniform(-200.0, 200.0, size=(512, 512))
    with np.errstate(over="ignore", invalid="ignore"):
        report = contraction_coeff(M)
    assert aleph_scans == [(512, np.float64)]
    _assert_is_the_full_scan(report, M)


def test_dimension_256_runs_the_single_float64_scan(aleph_scans):
    M = np.random.default_rng(3105).uniform(0.1, 10.0, size=(256, 256))
    report = contraction_coeff(M)
    assert aleph_scans == [(256, np.float64)]
    _assert_is_the_full_scan(report, M)
