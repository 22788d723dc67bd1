import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from projcone import (
    aleph,
    hilbert_distance,
    m_ratio,
    normalize,
    phi,
    pseudo_distance,
    psi,
    psi_inverse,
    rays_equal,
    segment_distance,
)
from projcone import cone
from projcone.cone import _aleph

import _exact
from _util import random_cone_vector, support_calls
from test_cli_fuzz import ENTRIES


# ---------------------------------------------------------------------------
# aleph and m


def test_aleph_examples():
    assert aleph([1, 2], [2, 1]) == 0.5
    assert aleph([1, 1], [1, 1]) == 1.0
    assert aleph([1, 0], [0, 1]) == 0.0


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data(), zero_tol=st.sampled_from([0.0, 1e-300, 0.5]))
def test_aleph_is_the_exact_minimum_correctly_rounded(data, zero_tol):
    # each quotient is correctly rounded and rounding is monotone, so the least rounded quotient is the exact minimum
    # rounded; where that overflows, so does every quotient
    n = data.draw(st.integers(1, 8))
    entries = st.sampled_from(ENTRIES) | st.integers(-300, 300).map(lambda k: 10.0 ** k)
    f, g = (data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(2))
    assume(max(f) > zero_tol and max(g) > zero_tol)
    try:
        want = float(_exact.aleph(f, g, zero_tol))
    except OverflowError:
        want = math.inf
    assert aleph(f, g, zero_tol).hex() == want.hex()


def test_aleph_errors():
    with pytest.raises(ValueError):
        aleph([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        aleph([0, 0], [1, 2])
    with pytest.raises(ValueError):
        aleph([1, 2], [0, 0])
    with pytest.raises(ValueError):
        aleph([1, -2], [1, 2])
    with pytest.raises(ValueError):
        aleph([1, np.nan], [1, 2])
    for f in ([[1.0]], []):
        with pytest.raises(ValueError, match="^cone vector must be a 1-d sequence with at least one entry$"):
            aleph(f, [1.0])


def test_m_ratio_examples():
    assert m_ratio([1, 2], [2, 1]).m == 0.25
    assert m_ratio([3, 6], [1, 2]).m == 1.0
    pair = m_ratio([1, 0], [0, 1])
    assert pair.m == 0.0 and pair.aleph_fg == 0.0 and pair.aleph_gf == 0.0


@pytest.mark.parametrize("zero_tol", [0.0, 0.5])
def test_entries_at_or_below_zero_tol_are_zeros_in_both_vectors(zero_tol):
    # one reading of zero_tol: the ratios equal those of the vectors with such entries set to 0, as numerator and denominator
    f, g = [1.0, 0.3, 2.0, 0.0], [0.4, 1.0, 3.0, 1.0]
    zf, zg = ([x if x > zero_tol else 0.0 for x in v] for v in (f, g))
    assert m_ratio(f, g, zero_tol) == m_ratio(zf, zg)
    assert aleph(f, g, zero_tol) == aleph(zf, zg) == (0.0 if zero_tol else 0.4)
    assert pseudo_distance([1.0, 0.3], [0.3, 1.0], zero_tol) == (1.0 if zero_tol else phi(0.09))


def test_a_zero_aleph_is_positive_zero():
    # a quotient over -0.0 would be -inf, and a -0.0 numerator gives -0.0: the ratios read the zeroed copies
    for f, g in (([1.0, -0.0], [-0.0, 1.0]), ([1.0, 0.0], [-0.0, 1.0]), ([2.0, -0.0, 1.0], [-0.0, 1.0, 0.0])):
        pair = m_ratio(f, g)
        for x in (aleph(f, g), aleph(g, f), pair.aleph_fg, pair.aleph_gf, pair.m):
            assert x == 0.0 and math.copysign(1.0, x) == 1.0


@pytest.mark.parametrize("f, g, m", [([1.0, 0.0, 2.0], [0.5, 1.0, 0.0], 0.0), ([1e-310, 1e-310], [1.0, 2.0], 0.5)], ids=["boundary", "overflow"])
def test_m_ratio_builds_one_support_mask_per_vector(monkeypatch, f, g, m):
    shapes = support_calls(monkeypatch, cone)
    assert m_ratio(f, g).m == m
    assert shapes == [(len(f),), (len(g),)]


def test_vector_ratios_over_a_subnormal_entry_print_no_warning():
    # 1 / 1e-310 overflows, but the quotient at the entry 1 is the minimum; the error::RuntimeWarning filter makes
    # each call the check
    f, g = [1e-310, 1.0], [1.0, 1.0]
    assert aleph(f, g) == 1.0
    pair = m_ratio(f, g)
    assert (pair.aleph_fg, pair.aleph_gf, pair.m) == (1.0, 1e-310, 1e-310)
    assert pseudo_distance(f, g) == phi(1e-310)
    assert hilbert_distance(f, g) == abs(math.log(1e-310))


def test_m_is_taken_again_where_one_ratio_overflows():
    # every quotient g / f overflows, so aleph(f, g) is inf; m must not read inf * tiny = 1 (equal rays) or inf * 0 = nan
    f, g = [1e-310, 1e-310], [1.0, 2.0]
    assert aleph(f, g) == math.inf
    pair = m_ratio(f, g)
    assert (pair.aleph_fg, pair.aleph_gf, pair.m) == (math.inf, 5e-311, 0.5)
    assert m_ratio(g, f).m == 0.5
    assert pseudo_distance(f, g) == pseudo_distance([1.0, 1.0], g) == 1 / 3
    assert hilbert_distance(f, g) == hilbert_distance([1.0, 1.0], g)
    assert m_ratio([1e-310, 0.0], [1.0, 1.0]).m == 0.0
    assert pseudo_distance([1e-310, 0.0], [1.0, 1.0]) == 1.0 and hilbert_distance([1e-310, 0.0], [1.0, 1.0]) == math.inf
    # the scaled vector keeps its zeros: 5e-311 lies below zero_tol, its scaled 0.5 would not
    assert m_ratio([1e-310, 5e-311], [1.0, 5e-311], 6e-311).m == m_ratio([1.0, 0.5], [1.0, 0.1], 0.6).m == 1.0
    assert m_ratio([1e-310, 5e-311], [1.0, 0.1], 6e-311).m == m_ratio([1.0, 0.0], [1.0, 0.1]).m == 0.0


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), zero_tol=st.sampled_from([0.0, 1e-300, 0.5]))
def test_the_aleph_kernel_is_the_masked_minimum_bit_for_bit(data, zero_tol):
    # the callers' zeroed copies: every entry <= zero_tol, -0.0 too, is +0.0
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    blocks = st.lists(st.sampled_from(ENTRIES + [-0.0]), min_size=n * k, max_size=n * k).map(lambda v: np.reshape(v, (n, k)).astype(float))
    F, G = data.draw(blocks), data.draw(blocks)
    pos = F > zero_tol
    assume(pos.any(axis=0).all())  # every column of f has a support, as the callers guarantee
    F, G = np.where(pos, F, 0.0), np.where(G > zero_tol, G, 0.0)

    def bits(x):
        return [float(v).hex() for v in np.ravel(x)]
    with warnings.catch_warnings(), np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        warnings.simplefilter("error")  # the callers' errstate leaves no raw warning
        want = [(G[pos[:, c], c] / F[pos[:, c], c]).min() for c in range(k)]
        assert bits(_aleph(F, G)) == bits(want)
        for c in range(k):
            assert bits(_aleph(F[:, c], G[:, c])) == bits(want[c])


def test_ratio_functional_laws():
    rng = np.random.default_rng(7)
    for _ in range(300):
        dim = int(rng.integers(2, 9))
        zp = 0.3 if rng.random() < 0.4 else 0.0
        f = random_cone_vector(rng, dim, zp)
        g = random_cone_vector(rng, dim, zp)
        h = random_cone_vector(rng, dim, zp)
        a_fg = aleph(f, g)
        # boundedness: a_fg is the largest b with b*f <= g
        assert math.isfinite(a_fg)
        assert np.all(a_fg * f <= g + 1e-12 * np.maximum(g, 1.0))
        # symmetry of m is exact
        assert m_ratio(f, g).m == m_ratio(g, f).m
        # scale invariance
        alpha, beta = 10.0 ** rng.uniform(-2, 2, size=2)
        m1, m2 = m_ratio(f, g).m, m_ratio(alpha * f, beta * g).m
        assert abs(m1 - m2) <= 1e-12 * max(m1, m2, 1e-300)
        assert abs(aleph(alpha * f, beta * g) - (beta / alpha) * a_fg) <= 1e-12 * max(a_fg, 1e-300)
        # submultiplicativity and range
        assert m_ratio(f, g).m * m_ratio(g, h).m <= m_ratio(f, h).m + 1e-12
        assert 0.0 <= m_ratio(f, g).m <= 1.0


def test_m_equals_one_iff_proportional():
    rng = np.random.default_rng(8)
    for _ in range(100):
        f = random_cone_vector(rng, int(rng.integers(2, 9)))
        g = 10.0 ** rng.uniform(-2, 2) * f
        pair = m_ratio(f, g)
        assert pair.m >= 1.0 - 1e-12
        assert np.allclose(f, pair.aleph_gf * g, rtol=1e-12, atol=0.0)
        other = random_cone_vector(rng, f.size)
        if not rays_equal(f, other, 1e-9):
            assert m_ratio(f, other).m < 1.0 - 1e-12


# ---------------------------------------------------------------------------
# the two metrics and the transfer maps


def test_pseudo_distance_examples():
    assert pseudo_distance([1, 2], [2, 1]) == 0.6
    assert pseudo_distance([1, 2], [1, 2]) == 0.0
    assert pseudo_distance([1, 0], [0, 1]) == 1.0


def test_hilbert_distance_examples():
    assert hilbert_distance([1, 2], [2, 1]) == pytest.approx(math.log(4.0), abs=1e-12)
    assert hilbert_distance([3, 5], [3, 5]) == 0.0
    assert hilbert_distance([1, 0], [0, 1]) == math.inf


def test_phi_examples_and_domain():
    assert phi(0.0) == 1.0
    assert phi(1.0) == 0.0
    assert phi(0.25) == 0.6
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            phi(bad)


def test_phi_subadditive_on_grid():
    s = np.linspace(0.0, 1.0, 201)
    for a in s:
        for b in s:
            assert phi(a * b) <= phi(a) + phi(b) + 1e-15


def test_psi_examples_and_domain():
    assert psi(1.0) == 0.0
    assert psi(2.0) == 0.6
    assert psi(10.0) == pytest.approx(99.0 / 101.0, abs=1e-15)
    for bad in (0.5, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            psi(bad)


def test_psi_inverse_examples_and_roundtrip():
    assert psi_inverse(0.0) == 1.0
    assert psi_inverse(0.6) == pytest.approx(2.0, abs=1e-12)
    assert psi_inverse(psi(10.0)) == pytest.approx(10.0, abs=1e-12)
    for c in np.linspace(0.0, 0.999, 50):
        assert psi(psi_inverse(c)) == pytest.approx(c, abs=1e-12)
    for bad in (1.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            psi_inverse(bad)


def test_metric_axioms_fuzz():
    rng = np.random.default_rng(9)
    for _ in range(400):
        dim = int(rng.integers(2, 9))
        zp = 0.3 if rng.random() < 0.4 else 0.0
        f = random_cone_vector(rng, dim, zp, log_uniform=bool(rng.random() < 0.5))
        g = random_cone_vector(rng, dim, zp)
        h = random_cone_vector(rng, dim, zp)
        d_fg = pseudo_distance(f, g)
        assert 0.0 <= d_fg <= 1.0
        assert d_fg == pseudo_distance(g, f)
        assert pseudo_distance(f, h) <= d_fg + pseudo_distance(g, h) + 1e-12


def test_metric_identity_tanh():
    rng = np.random.default_rng(10)
    for _ in range(200):
        f = random_cone_vector(rng, int(rng.integers(2, 9)))
        g = random_cone_vector(rng, f.size)
        d_h = hilbert_distance(f, g)
        if math.isfinite(d_h):
            assert abs(pseudo_distance(f, g) - math.tanh(d_h / 2.0)) <= 1e-12


# ---------------------------------------------------------------------------
# 2-d closed form


def test_segment_distance_examples():
    assert segment_distance(1, 0, 1, 0) == 0.0
    assert segment_distance(1, 0, 0, 1) == 1.0
    assert segment_distance(2, 1, 1, 2) == 0.6


def test_segment_distance_errors():
    with pytest.raises(ValueError):
        segment_distance(0, 0, 1, 2)
    with pytest.raises(ValueError):
        segment_distance(1, 2, 0, 0)
    with pytest.raises(ValueError):
        segment_distance(-1, 2, 1, 2)
    with pytest.raises(ValueError):
        segment_distance(1, math.inf, 1, 2)


def test_segment_distance_matches_pseudo_distance():
    rng = np.random.default_rng(11)
    quads = [(1.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (3.0, 0.0, 5.0, 0.0)]
    while len(quads) < 500:
        q = rng.uniform(0.0, 5.0, size=4)
        q[rng.random(4) < 0.25] = 0.0
        if (q[0], q[1]) != (0.0, 0.0) and (q[2], q[3]) != (0.0, 0.0):
            quads.append(tuple(q))
    for f1, f2, g1, g2 in quads:
        expected = pseudo_distance([f1, f2], [g1, g2])
        assert abs(segment_distance(f1, f2, g1, g2) - expected) <= 1e-12


# ---------------------------------------------------------------------------
# canonical representatives


def test_normalize_examples():
    np.testing.assert_array_equal(normalize([2, 4]), [0.5, 1.0])
    np.testing.assert_array_equal(normalize([1, 0]), [1.0, 0.0])
    np.testing.assert_array_equal(normalize([3, 3, 3]), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        normalize([0.0, 0.0])


def test_normalize_idempotent_and_scale_free():
    rng = np.random.default_rng(12)
    for _ in range(100):
        f = random_cone_vector(rng, int(rng.integers(1, 9)), zero_prob=0.3)
        p = normalize(f)
        assert p.max() == 1.0
        np.testing.assert_array_equal(normalize(p), p)
        alpha = 10.0 ** rng.uniform(-3, 3)
        assert np.allclose(normalize(alpha * f), p, rtol=0.0, atol=1e-12)


def test_rays_equal():
    assert rays_equal([1, 2], [2, 4])
    assert not rays_equal([1, 2], [2, 1])
    with pytest.raises(ValueError):
        rays_equal([1, 2], [1, 2, 3])
