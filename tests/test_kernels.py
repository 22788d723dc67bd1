import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projcone import (
    FactorizationCertificate,
    KernelGrid,
    KernelPatternError,
    builtin_kernel,
    certificate_is_valid,
    contraction_coeff,
    discretize,
    factorization_certificate,
    factorization_is_valid,
    kernel_contraction_estimate,
    m_ratio,
    phi,
    psi,
    relate_certificate_to_coefficient,
    tabulate_kernel,
    uniform_grid,
    uniform_positivity_certificate,
)
from test_cli_fuzz import ENTRIES


# ---------------------------------------------------------------------------
# grids


def test_uniform_grid_midpoint():
    nodes, weights = uniform_grid(4)
    np.testing.assert_allclose(nodes, [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(weights, [0.25] * 4)


def test_uniform_grid_trapezoid():
    nodes, weights = uniform_grid(3, "trapezoid")
    np.testing.assert_allclose(nodes, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(weights, [0.25, 0.5, 0.25])
    assert weights.sum() == pytest.approx(1.0)


def test_uniform_grid_errors():
    with pytest.raises(ValueError):
        uniform_grid(0)
    with pytest.raises(ValueError):
        uniform_grid(1, "trapezoid")
    with pytest.raises(ValueError):
        uniform_grid(4, "simpson")


def test_kernel_grid_validation():
    good = dict(nodes=[0.25, 0.75], weights=[0.5, 0.5], values=[[1.0, 1.0], [1.0, 1.0]])
    KernelGrid(**good)
    with pytest.raises(ValueError):
        KernelGrid(**{**good, "nodes": [0.75, 0.25]})
    with pytest.raises(ValueError):
        KernelGrid(**{**good, "nodes": [0.25, 1.75]})
    with pytest.raises(ValueError):
        KernelGrid(**{**good, "weights": [0.5, -0.5]})
    with pytest.raises(ValueError):
        KernelGrid(**{**good, "weights": [0.5, 0.6]})
    with pytest.raises(ValueError):
        KernelGrid(**{**good, "values": [[1.0, -1.0], [1.0, 1.0]]})
    with pytest.raises(ValueError, match="column 1"):
        KernelGrid(**{**good, "values": [[1.0, 0.0], [1.0, 0.0]]})
    with pytest.raises(ValueError):
        KernelGrid(**{**good, "values": [[1.0, 1.0]]})
    with pytest.raises(ValueError, match="^nodes must be a nonempty 1-d sequence$"):
        KernelGrid(nodes=[], weights=[], values=[])
    with pytest.raises(ValueError, match="^weights must be finite and match the number of nodes$"):
        KernelGrid(**{**good, "weights": [1.0]})


def test_builtin_kernels():
    x = np.array([[0.0], [0.5]])
    y = np.array([[0.0, 1.0]])
    np.testing.assert_allclose(builtin_kernel("constant", value=3.0)(x, y), np.full((2, 2), 3.0))
    np.testing.assert_allclose(builtin_kernel("poly1xy")(x, y), [[1.0, 1.0], [1.0, 1.5]])
    np.testing.assert_allclose(builtin_kernel("gaussian", sigma=0.5)(x, y), np.exp(-((x - y) ** 2) / 0.5))
    sep = builtin_kernel("separable")(x, y)
    np.testing.assert_allclose(sep, (1.0 + x) * np.exp(-y))
    with pytest.raises(ValueError):
        builtin_kernel("sine")
    with pytest.raises(ValueError):
        builtin_kernel("gaussian", sigma=0.0)
    with pytest.raises(ValueError):
        builtin_kernel("constant", value=-1.0)
    with pytest.raises(ValueError):
        builtin_kernel("poly1xy", sigma=1.0)


# ---------------------------------------------------------------------------
# discretization


def test_discretize_constant_kernel_two_nodes():
    grid = tabulate_kernel(builtin_kernel("constant"), 2)
    np.testing.assert_array_equal(discretize(grid), [[0.5, 0.5], [0.5, 0.5]])
    assert grid.n == 2
    np.testing.assert_array_equal(discretize((grid.nodes, grid.weights, grid.values)), [[0.5, 0.5], [0.5, 0.5]])


def test_discretize_separable_kernel_is_rank_one():
    grid = tabulate_kernel(builtin_kernel("separable"), 5)
    M = discretize(grid)
    assert np.linalg.matrix_rank(M) == 1
    assert kernel_contraction_estimate(grid).c <= 1e-12


def test_discretize_poly_kernel_strictly_positive():
    grid = tabulate_kernel(builtin_kernel("poly1xy"), 3)
    M = discretize(grid)
    assert M.shape == (3, 3) and np.all(M > 0)
    rep = kernel_contraction_estimate(grid)
    assert 0.0 < rep.c < 1.0
    # oracle: the estimate is exactly the pairwise column scan of the values
    pairwise = max(
        phi(m_ratio(grid.values[:, i], grid.values[:, j]).m) for i in range(3) for j in range(i + 1, 3)
    )
    assert abs(rep.c - pairwise) <= 1e-12


# ---------------------------------------------------------------------------
# factorization certificates


def test_certificate_exact_for_separable_kernels():
    for n in (2, 5, 16):
        grid = tabulate_kernel(builtin_kernel("separable"), n)
        cert = factorization_certificate(grid)
        assert 1.0 <= cert.A <= 1.0 + 1e-12
        assert factorization_is_valid(grid.values, cert)


def test_certificate_constant_kernel():
    grid = tabulate_kernel(builtin_kernel("constant"), 4)
    cert = factorization_certificate(grid)
    assert cert.A == 1.0
    np.testing.assert_array_equal(cert.g1, np.ones(4))
    np.testing.assert_array_equal(cert.g2, np.ones(4))


def test_certificate_poly_kernel_bounded_by_two():
    for n, rule in ((4, "midpoint"), (8, "midpoint"), (8, "trapezoid"), (16, "trapezoid")):
        grid = tabulate_kernel(builtin_kernel("poly1xy"), n, rule)
        cert = factorization_certificate(grid)
        assert 1.0 <= cert.A <= 2.0 + 1e-12
        assert factorization_is_valid(grid.values, cert)
    # with endpoints in the grid the bound is attained at (x, y) = (0, 0)
    grid = tabulate_kernel(builtin_kernel("poly1xy"), 8, "trapezoid")
    assert factorization_certificate(grid).A == pytest.approx(2.0, abs=1e-12)


def test_certificate_pattern_failure_identifies_offender():
    values = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    grid = KernelGrid(nodes=[0.1, 0.5, 0.9], weights=[1 / 3] * 3, values=values)
    with pytest.raises(KernelPatternError) as err:
        factorization_certificate(grid)
    assert (err.value.row, err.value.col) == (0, 2)
    # the same zero pattern makes the discretized operator non-contracting
    assert kernel_contraction_estimate(grid).c == 1.0


def test_certificate_survives_all_zero_row():
    # a kernel vanishing on a full x-slice still factorizes: g1 is zero there
    values = np.array([[1.0, 2.0], [0.0, 0.0]])
    grid = KernelGrid(nodes=[0.25, 0.75], weights=[0.5, 0.5], values=values)
    cert = factorization_certificate(grid)
    assert factorization_is_valid(values, cert)
    assert cert.g1[1] == 0.0


def test_a_row_at_or_below_zero_tol_is_a_zero_row_of_the_factorization():
    grid = KernelGrid(nodes=[0.25, 0.75], weights=[0.5, 0.5], values=[[1.0, 2.0], [0.3, 0.01]])
    cert = factorization_certificate(grid, 0.5)
    assert (cert.A, cert.g1.tolist(), cert.g2.tolist()) == (1.0, [2.0, 0.0], [0.5, 1.0])
    assert factorization_is_valid(grid.values, cert, zero_tol=0.5)
    assert not factorization_is_valid(grid.values, cert)  # at zero_tol 0, row 1 is no zero row
    assert factorization_is_valid([[1.0, 2.0], [0.0, 0.0]], cert)
    assert relate_certificate_to_coefficient(grid, 0.5) == (0.0, 0.0)


@pytest.mark.parametrize("values, col", [([[0.3]], 0), ([[1.0, 0.3], [2.0, 0.2]], 1)])
def test_a_column_at_or_below_zero_tol_has_no_factorization(values, col):
    # the library names the column, not numpy's empty maximum or a certificate with g2[col] = 0
    nodes, weights = uniform_grid(len(values))
    grid = KernelGrid(nodes=nodes, weights=weights, values=values)
    with pytest.raises(ValueError, match=f"column {col} has no positive entry"):
        factorization_certificate(grid, 0.5)


def test_factorization_is_valid_rejects_tampering():
    grid = tabulate_kernel(builtin_kernel("poly1xy"), 5)
    cert = factorization_certificate(grid)
    bad = FactorizationCertificate(g1=cert.g1, g2=cert.g2, A=1.0, reference_row=cert.reference_row,
                                   reference_col=cert.reference_col)
    assert not factorization_is_valid(grid.values, bad)
    # g1 * g2 overflows: a verdict, with no raw RuntimeWarning
    huge = FactorizationCertificate(g1=np.full(5, 1e200), g2=np.full(5, 1e200), A=2.0, reference_row=0, reference_col=0)
    assert not factorization_is_valid(grid.values, huge)


@pytest.mark.parametrize("g1, g2", [([1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0])])
def test_factorization_is_valid_refuses_a_certificate_of_the_wrong_size(g1, g2):
    # np.outer(g1, g2) would broadcast against the 2x2 grid
    cert = FactorizationCertificate(g1=g1, g2=g2, A=10.0, reference_row=0, reference_col=0)
    with pytest.raises(ValueError, match="certificate dimensions do not match the value grid"):
        factorization_is_valid([[1.0, 2.0], [3.0, 4.0]], cert)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    values=st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n), min_size=n, max_size=n)),
    zero_tol=st.sampled_from([0.0, 0.2, 0.5]),
)
@example(values=[[1, 1e-300], [1e-300, 1e-300]], zero_tol=0.0)
@example(values=[[1, 1], [1, 1e-310]], zero_tol=0.0)
def test_factorization_certificate_constant_is_finite(values, zero_tol):
    # A = inf certifies nothing (psi(inf) is undefined): the construction must refuse it, quietly
    nodes, weights = uniform_grid(len(values))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            grid = KernelGrid(nodes=nodes, weights=weights, values=values)
            cert = factorization_certificate(grid, zero_tol)
        except (ValueError, ArithmeticError):  # a zero column or pattern offender, or a failed sandwich
            return
    assert math.isfinite(cert.A) and factorization_is_valid(grid.values, cert)


def test_modulated_separable_kernels_have_bounded_certificates():
    # K = g1 * g2 * g3 with g3 in [1/B, B] admits certificates with A <= B**2
    for sigma in (1.0, 0.5):
        bound = math.exp(1.0 / sigma) ** 2
        for rule in ("midpoint", "trapezoid"):
            grid = tabulate_kernel(builtin_kernel("gaussian", sigma=sigma), 9, rule)
            assert factorization_certificate(grid).A <= bound + 1e-9

    modulated = lambda x, y: (1.0 + x) * np.exp(-y) * (1.0 + x * y)  # g3 in [1, 2]
    grid = tabulate_kernel(modulated, 9)
    assert factorization_certificate(grid).A <= 4.0 + 1e-9


def test_certificate_grows_under_node_refinement():
    # trapezoid refinement n -> 2n - 1 keeps the coarse nodes, so the max
    # defining A runs over a superset of points
    for kernel in (builtin_kernel("poly1xy"), builtin_kernel("gaussian", sigma=0.7)):
        coarse = factorization_certificate(tabulate_kernel(kernel, 5, "trapezoid"))
        fine = factorization_certificate(tabulate_kernel(kernel, 9, "trapezoid"))
        assert fine.A >= coarse.A - 1e-12


# ---------------------------------------------------------------------------
# coefficient estimates and the psi bound


def test_weight_invariance_of_coefficient():
    rng = np.random.default_rng(41)
    grid = tabulate_kernel(builtin_kernel("poly1xy"), 8)
    c_weighted = kernel_contraction_estimate(grid).c
    c_plain = contraction_coeff(grid.values).c
    assert abs(c_weighted - c_plain) <= 1e-12
    for _ in range(5):
        w = rng.uniform(0.1, 5.0, size=8)
        reweighted = KernelGrid(nodes=grid.nodes, weights=w / w.sum(), values=grid.values)
        assert abs(kernel_contraction_estimate(reweighted).c - c_plain) <= 1e-12


@pytest.mark.parametrize("zero_tol", [0.2, 0.5])
@pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
@pytest.mark.parametrize("name, params", [("constant", {}), ("separable", {}), ("poly1xy", {}), ("gaussian", {"sigma": 0.1})])
def test_estimate_reads_zero_tol_against_the_values(name, params, rule, zero_tol):
    # the weights scale columns, so they change neither which entries count as zero nor any ray
    for n in (2, 5, 8, 13):
        grid = tabulate_kernel(builtin_kernel(name, **params), n, rule)
        try:
            expected = contraction_coeff(grid.values, zero_tol).c
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                kernel_contraction_estimate(grid, zero_tol)
            assert str(raised.value) == str(exc)
            continue
        assert abs(kernel_contraction_estimate(grid, zero_tol).c - expected) <= 1e-12


def test_products_that_underflow_leave_the_support():
    grid = KernelGrid(nodes=[0.25, 0.75], weights=[1e-300, 1.0], values=[[1e-30, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(discretize(grid), [[0.0, 1.0], [1e-300, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zero_tol in (0.0, 1e-40):  # at 1e-40 the weighted column 0, (0, 1e-300), lies wholly at or below zero_tol; its values do not
            rep = kernel_contraction_estimate(grid, zero_tol)
            assert (rep.c, rep.witness) == (1.0, (0, 1))
            assert rep.c == contraction_coeff(grid.values, zero_tol).c


def test_poly_kernel_coefficient_stable_on_endpoint_grids():
    # node sets that include the endpoints pin the extreme columns, so the
    # estimate settles immediately; doubling the resolution moves it by far
    # less than 10%
    c3 = kernel_contraction_estimate(tabulate_kernel(builtin_kernel("poly1xy"), 3, "trapezoid")).c
    c6 = kernel_contraction_estimate(tabulate_kernel(builtin_kernel("poly1xy"), 6, "trapezoid")).c
    assert c3 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert abs(c3 - c6) <= 0.1 * max(c3, c6)


@pytest.mark.parametrize("n", [2, 3, 8, 64, 512, 1024])
@pytest.mark.parametrize("sigma", [0.02, 0.05, 0.3, 1.0, 4.0, 20.0])
@pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
def test_gaussian_grid_meets_its_closed_form(rule, sigma, n):
    # K(x, y) = exp(-(x - y)**2 / sigma) on nodes spanning s: columns d apart have m = exp(-2 s d / sigma), so the outermost
    # pair (0, n - 1) alone attains m_min = exp(-2 s**2 / sigma), with a_star = exp(s**2 / sigma) and c = tanh(s**2 / sigma)
    s = 1.0 if rule == "trapezoid" else 1.0 - 1.0 / n
    grid = tabulate_kernel(builtin_kernel("gaussian", sigma=sigma), n, rule)
    rep = kernel_contraction_estimate(grid)
    a_star = math.exp(s * s / sigma)
    assert rep.witness == (0, n - 1) and rep.is_strict
    assert abs(rep.a_star - a_star) <= 4 * math.ulp(a_star), (rep.a_star, a_star)
    assert abs(rep.c - math.tanh(s * s / sigma)) <= 1e-14
    if n >= 512:
        for workers in (1, 2):
            assert contraction_coeff(discretize(grid), workers=workers) == rep, workers


@pytest.mark.parametrize("n", [2, 3, 8, 64, 512, 1024])
@pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
def test_poly1xy_grid_meets_its_closed_form(rule, n):
    # K(x, y) = 1 + x y: the ratio of columns a < b, (1 + x b) / (1 + x a), rises with x, so the pair's alephs sit at the
    # extreme nodes and m = (1 + a b)**2 / ((1 + a**2) (1 + b**2)), least for the outermost pair (0, n - 1);
    # a_star = m**-0.5 and c = (1 - m) / (1 + m), which is 1/3 on the trapezoid rule's nodes 0 and 1
    grid = tabulate_kernel(builtin_kernel("poly1xy"), n, rule)
    rep = kernel_contraction_estimate(grid)
    a, b = (Fraction(float(x)) for x in grid.nodes[[0, -1]])
    m = (1 + a * b) ** 2 / ((1 + a * a) * (1 + b * b))
    assert rep.witness == (0, n - 1) and rep.is_strict
    assert abs(rep.c - float((1 - m) / (1 + m))) <= 1e-15, (rep.c, float((1 - m) / (1 + m)))
    a_star = float(m) ** -0.5
    assert abs(rep.a_star - a_star) <= 4 * math.ulp(a_star), (rep.a_star, a_star)
    if rule == "trapezoid":
        assert abs(rep.c - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)
    if n >= 512:
        for workers in (1, 2):
            assert contraction_coeff(discretize(grid), workers=workers) == rep, workers


def test_relate_certificate_to_coefficient():
    bound, c = relate_certificate_to_coefficient(tabulate_kernel(builtin_kernel("separable"), 6))
    assert bound <= 1e-12 and c <= 1e-12

    bound, c = relate_certificate_to_coefficient(tabulate_kernel(builtin_kernel("constant"), 6))
    assert bound == 0.0 and c == 0.0

    for n in (4, 8):
        grid = tabulate_kernel(builtin_kernel("poly1xy"), n)
        bound, c = relate_certificate_to_coefficient(grid)
        assert c <= bound + 1e-10
        assert bound == psi(factorization_certificate(grid).A)


def test_relate_certificate_to_coefficient_returns_psi_of_A_above_c():
    # a symmetric sandwich A**-1 g1 g2 <= V <= A g1 g2 around row k0 has psi(A) = 0.7241 < c here; the one-sided A is at least a_star
    values = [[3.0, 2.4, 1.5], [1.3, 2.6, 0.4], [2.2, 2.4, 2.4]]
    grid = KernelGrid(*uniform_grid(3), values)
    bound, c = relate_certificate_to_coefficient(grid)
    assert (bound, c) == (psi(factorization_certificate(grid).A), kernel_contraction_estimate(grid).c)
    assert c == pytest.approx(0.73333, abs=1e-5) and bound == pytest.approx(0.85262, abs=1e-5) and c <= bound


@st.composite
def positive_matrices(draw):
    """n = 2..8, entries in [0.1, 3] or 10**[-3, 3]."""
    n = draw(st.integers(2, 8))
    entries = draw(st.sampled_from([st.floats(0.1, 3.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)]))
    return np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))


def _check_both_certificates_bound_c_by_psi_of_A(M, refusals=()):
    # Birkhoff's sandwich b[j] h <= M e_j <= A b[j] h gives every column pair m >= A**-2: c <= psi(A), so A >= a_star
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the c(M) scan's raw warnings at the ends of the double range
        report = contraction_coeff(M) if (M > 0.0).any(axis=0).all() else None
    for certify, valid in ((uniform_positivity_certificate, certificate_is_valid),
                           (lambda V: factorization_certificate(KernelGrid(*uniform_grid(len(V)), values=V)), factorization_is_valid)):
        try:
            cert = certify(M)
        except refusals:
            continue
        assert valid(M, cert)
        assert report.c <= psi(cert.A) + 1e-12
        assert report.a_star is None or cert.A >= report.a_star - 1e-10


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(M=positive_matrices())
@example(M=np.array([[3.0, 2.4, 1.5], [1.3, 2.6, 0.4], [2.2, 2.4, 2.4]]) / 3.0)  # a symmetric sandwich has psi(A) < c
@example(M=np.array([[1.0, 5.0, 4.0], [4.0, 5.0, 1.0], [2.0, 5.0, 2.0]]))  # psi(A) == c == 15/17
def test_both_certificates_bound_c_by_psi_of_A(M):
    _check_both_certificates_bound_c_by_psi_of_A(M)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(M=st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_both_certificates_bound_c_by_psi_of_A_over_the_fuzz_entries(M):
    # a dead column, a pattern offender or an A beyond the double range is refused; every certificate made is sound
    _check_both_certificates_bound_c_by_psi_of_A(np.array(M, dtype=float), (ValueError, ArithmeticError))


def test_both_certificates_attain_psi_of_A():
    # pivot column [5, 5, 5] with b = [0.2, 1, 0.2] and A = 4: columns 0 and 2 are at m = 1/16 = A**-2, so c = psi(4) = 15/17
    M = np.array([[1.0, 5.0, 4.0], [4.0, 5.0, 1.0], [2.0, 5.0, 2.0]])
    grid = KernelGrid(*uniform_grid(3), values=M)
    assert uniform_positivity_certificate(M).A == factorization_certificate(grid).A == 4.0
    assert relate_certificate_to_coefficient(grid) == (psi(4.0), contraction_coeff(M).c) == (15 / 17, 15 / 17)
