"""The public API: every module's ``__all__``, pinned as literal lists, and the check of every ``zero_tol`` parameter."""

import importlib
import inspect
import math

import pytest

import projcone

PUBLIC = {
    "projcone": [
        "BUILTIN_KERNELS",
        "ContractionReport",
        "FactorizationCertificate",
        "KernelGrid",
        "KernelPatternError",
        "PerronResult",
        "RatioPair",
        "UniformPositivityCertificate",
        "a_star",
        "aleph",
        "apply",
        "as_cone_vector",
        "as_nonneg_matrix",
        "builtin_kernel",
        "certificate_is_valid",
        "collatz_wielandt",
        "contraction_coeff",
        "contraction_coeff_formula",
        "discretize",
        "factorization_certificate",
        "factorization_is_valid",
        "hilbert_distance",
        "is_cone_preserving",
        "is_strictly_contracting",
        "is_uniformly_positive",
        "kernel_contraction_estimate",
        "m_ratio",
        "normalize",
        "perron_iterate",
        "phi",
        "product_contraction_bound",
        "pseudo_distance",
        "psi",
        "psi_inverse",
        "rays_equal",
        "relate_certificate_to_coefficient",
        "segment_distance",
        "tabulate_kernel",
        "uniform_grid",
        "uniform_positivity_certificate",
    ],
    "projcone.cone": [
        "RatioPair",
        "aleph",
        "as_cone_vector",
        "hilbert_distance",
        "m_ratio",
        "normalize",
        "phi",
        "pseudo_distance",
        "psi",
        "psi_inverse",
        "rays_equal",
        "segment_distance",
    ],
    "projcone.matrices": [
        "ContractionReport",
        "UniformPositivityCertificate",
        "a_star",
        "apply",
        "as_nonneg_matrix",
        "certificate_is_valid",
        "contraction_coeff",
        "contraction_coeff_formula",
        "is_cone_preserving",
        "is_strictly_contracting",
        "is_uniformly_positive",
        "uniform_positivity_certificate",
    ],
    "projcone.kernels": [
        "FactorizationCertificate",
        "KernelGrid",
        "KernelPatternError",
        "builtin_kernel",
        "discretize",
        "factorization_certificate",
        "factorization_is_valid",
        "kernel_contraction_estimate",
        "relate_certificate_to_coefficient",
        "tabulate_kernel",
        "uniform_grid",
    ],
    "projcone.perron": [
        "PerronResult",
        "collatz_wielandt",
        "perron_iterate",
        "product_contraction_bound",
    ],
    "projcone.cli": ["CliError", "dumps", "main", "matrix_to_csv", "matrix_to_json", "read_kernel_grid", "read_matrix"],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC))
def test_all_is_pinned_and_resolves(module_name):
    module = importlib.import_module(module_name)
    assert list(module.__all__) == PUBLIC[module_name]
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_package_reexports_the_module_objects():
    package = importlib.import_module("projcone")
    for module_name in ("projcone.cone", "projcone.matrices", "projcone.kernels", "projcone.perron"):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(package, name) is getattr(module, name), name


_M = [[2.0, 1.0], [1.0, 2.0]]
_GRID = projcone.tabulate_kernel(projcone.builtin_kernel("poly1xy"), 4)
# valid positional arguments of every public function that takes zero_tol
_ZERO_TOL_CALLS = {
    "a_star": (_M,),
    "aleph": ([1.0, 2.0], [2.0, 1.0]),
    "apply": (_M, [1.0, 2.0]),
    "as_cone_vector": ([1.0, 0.0],),
    "certificate_is_valid": (_M, projcone.uniform_positivity_certificate(_M)),
    "collatz_wielandt": (_M, [1.0, 2.0]),
    "contraction_coeff": (_M,),
    "contraction_coeff_formula": (_M,),
    "factorization_certificate": (_GRID,),
    "factorization_is_valid": (_GRID.values, projcone.factorization_certificate(_GRID)),
    "hilbert_distance": ([1.0, 2.0], [2.0, 1.0]),
    "is_cone_preserving": (_M,),
    "is_strictly_contracting": (_M,),
    "is_uniformly_positive": (_M,),
    "kernel_contraction_estimate": (_GRID,),
    "m_ratio": ([1.0, 2.0], [2.0, 1.0]),
    "normalize": ([1.0, 2.0],),
    "perron_iterate": (_M,),
    "product_contraction_bound": ([_M, _M],),
    "pseudo_distance": ([1.0, 2.0], [2.0, 1.0]),
    "rays_equal": ([1.0, 2.0], [2.0, 4.0]),
    "relate_certificate_to_coefficient": (_GRID,),
    "uniform_positivity_certificate": (_M,),
}
_TAKES_ZERO_TOL = [name for name in projcone.__all__
                   if callable(getattr(projcone, name)) and "zero_tol" in inspect.signature(getattr(projcone, name)).parameters]


@pytest.mark.parametrize("zero_tol", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", _TAKES_ZERO_TOL)
def test_zero_tol_must_be_finite_and_nonnegative(name, zero_tol):
    function, args = getattr(projcone, name), _ZERO_TOL_CALLS[name]
    function(*args, zero_tol=0.0)
    with pytest.raises(ValueError, match=f"zero_tol must be finite and nonnegative, got {zero_tol}"):
        function(*args, zero_tol=zero_tol)
