"""The public API: every module's ``__all__``, pinned as literal lists."""

import importlib

import pytest

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
