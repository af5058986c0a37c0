import inspect

import hadtrunc as ht

PUBLIC_NAMES = {
    "CapExceededError", "DEFAULT_CAP", "DualityReport", "EigensolverError",
    "HadamardMatrix", "HadamardValidationError", "MagicGrid", "MagicGridError",
    "MomentImagError", "MomentTable", "SpecSyntaxError", "SpectralMeasure",
    "ValidationReport", "adjoint", "bench_structured_vs_dense", "build_matrix",
    "cesaro_moments", "conjugate", "dephase", "dita", "dita_selfduality_residual",
    "duality_residual", "fourier", "fourier_group", "gram_matrix",
    "grid_relations_check", "haar_moment_estimate", "hadamard", "load_matrix",
    "magic_grid", "measure_top_mass", "moment_table", "moments_via_T",
    "moments_via_X", "parse_matrix_spec", "profile", "save_matrix",
    "seeded_phase_matrix", "structured_moments", "tensor", "transpose",
    "truncated_integral_word", "truncated_law", "truncation_tensor", "unparse",
    "validate", "verify_magic",
}


def test_public_names_are_pinned():
    # a new export, or a lost one, shows up as an edit of PUBLIC_NAMES
    names = {name for name, obj in vars(ht).items()
             if not name.startswith("_") and not inspect.ismodule(obj)}
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 47
