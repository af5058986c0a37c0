"""Truncated spectral measures, moment tables and duality certification for
complex Hadamard matrices, with a structure-exploiting fast path for deformed
Fourier matrices.

Importing the package loads only `dita` and `errors`, and no numpy, so a
command line that refuses its request answers before numpy is loaded.  Every
export is looked up on access through the table `_HOME` (export name to
submodule): the first access imports its module, and every access returns
the object in that module now, so nothing patched or wrapped there is left
behind in the package namespace.  A submodule, such as `hadtrunc.matrices`,
is likewise imported on its first access as an attribute.

The `hadtrunc.dita` module is imported here and its binding dropped: on the
first import of a submodule, importlib binds it as an attribute of the
package, so a later first import of `hadtrunc.dita` would shadow the
constructor `dita` of `hadtrunc.matrices` with the module.
"""

from importlib import import_module as _import_module

from . import dita

del dita

_HOME = {name: module for module, names in {
    "dita": "bench_structured_vs_dense structured_moments",
    "duality": "DualityReport dita_selfduality_residual duality_residual",
    "errors": "DEFAULT_CAP CapExceededError EigensolverError HadamardValidationError "
              "MagicGridError MomentImagError SpecSyntaxError",
    "magic": "MagicGrid grid_relations_check magic_grid truncated_integral_word "
             "truncation_tensor verify_magic",
    "matrices": "HadamardMatrix ValidationReport adjoint conjugate dephase dita fourier "
                "fourier_group hadamard load_matrix save_matrix seeded_phase_matrix "
                "tensor transpose validate",
    "spectra": "MomentTable SpectralMeasure cesaro_moments gram_matrix "
               "haar_moment_estimate measure_top_mass moment_table moments_via_T "
               "moments_via_X profile truncated_law",
    "specs": "build_matrix parse_matrix_spec unparse",
}.items() for name in names.split()}

_SUBMODULES = {*_HOME.values(), "cli"}  # `dita` is caught first, as the constructor


def __getattr__(name):
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
