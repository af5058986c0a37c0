"""Truncated spectral measures, moment tables and duality certification for
complex Hadamard matrices, with a structure-exploiting fast path for deformed
Fourier matrices.

Importing the package loads only `errors`, `matrices`, `specs` and `dita`,
which is all that parsing, building and validating a matrix need.  The other
exports are looked up on access through the table `_HOME` (export name to
submodule): the first access imports `spectra`, `magic` or `duality`, and
every access returns the object in that module now, so nothing patched or
wrapped there is left behind in the package namespace.

`hadtrunc.dita` is imported before `from .matrices import dita`: on the first
import of a submodule, importlib binds it as an attribute of the package, so
a later first import of `hadtrunc.dita` would make `hadtrunc.dita` the module
instead of the constructor.
"""

from importlib import import_module as _import_module

from .dita import bench_structured_vs_dense, structured_moments
from .errors import (DEFAULT_CAP, CapExceededError, EigensolverError,
                     HadamardValidationError, MagicGridError, MomentImagError,
                     SpecSyntaxError)
from .matrices import (HadamardMatrix, ValidationReport, adjoint, conjugate,
                       dephase, dita, fourier, fourier_group, hadamard,
                       load_matrix, save_matrix, seeded_phase_matrix, tensor,
                       transpose, validate)
from .specs import build_matrix, parse_matrix_spec, unparse

_HOME = {name: module for module, names in {
    "duality": "DualityReport dita_selfduality_residual duality_residual",
    "magic": "MagicGrid grid_relations_check magic_grid truncated_integral_word "
             "truncation_tensor verify_magic",
    "spectra": "MomentTable SpectralMeasure cesaro_moments gram_matrix "
               "haar_moment_estimate measure_top_mass moment_table moments_via_T "
               "moments_via_X profile truncated_law",
}.items() for name in names.split()}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
