"""Truncated spectral measures, moment tables and duality certification for
complex Hadamard matrices, with a structure-exploiting fast path for deformed
Fourier matrices."""

from .duality import DualityReport, dita_selfduality_residual, duality_residual
from .dita import bench_structured_vs_dense, structured_moments
from .errors import (CapExceededError, EigensolverError, HadamardValidationError,
                     MagicGridError, MomentImagError, SpecSyntaxError)
from .magic import (DEFAULT_CAP, MagicGrid, grid_relations_check, magic_grid,
                    truncated_integral_word, truncation_tensor, verify_magic)
from .matrices import (HadamardMatrix, ValidationReport, adjoint, conjugate,
                       dephase, dita, fourier, fourier_group, hadamard,
                       load_matrix, save_matrix, seeded_phase_matrix, tensor,
                       transpose, validate)
from .specs import build_matrix, parse_matrix_spec, unparse
from .spectra import (MomentTable, SpectralMeasure, cesaro_moments, gram_matrix,
                      haar_moment_estimate, measure_top_mass, moment_table,
                      moments_via_T, moments_via_X, profile, truncated_law)

__version__ = "0.1.0"
