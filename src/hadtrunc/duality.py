"""Numerical certification of the duality identities.

The moment/truncation duality states gamma_p^r(H) = gamma_r^p(H^t), where
gamma_p^r = c_p^r / N^p; for deformed Fourier matrices the stronger
self-duality c_p^r(H) = c_p^r(H^t) holds for every parameter matrix.  Both
are exact identities, so residuals are expected to sit at roundoff and both
checks pass below one fixed tolerance with plenty of headroom, PASS_TOL of
`hadtrunc.errors`.  A report carries every residual, so another threshold can
be applied to it by the caller.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from . import matrices, spectra
from .errors import DEFAULT_CAP, PASS_TOL, check_cap


class DualityReport(NamedTuple):
    matrix: str
    p_max: int
    r_max: int
    grid: np.ndarray  # residuals, grid[p-1, r-1], p-major ordering
    max_residual: float
    tolerance: float
    passed: bool
    elapsed_s: float
    atoms_match: bool | None = None

    def to_dict(self):
        out = {
            "matrix": self.matrix,
            "p_max": self.p_max,
            "r_max": self.r_max,
            "max_residual": self.max_residual,
            "grid": self.grid.tolist(),
            "pass": self.passed,
            "tolerance": self.tolerance,
            "elapsed_s": self.elapsed_s,
        }
        if self.atoms_match is not None:
            out["atoms_match"] = self.atoms_match
        return out


def _report(h, grid, start, atoms_match=None):
    """The verdict on the residual grid[p-1, r-1] of h: its maximum, passed
    when that is below PASS_TOL and no atom comparison (atoms_match, None
    when none was made) failed, and the time elapsed since start."""
    max_res = float(grid.max())
    return DualityReport(h.provenance, *grid.shape, grid, max_res, PASS_TOL,
                         max_res < PASS_TOL and atoms_match is not False,
                         time.perf_counter() - start, atoms_match)


def duality_residual(h, p_max, r_max, cap=DEFAULT_CAP):
    """Residual grid |gamma_p^r(H) - gamma_r^p(H^t)| for p, r >= 1.

    The table of H to depths 1..r_max and that of H^t to depths 1..p_max are
    admitted together before either is solved.  When H equals its transpose
    entry for entry (as F_N and tao6 do), one table of H, for words and
    depths up to max(p_max, r_max), serves both sides: its power sums and
    spectra are those that the two tables would compute, so the grid is the
    same bit for bit."""
    if p_max < 1 or r_max < 1:
        raise ValueError("p_max and r_max must be >= 1")
    start = time.perf_counter()
    check_cap(h.n, max(p_max, r_max), cap)  # both tables' depths, before either is solved
    if np.array_equal(h.array, h.array.T):  # H = H^t: one table serves both sides
        side = max(p_max, r_max)
        table_h = table_t = spectra.moment_table(h, side, side, cap=cap)
    else:
        table_h = spectra.moment_table(h, p_max, r_max, cap=cap)
        table_t = spectra.moment_table(matrices.transpose(h), r_max, p_max, cap=cap)
    grid = np.abs(table_h.gamma[:p_max, 1:r_max + 1] - table_t.gamma[:r_max, 1:p_max + 1].T)
    return _report(h, grid, start)


def atoms_agree(m1, m2):
    """Whether two atomic measures coincide: locations within their clustering
    tolerance, weights within 1e-8."""
    if len(m1.atoms) != len(m2.atoms):
        return False
    tol = max(m1.cluster_tol, m2.cluster_tol)
    return all(abs(x1 - x2) <= tol and abs(w1 - w2) <= 1e-8
               for (x1, w1), (x2, w2) in zip(m1.atoms, m2.atoms))


def dita_selfduality_residual(m, n, q, p_max, r_max, cap=DEFAULT_CAP):
    """Self-duality residuals |c_p^r(H) - c_p^r(H^t)| / N^p for H deformed
    Fourier, plus an atom-by-atom comparison of the truncated measures at
    depths 1..r_max.

    Each (matrix, depth) spectrum is solved once and gives both the moment
    column and the atoms, and each matrix is profiled and searched for column
    involutions (`spectra._column_symmetries`) once.  Both sides are solved
    from the sector blocks (`spectra._sector_spectrum`) that those
    involutions split, never from the structured blocks that
    `spectra._gram_spectra` would pick for them, so the comparison does not
    rest on the structure it is about: the involutions are read from each
    side's entries, never from the spec, and each side keeps its own.
    """
    if p_max < 1 or r_max < 1:
        raise ValueError("p_max and r_max must be >= 1")
    start = time.perf_counter()
    h = matrices.dita(m, n, q)
    size = h.n
    check_cap(size, r_max, cap)
    norms = spectra._word_norms(size, p_max)
    sides = [(spectra.profile(side), spectra._column_symmetries(side.array))
             for side in (h, matrices.transpose(h))]
    grid = np.empty((p_max, r_max))
    atoms_ok = True
    for r in range(1, r_max + 1):
        spec_h, spec_t = (spectra._sector_spectrum(prof, r, gens) for prof, gens in sides)
        c_h, c_t = (spectra._power_sums(vals, p_max) / size**r for vals, _ in (spec_h, spec_t))
        grid[:, r - 1] = np.abs(c_h - c_t) / norms
        atoms_ok &= atoms_agree(spectra._law_from_spectrum(*spec_h, size, r),
                                spectra._law_from_spectrum(*spec_t, size, r))
    return _report(h, grid, start, atoms_match=atoms_ok)
