"""Numerical certification of the duality identities.

The moment/truncation duality states gamma_p^r(H) = gamma_r^p(H^t), where
gamma_p^r = c_p^r / N^p; for deformed Fourier matrices the stronger
self-duality c_p^r(H) = c_p^r(H^t) holds for every parameter matrix.  Both
are exact identities, so residuals are expected to sit at roundoff and the
checks use a uniform pass tolerance with plenty of headroom.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import matrices, spectra
from .magic import DEFAULT_CAP

PASS_TOL = 1e-8


@dataclass(frozen=True)
class DualityReport:
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


def duality_residual(h, p_max, r_max, tol=PASS_TOL, cap=DEFAULT_CAP):
    """Residual grid |gamma_p^r(H) - gamma_r^p(H^t)| for p, r >= 1."""
    start = time.perf_counter()
    table_h = spectra.moment_table(h, p_max, r_max, cap=cap)
    table_t = spectra.moment_table(matrices.transpose(h), r_max, p_max, cap=cap)
    grid = np.empty((p_max, r_max))
    for p in range(1, p_max + 1):
        for r in range(1, r_max + 1):
            grid[p - 1, r - 1] = abs(table_h.gamma[p - 1, r] - table_t.gamma[r - 1, p])
    max_res = float(grid.max())
    elapsed = time.perf_counter() - start
    return DualityReport(h.provenance, p_max, r_max, grid, max_res, tol,
                         max_res < tol, elapsed)


@dataclass(frozen=True)
class TopMassProbe:
    mass_h: float
    mass_ht: float
    gap: float

    def to_dict(self):
        return {"mass_h": self.mass_h, "mass_ht": self.mass_ht, "gap": self.gap}


def top_mass_duality(h, r_probe, cap=DEFAULT_CAP):
    """Masses at N of the depth-averaged truncated measures of H and H^t.

    A finite-depth probe of the limiting top-mass equality; the paper-level
    statement is about the Cesaro limit, so this is a diagnostic, not a gate.
    """
    if r_probe < 1:
        raise ValueError("r_probe must be >= 1")
    ht = matrices.transpose(h)
    mass_h = np.mean([spectra.measure_top_mass(spectra.truncated_law(h, r, cap=cap))
                      for r in range(1, r_probe + 1)])
    mass_t = np.mean([spectra.measure_top_mass(spectra.truncated_law(ht, r, cap=cap))
                      for r in range(1, r_probe + 1)])
    return TopMassProbe(float(mass_h), float(mass_t), float(abs(mass_h - mass_t)))


def atoms_agree(m1, m2, weight_tol=1e-8):
    """Whether two atomic measures coincide within their clustering tolerance."""
    if len(m1.atoms) != len(m2.atoms):
        return False
    tol = max(m1.cluster_tol, m2.cluster_tol)
    return all(abs(x1 - x2) <= tol and abs(w1 - w2) <= weight_tol
               for (x1, w1), (x2, w2) in zip(m1.atoms, m2.atoms))


def dita_selfduality_residual(m, n, q, p_max, r_max, tol=PASS_TOL, cap=DEFAULT_CAP,
                              atom_r_max=None):
    """Self-duality residuals |c_p^r(H) - c_p^r(H^t)| / N^p for H deformed
    Fourier, plus an atom-by-atom comparison of the truncated measures."""
    start = time.perf_counter()
    h = matrices.dita(m, n, q)
    ht = matrices.transpose(h)
    table_h = spectra.moment_table(h, p_max, r_max, cap=cap)
    table_t = spectra.moment_table(ht, p_max, r_max, cap=cap)
    size = h.n
    norms = np.array([float(size**p) for p in range(1, p_max + 1)])[:, None]
    grid = np.abs(table_h.c[:, 1:] - table_t.c[:, 1:]) / norms
    if atom_r_max is None:
        atom_r_max = r_max
    atoms_ok = all(
        atoms_agree(spectra.truncated_law(h, r, cap=cap),
                    spectra.truncated_law(ht, r, cap=cap))
        for r in range(1, atom_r_max + 1)
    )
    max_res = float(grid.max())
    elapsed = time.perf_counter() - start
    return DualityReport(h.provenance, p_max, r_max, grid, max_res, tol,
                         max_res < tol and atoms_ok, elapsed, atoms_match=atoms_ok)


def fourier_finite_check(n, r_max=4, tol=1e-10, cap=DEFAULT_CAP):
    """For F_N the mass of every truncated measure at N must equal 1/N,
    matching the cyclic group of order N behind the matrix."""
    h = matrices.fourier(n)
    return all(
        abs(spectra.measure_top_mass(spectra.truncated_law(h, r, cap=cap)) - 1.0 / n) <= tol
        for r in range(1, r_max + 1)
    )
