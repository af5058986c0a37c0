import math

import numpy as np
import pytest

import hadtrunc as ht
from hadtrunc import spectra
from hadtrunc.duality import atoms_agree
from hadtrunc.errors import PASS_TOL
from hadtrunc.spectra import SpectralMeasure

from conftest import STRUCTURED_FAULTS, build_input


def test_duality_residual_corpus(corpus_matrix):
    report = ht.duality_residual(corpus_matrix, 3, 3)
    assert report.passed
    assert report.max_residual < 1e-10
    assert report.grid.shape == (3, 3)


def test_duality_brute_cross_check():
    # recompute one grid cell from the raw moment definitions
    h = ht.build_matrix("dita(2,3;seed=7)")
    n, p, r = h.n, 2, 3
    lhs = ht.moments_via_T(h, p, r) / n ** p
    rhs = ht.moments_via_T(ht.transpose(h), r, p) / n ** r
    report = ht.duality_residual(h, 3, 3)
    assert report.grid[p - 1, r - 1] == pytest.approx(abs(lhs - rhs), abs=1e-14)


def test_duality_rectangular_grid():
    report = ht.duality_residual(ht.fourier(3), 2, 4)
    assert report.grid.shape == (2, 4)
    assert report.passed


@pytest.fixture
def solves(monkeypatch):
    """(matrix provenance, depth) of every Gram spectrum solved, in order."""
    exact = spectra._gram_spectra
    calls = []

    def spy(h, depths, cap):
        for r, spectrum in zip(depths, exact(h, depths, cap)):
            calls.append((h.provenance, r))
            yield spectrum

    monkeypatch.setattr(spectra, "_gram_spectra", spy)
    return calls


@pytest.fixture
def routes(monkeypatch):
    """(route, key, depth) of every spectrum solved, in order: key is (profile
    bytes, column involutions) on the sector route and the (M, N) that the
    input was recognized as on the structured route."""
    calls = []
    exact_sector, exact_structured = spectra._sector_spectrum, spectra._structured_spectrum

    def sector(q, r, gens=()):
        calls.append(("sector", (q.tobytes(), gens), r))
        return exact_sector(q, r, gens)

    def structured(factors, q, r):
        calls.append(("structured", factors[:2], r))
        return exact_structured(factors, q, r)

    monkeypatch.setattr(spectra, "_sector_spectrum", sector)
    monkeypatch.setattr(spectra, "_structured_spectrum", structured)
    return calls


@pytest.mark.parametrize("p_max, r_max, depths_h, depths_t", [
    (3, 1, [1], [1, 2, 3]),
    (1, 3, [1, 2, 3], [1]),
])
def test_duality_solves_only_read_spectra(solves, p_max, r_max, depths_h, depths_t):
    # gamma_p^r(H) needs H at depths 1..r_max, gamma_r^p(H^t) H^t at 1..p_max
    h = ht.build_matrix("dita(2,2;seed=7)")
    assert ht.duality_residual(h, p_max, r_max).passed
    name = h.provenance
    assert solves == ([(name, r) for r in depths_h]
                      + [(f"transpose({name})", r) for r in depths_t])


@pytest.mark.parametrize("spec, p_max, r_max", [
    ("fourier:6", 3, 3), ("fouriergroup:2x3", 2, 3), ("tao6", 3, 2), ("fourier:4", 1, 4),
])
def test_symmetric_duality_solves_one_table(solves, spec, p_max, r_max):
    # H = H^t entry for entry: one table to depth max(p_max, r_max) serves
    # both sides, and its grid is bitwise that of the two tables
    h = build_input(spec)
    assert np.array_equal(h.array, h.array.T)
    report = ht.duality_residual(h, p_max, r_max)
    assert solves == [(h.provenance, r) for r in range(1, max(p_max, r_max) + 1)]
    table_h = ht.moment_table(h, p_max, r_max)
    table_t = ht.moment_table(ht.transpose(h), r_max, p_max)
    assert np.array_equal(report.grid, np.abs(table_h.gamma[:, 1:] - table_t.gamma[:, 1:].T))
    assert report.passed and report.grid.shape == (p_max, r_max)


@pytest.mark.parametrize("seed, symmetric", [
    pytest.param(seed, symmetric, id=f"{seed}-symmetric" if symmetric else str(seed))
    for symmetric in (False, True) for seed in (5, 17)])
def test_selfduality_eigensolve_work(monkeypatch, seed, symmetric):
    # sum of n^3 over the blocks that eigvalsh solves, fixed by the shapes.
    # Only H is solved from its sector blocks: H^t takes the structured
    # route, whose 2 x 2 blocks (min(M, N) = 2) are solved in closed form,
    # with no eigvalsh call.  X of dita(2,2) and dita(2,3) is real at these
    # depths, so sector r - k is not solved apart from sector k and sectors 0
    # and r/2 are solved in halves: at N = 4, r = 4 the blocks are 55 + 15,
    # 60 and 21 + 45, not 70, 60, 66, 60; at N = 6, r = 3 they are 56 + 20
    # and 70, not 76, 70, 70.  Split by the column involutions of H as well
    # where the plan keeps them (|A| = 4 on dita(2,2) at r = 4, 2 on
    # dita(2,3) at r = 3, 1 at the lower depths), no block of dita(2,2) at
    # r = 4 exceeds 22.
    if not symmetric:
        monkeypatch.setattr(spectra, "_column_symmetries", lambda arr: ())
    exact = np.linalg.eigvalsh
    work = []

    def spy(a):
        work.append(a.shape[-1] ** 3 * math.prod(a.shape[:-2]))
        return exact(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    totals = (52_796, 144_506) if symmetric else (503_480, 539_468)
    for (m, n, depth), total in zip(((2, 2, 4), (2, 3, 3)), totals):
        work.clear()
        assert ht.dita_selfduality_residual(m, n, ht.seeded_phase_matrix(m, n, seed),
                                            depth, depth).passed
        assert sum(work) == total  # 1_093_600 and 1_137_828 with one block per sector


def test_selfduality_sides_keep_their_involutions(routes):
    # H is split by the column involutions found in its own entries, one for
    # dita(2,3;seed=7); its transpose, which has none, is recognized from its
    # entries as dita(3,2) shuffled and solved from its structured blocks
    q = ht.seeded_phase_matrix(2, 3, 7)
    assert spectra._column_symmetries(ht.transpose(ht.dita(2, 3, q)).array) == ()
    assert ht.dita_selfduality_residual(2, 3, q, 3, 3).passed
    assert [(r, len(key[1])) for route, key, r in routes if route == "sector"] == [
        (r, 1) for r in (1, 2, 3)]
    assert [(key, r) for route, key, r in routes if route == "structured"] == [
        ((3, 2), r) for r in (1, 2, 3)]


def test_selfduality_solves_each_spectrum_once(routes):
    # moments and atoms both need depths 1..r_max; each pair is solved once
    q = ht.seeded_phase_matrix(2, 2, 7)
    report = ht.dita_selfduality_residual(2, 2, q, 3, 3)
    assert report.passed and report.grid.shape == (3, 3)
    assert len(routes) == len(set(routes)) == 6  # H and H^t at depths 1..3


def _sector_key(h):
    return spectra.profile(h).tobytes(), spectra._column_symmetries(h.array)


@pytest.mark.parametrize("m, n, depth, recognized", [
    (2, 2, 3, (2, 2)), (2, 3, 3, (3, 2)), (3, 2, 3, (2, 3)), (3, 3, 2, (3, 3)),
    (2, 4, 2, (4, 2)), (4, 2, 2, (2, 4)),
    # M or N = 1: dita(1, N, Q) is F_N up to phases, as its transpose is; F_4
    # is dita(2, 2) up to a row shuffle (Cooley-Tukey), and so is recognized
    (1, 3, 3, None), (3, 1, 3, None), (1, 2, 3, None), (2, 1, 3, None), (1, 4, 2, (2, 2)),
])
def test_selfduality_routes(routes, m, n, depth, recognized):
    # H on its sector blocks, split by its own involutions; H^t on the
    # structured route as the dita it is, or, when it is no dita of
    # M, N >= 2, on sectors too; depth by depth
    q = ht.seeded_phase_matrix(m, n, 7)
    h = ht.dita(m, n, q)
    report = ht.dita_selfduality_residual(m, n, q, depth, depth)
    assert report.passed and report.atoms_match
    side_t = (("structured", recognized) if recognized
              else ("sector", _sector_key(ht.transpose(h))))
    assert routes == [call for r in range(1, depth + 1)
                      for call in (("sector", _sector_key(h), r), (*side_t, r))]


def _rotated_about_ones(vals, angle=1.0):
    """vals with its three largest entries rotated about (1, 1, 1) by angle:
    their sum and their sum of squares are kept, their sum of cubes is not."""
    axis = np.ones(3) / np.sqrt(3)
    top = vals[-3:].copy()
    along = axis * (axis @ top)
    vals[-3:] = (along + (top - along) * np.cos(angle)
                 + np.cross(axis, top) * np.sin(angle))
    return vals


@pytest.mark.parametrize("m, n, depth", [(2, 2, 4), (2, 3, 3)])
def test_selfduality_catches_a_fault_that_keeps_the_contract(monkeypatch, m, n, depth):
    # a sector route that rotates three eigenvalues about (1, 1, 1) keeps the
    # count, sum l and sum l^2, so it passes the contract; solved on both
    # sides, it would act alike on H and H^t and the report would pass
    exact = spectra._sector_spectrum

    def rotating(q, r, gens=()):
        vals, zeros = exact(q, r, gens)
        return spectra._certified_spectrum(_rotated_about_ones(vals), zeros, q, r)

    monkeypatch.setattr(spectra, "_sector_spectrum", rotating)
    report = ht.dita_selfduality_residual(m, n, ht.seeded_phase_matrix(m, n, 7), depth, depth)
    assert report.passed is False and report.atoms_match is False


@pytest.mark.parametrize("fault", STRUCTURED_FAULTS.values(), ids=STRUCTURED_FAULTS.keys())
def test_selfduality_structured_faults_rejected(monkeypatch, fault):
    install, error, match = fault
    install(monkeypatch)
    with pytest.raises(error, match=match):
        ht.dita_selfduality_residual(2, 2, ht.seeded_phase_matrix(2, 2, 7), 3, 3)


def test_duality_report_dict():
    data = ht.duality_residual(ht.fourier(2), 2, 2).to_dict()
    assert data["pass"] is True
    assert data["matrix"] == "fourier:2"
    assert len(data["grid"]) == 2
    assert data["elapsed_s"] >= 0.0
    assert "atoms_match" not in data


def test_dita_selfduality_seeded():
    for seed in (1, 7, 13):
        q = ht.seeded_phase_matrix(2, 2, seed)
        report = ht.dita_selfduality_residual(2, 2, q, 3, 3)
        assert report.passed
        assert report.atoms_match is True
        assert report.max_residual < 1e-10


def test_dita_selfduality_23():
    q = ht.seeded_phase_matrix(2, 3, 5)
    report = ht.dita_selfduality_residual(2, 3, q, 3, 2)
    assert report.passed
    assert "atoms_match" in report.to_dict()


def test_dita_selfduality_is_not_generic():
    # the per-(p, r) equality c_p^r(H) = c_p^r(H^t) is a feature of the
    # deformed Fourier family, not a consequence of plain duality; check
    # the machinery can in principle fail by feeding it a broken comparison
    h = ht.build_matrix("dita(2,2;seed=7)")
    c = ht.moments_via_T(h, 2, 2)
    ct = ht.moments_via_T(ht.transpose(h), 2, 2)
    assert c == pytest.approx(ct, abs=1e-10)


def test_atoms_agree():
    m1 = SpectralMeasure(2, 1, ((0.0, 0.5), (2.0, 0.5)), 1e-6)
    m2 = SpectralMeasure(2, 1, ((1e-8, 0.5), (2.0, 0.5)), 1e-6)
    m3 = SpectralMeasure(2, 1, ((0.0, 0.4), (2.0, 0.6)), 1e-6)
    m4 = SpectralMeasure(2, 1, ((2.0, 1.0),), 1e-6)
    assert atoms_agree(m1, m2)
    assert not atoms_agree(m1, m3)
    assert not atoms_agree(m1, m4)


def _masses_at_n(h, r_max):
    """Masses at N of the truncated measures of H at depths 1..r_max."""
    return np.array([ht.measure_top_mass(ht.truncated_law(h, r)) for r in range(1, r_max + 1)])


def test_top_mass_duality_fourier():
    h = ht.fourier(4)
    mass_h = _masses_at_n(h, 3).mean()
    mass_t = _masses_at_n(ht.transpose(h), 3).mean()
    assert mass_h == pytest.approx(0.25, abs=1e-10)
    assert abs(mass_h - mass_t) < 1e-10


def test_top_mass_duality_dita():
    h = ht.build_matrix("dita(2,2;seed=7)")
    mass_h = _masses_at_n(h, 3).mean()
    mass_t = _masses_at_n(ht.transpose(h), 3).mean()
    assert abs(mass_h - mass_t) < 1e-8
    assert 0.0 < mass_h <= 1.0


def test_top_mass_duality_rejects_zero_depth():
    # the top masses of H and H^t are compared atom by atom in
    # dita_selfduality_residual, which needs at least one depth
    with pytest.raises(ValueError, match="p_max and r_max must be >= 1"):
        ht.dita_selfduality_residual(2, 2, ht.seeded_phase_matrix(2, 2, 7), 3, 0)


@pytest.mark.parametrize("p_max, r_max", [(3, 0), (0, 3)])
def test_duality_residual_checks_arguments(p_max, r_max):
    with pytest.raises(ValueError, match="p_max and r_max must be >= 1"):
        ht.duality_residual(ht.fourier(2), p_max, r_max)


def test_fourier_finite_check_rejects_zero_depth():
    # depth 0 is the point mass at N, not 1/N; the spectra start at depth 1
    assert ht.measure_top_mass(ht.truncated_law(ht.fourier(3), 0)) == 1.0
    with pytest.raises(ValueError, match="depth r must be >= 1"):
        list(spectra._gram_spectra(ht.fourier(3), [0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fourier_finite_check(n):
    assert np.abs(_masses_at_n(ht.fourier(n), 4) - 1.0 / n).max() <= 1e-10


def test_fourier_finite_check_rejects_wrong_mass():
    # the mass 1/N at every depth is a Fourier feature: a deformed Fourier
    # matrix of the same size misses it by far more than the 1e-10 tolerance
    masses = _masses_at_n(ht.build_matrix("dita(2,2;seed=7)"), 3)
    assert np.abs(masses - 0.25).max() > 1e-2


TOLERANCE_CALLS = {
    "duality_residual": lambda **kw: ht.duality_residual(
        ht.build_matrix("dita(2,2;seed=7)"), 2, 2, **kw),
    "dita_selfduality_residual": lambda **kw: ht.dita_selfduality_residual(
        2, 2, ht.seeded_phase_matrix(2, 2, 7), 2, 2, **kw),
}


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS.keys())
def test_tolerance_must_be_finite_and_positive(call, tol):
    # the tolerance is fixed at PASS_TOL; no caller can set one, good or bad
    with pytest.raises(TypeError, match="'tol'"):
        call(tol=tol)
    assert call().tolerance == PASS_TOL
