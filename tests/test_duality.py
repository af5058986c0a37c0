import numpy as np
import pytest

import hadtrunc as ht
from hadtrunc import spectra
from hadtrunc.duality import atoms_agree
from hadtrunc.spectra import SpectralMeasure


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
        for r, vals in zip(depths, exact(h, depths, cap)):
            calls.append((h.provenance, r))
            yield vals

    monkeypatch.setattr(spectra, "_gram_spectra", spy)
    return calls


@pytest.fixture
def sector_solves(monkeypatch):
    """(profile bytes, depth) of every sector-route spectrum solved, in order,
    plus None for every structured factor build."""
    calls = []
    exact_sector, exact_factors = spectra._sector_spectrum, spectra._structured_factors

    def sector(q, r):
        calls.append((q.tobytes(), r))
        return exact_sector(q, r)

    def factors(q, r):
        calls.append(None)
        return exact_factors(q, r)

    monkeypatch.setattr(spectra, "_sector_spectrum", sector)
    monkeypatch.setattr(spectra, "_structured_factors", factors)
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


def test_selfduality_solves_each_spectrum_once(sector_solves):
    # moments and atoms both need depths 1..r_max; each pair is solved once,
    # from the sector blocks: the structured route is never taken
    q = ht.seeded_phase_matrix(2, 2, 7)
    report = ht.dita_selfduality_residual(2, 2, q, 3, 3)
    assert report.passed and report.grid.shape == (3, 3)
    assert None not in sector_solves
    assert len(sector_solves) == len(set(sector_solves)) == 6  # H and H^t at depths 1..3


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
    "duality_residual": lambda tol: ht.duality_residual(
        ht.build_matrix("dita(2,2;seed=7)"), 2, 2, tol=tol),
    "dita_selfduality_residual": lambda tol: ht.dita_selfduality_residual(
        2, 2, ht.seeded_phase_matrix(2, 2, 7), 2, 2, tol=tol),
}


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS.keys())
def test_tolerance_must_be_finite_and_positive(call, tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        call(tol)
