import functools
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadtrunc as ht
from hadtrunc import magic, spectra
from hadtrunc.cli import main
from hadtrunc.dita import structured_gram_matrix
from hadtrunc.duality import atoms_agree
from hadtrunc.errors import CapExceededError, EigensolverError, MomentImagError, check_cap
from hadtrunc.magic import multi_indices
from hadtrunc.spectra import SpectralMeasure, cluster_atoms

import gram_oracle
from conftest import (CORPUS_SPECS, PLAN_CACHES, SMALL_SPECS, STRUCTURED_FAULTS,
                      build_input, expanded, gram_vector_oracle, tao6_matrix)


@pytest.fixture(scope="module")
def tao6():
    return tao6_matrix()


def routed(h, r):
    """The spectrum of h at the one depth r, on the route `_gram_spectra` picks."""
    [spectrum] = spectra._gram_spectra(h, [r])
    return expanded(spectrum)


def sector_route(h, r):
    """The spectrum of h at depth r from the cyclic sector blocks of its profile."""
    return expanded(spectra._sector_spectrum(spectra.profile(h), r))


def symmetry_route(h, r):
    """(spectrum, |A|): the spectrum of h at depth r from the sector blocks
    split by the group A of column involutions that the search finds and
    the plan keeps."""
    gens = spectra._column_symmetries(h.array)
    chars = spectra._sector_plan(h.n, r, gens)[2]
    return expanded(spectra._sector_spectrum(spectra.profile(h), r, gens)), len(chars) // r


def grid_multiplicity_and_gap(h, p, tol=1e-8):
    """Eigenvalue-1 multiplicity and gap of the grid-product T_p."""
    lam = np.linalg.eigvalsh(ht.truncation_tensor(ht.magic_grid(h), p))
    return int((np.abs(lam - 1.0) <= tol).sum()), 1.0 - lam[lam < 1.0 - tol].max()


def fourier_group_profile(orders):
    """delta_{a+d, b+c} over the product group, as a dense tensor."""
    shape = tuple(orders)
    n = int(np.prod(orders))
    q = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    av, bv = np.unravel_index(a, shape), np.unravel_index(b, shape)
                    cv, dv = np.unravel_index(c, shape), np.unravel_index(d, shape)
                    ok = all((av[k] + dv[k]) % orders[k] == (bv[k] + cv[k]) % orders[k]
                             for k in range(len(orders)))
                    q[a, b, c, d] = 1.0 if ok else 0.0
    return q


@pytest.mark.parametrize("orders", [[2], [3], [4], [5], [2, 2], [2, 3]])
def test_profile_fourier_is_group_delta(orders):
    h = ht.fourier_group(orders)
    expected = fourier_group_profile(orders)
    assert np.abs(ht.profile(h) - expected).max() < 1e-12


@pytest.mark.parametrize("h", [tao6_matrix(), ht.build_matrix("dita(3,3;seed=1)")],
                         ids=["tao6", "dita33-seed1"])
def test_profile_matches_einsum_formula(h):
    arr = h.array
    want = np.einsum("ia,ib,ic,id->abcd", arr, arr.conj(), arr.conj(), arr) / h.n
    assert np.abs(ht.profile(h) - want).max() <= 1e-14


def test_profile_invariants(corpus_matrix):
    q = ht.profile(corpus_matrix)
    n = corpus_matrix.n
    diag = q[np.arange(n)[:, None], np.arange(n)[None, :],
             np.arange(n)[:, None], np.arange(n)[None, :]]
    assert np.abs(diag - 1.0).max() < 1e-12
    assert np.abs(q - q.conj().transpose(2, 3, 0, 1)).max() < 1e-12
    assert np.abs(q).max() <= 1.0 + 1e-12


def test_profile_tensor_factorizes():
    h, k = ht.fourier(2), ht.build_matrix("dita(2,2;seed=7)")
    qh, qk = ht.profile(h), ht.profile(k)
    ql = ht.profile(ht.tensor(h, k))
    expected = np.einsum("ijkl,abcd->iajbkcld", qh, qk).reshape(8, 8, 8, 8)
    # index pairing (i,a) -> i*N_K + a on all four profile slots
    assert np.abs(ql - expected).max() < 1e-12


# the corpus at depths 1-3, and two inputs whose X_3 is complex, where a
# conjugated or reordered X would show
@pytest.mark.parametrize("spec, r", [(spec, r) for spec in CORPUS_SPECS for r in (1, 2, 3)]
                         + [("tao6", 3), ("dita(3,3;seed=1)", 3)])
def test_gram_routes_agree(spec, r):
    h = build_input(spec)
    xp = ht.gram_matrix(h, r)
    vecs = gram_oracle.gram_vectors(h.array, r)
    assert np.abs(xp - vecs @ vecs.conj().T).max() < 1e-10


def test_gram_routes_agree_depth_four():
    h = ht.build_matrix("dita(2,2;seed=13)")
    xp = ht.gram_matrix(h, 4)
    vecs = gram_oracle.gram_vectors(h.array, 4)
    assert np.abs(xp - vecs @ vecs.conj().T).max() < 1e-10


def test_gram_depth_two_is_abs_profile_squared(corpus_matrix):
    n = corpus_matrix.n
    q = ht.profile(corpus_matrix)
    x = ht.gram_matrix(corpus_matrix, 2)
    assert np.abs(x - np.abs(q.reshape(n * n, n * n)) ** 2).max() < 1e-12


def test_gram_invariants(corpus_matrix):
    n = corpus_matrix.n
    for r in (1, 2, 3):
        x = ht.gram_matrix(corpus_matrix, r)
        assert np.abs(x - x.conj().T).max() < 1e-12
        assert np.abs(np.diag(x) - 1.0).max() < 1e-12
        vals = np.linalg.eigvalsh(x)
        assert vals.min() >= -1e-8 * n
        assert vals.max() <= n + 1e-8 * n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_fourier_projection_law(n, r):
    x = ht.gram_matrix(ht.fourier(n), r)
    assert np.abs(x @ x - n * x).max() <= 1e-9 * n * n


def test_fourier_gram_is_difference_delta():
    n, r = 3, 2
    x = ht.gram_matrix(ht.fourier(n), r)
    digits = multi_indices(n, r)
    expected = np.ones((n**r, n**r))
    for s in range(r):
        expected *= ((digits[:, s][:, None] - digits[:, s][None, :]) % n
                     == (digits[:, 0][:, None] - digits[:, 0][None, :]) % n)
    assert np.abs(x - expected).max() < 1e-12


def test_gram_cap():
    with pytest.raises(CapExceededError):
        ht.gram_matrix(ht.fourier(6), 5)


def test_cap_refuses_a_power_without_forming_it():
    # 3^(10^11) has 4.8e10 digits, about 20 GB, and no string of it fits a message
    with pytest.raises(CapExceededError, match=r"3\^100000000000 exceeds size cap 4096") as exc:
        ht.truncated_law(ht.fourier(3), 10**11)
    assert (exc.value.requested, exc.value.cap) == ("3^100000000000", 4096)
    assert check_cap(3, 7, 3**7) == 3**7
    # a base below 2 is checked as 2 and the power returned is still N^k
    assert check_cap(1, 12, 4096) == 1
    with pytest.raises(CapExceededError, match=r"2\^100000000000 exceeds size cap 1$"):
        check_cap(1, 10**11, 1)
    with pytest.raises(CapExceededError, match=r"3\^8 exceeds"):
        check_cap(3, 8, 3**8 - 1)


def _assert_certificate_matches_dense(h, r):
    x = ht.gram_matrix(h, r)
    trace, frob_sq = spectra._gram_norms(ht.profile(h), r)
    assert trace == h.n**r
    assert np.trace(x).real == pytest.approx(trace, rel=1e-12)
    assert np.linalg.norm(x) ** 2 == pytest.approx(frob_sq, rel=1e-12)
    return x


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_certificate_matches_dense_gram(corpus_matrix, r):
    _assert_certificate_matches_dense(corpus_matrix, r)


@pytest.mark.parametrize("h", [tao6_matrix(), ht.build_matrix("dita(3,3;seed=1)")],
                         ids=["tao6", "dita33-seed1"])
def test_certificate_matches_dense_gram_complex(h):
    x = _assert_certificate_matches_dense(h, 3)
    assert np.abs(x.imag).max() > 1e-2


def test_spectrum_argument_checks():
    with pytest.raises(ValueError, match="depth r"):
        list(spectra._gram_spectra(ht.fourier(2), [0]))
    with pytest.raises(CapExceededError):
        list(spectra._gram_spectra(ht.fourier(6), [5]))
    for call in (lambda h: ht.cesaro_moments(h, 0, 3), lambda h: ht.haar_moment_estimate(h, 0)):
        with pytest.raises(ValueError, match="word length p"):
            call(ht.fourier(2))


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.inf, np.nan])
def test_haar_estimate_rejects_bad_tolerance(tol):
    # the tolerance is fixed at HAAR_TOL; no caller can set one, good or bad
    with pytest.raises(TypeError, match="tol"):
        ht.haar_moment_estimate(ht.build_matrix("dita(2,2;seed=7)"), 2, tol=tol)
    assert np.isfinite(spectra.HAAR_TOL) and spectra.HAAR_TOL > 0


@pytest.mark.parametrize("spec, p", [("tao6", 3), ("dita(2,2;seed=7)", 3),
                                     ("dita(3,3;seed=1)", 2), ("fourier:4", 2)])
def test_haar_estimate_error_is_exact(spec, p):
    # s_k minus the count at 1 is (1/k) sum_{lambda<1} lambda (1 - lambda^k) / (1 - lambda),
    # at most (1/k) sum_{lambda<1} lambda / (1 - lambda) <= N^p (1 - gap) / (k gap)
    h = build_input(spec)
    lam, _ = spectra._cesaro(h, p, 1, ht.DEFAULT_CAP)
    below = lam[lam < 1.0 - spectra.HAAR_TOL]
    for k in (1, 8, 32):
        est = ht.haar_moment_estimate(h, p, k_max=k)
        exact = (below * (1.0 - below**k) / (1.0 - below)).sum() / k
        bound = (below / (1.0 - below)).sum() / k
        assert est.estimate - est.rounded == pytest.approx(exact, abs=1e-12)
        assert exact <= bound + 1e-12
        assert bound <= h.n**p * (1.0 - est.gap) / (k * est.gap) + 1e-12


@pytest.mark.parametrize("spec, p", [("tao6", 3), ("dita(3,3;seed=1)", 2), ("fourier:5", 3)])
@pytest.mark.parametrize("k_max", [1, 2, 32])
def test_haar_estimate_is_last_cesaro_average(spec, p, k_max):
    # the estimate is the last Cesaro average of the same spectrum, bit for bit
    h = build_input(spec)
    seq = ht.cesaro_moments(h, p, k_max)
    assert ht.haar_moment_estimate(h, p, k_max).estimate == seq.partial_averages[-1]


def test_haar_estimate_is_average_at_k_max():
    h = ht.build_matrix("dita(2,2;seed=7)")
    for k_max in (0, -5):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            ht.haar_moment_estimate(h, 2, k_max=k_max)
    est = ht.haar_moment_estimate(h, 2, k_max=1)
    assert est.estimate == pytest.approx(4.0, rel=1e-12)  # s_1 = c_2^1 = N
    assert not est.converged


def test_cluster_atoms():
    atoms = cluster_atoms([0.0, 1e-9, 2.0, 2.0 + 1e-9, 5.0],
                          [0.25, 0.25, 0.2, 0.2, 0.1], tol=1e-6)
    assert len(atoms) == 3
    assert atoms[0][1] == pytest.approx(0.5)
    assert atoms[1][0] == pytest.approx(2.0, abs=1e-8)
    assert atoms[2] == (5.0, pytest.approx(0.1))


def cluster_atoms_loop(values, weights, tol):
    """The single-linkage walk over sorted values, one value at a time."""
    order = np.argsort(values)
    values = np.asarray(values)[order]
    weights = np.asarray(weights)[order]
    atoms = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            chunk_w = float(weights[start:i].sum())
            loc = float((values[start:i] * weights[start:i]).sum() / chunk_w)
            atoms.append((loc, chunk_w))
            start = i
    return tuple(atoms)


@pytest.mark.parametrize("seed", range(8))
def test_cluster_atoms_matches_loop(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-6
    centres = rng.uniform(0, 6, size=rng.integers(1, 12))
    sizes = rng.integers(1, 40, size=len(centres))
    sizes[0] = 40
    # chains with steps of 0.5 tol .. 0.9 tol: every gap < tol, and the first
    # chain spans > 19 tol, yet each chain is one atom
    chains = [c + np.cumsum(rng.uniform(0.5, 0.9, size=k) * tol)
              for c, k in zip(centres, sizes)]
    values = rng.permutation(np.concatenate(chains))
    weights = rng.uniform(0.1, 1.0, size=len(values))
    atoms = cluster_atoms(values, weights, tol)
    want = cluster_atoms_loop(values, weights, tol)
    assert len(atoms) == len(want) == len(centres)
    np.testing.assert_allclose(np.array(atoms), np.array(want), rtol=1e-14, atol=0)


def test_cluster_atoms_empty():
    assert cluster_atoms([], [], 1e-6) == cluster_atoms_loop([], [], 1e-6) == ()


def test_moment_table_peak_is_one_spectrum(monkeypatch):
    # a fresh spectrum of 10^6 values at each of three depths: a table that
    # kept them all would hold three of them next to the power-sum copy
    def fresh(h, depths, cap):
        for r in depths:
            yield np.random.default_rng(r).uniform(0, 4, size=10**6), 0

    monkeypatch.setattr(spectra, "_gram_spectra", fresh)
    tracemalloc.start()
    try:
        table = ht.moment_table(ht.fourier(4), 8, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vals = np.random.default_rng(1).uniform(0, 4, size=10**6)
    assert table.c[7, 1] == pytest.approx((vals**8).sum() / 4, rel=1e-12)
    assert peak <= 3 * vals.nbytes


def test_truncated_law_depth_zero():
    m = ht.truncated_law(ht.fourier(4), 0)
    assert m.atoms == ((4.0, 1.0),)


def test_truncated_law_depth_one(corpus_matrix):
    n = corpus_matrix.n
    m = ht.truncated_law(corpus_matrix, 1)
    assert len(m.atoms) == 2
    (x0, w0), (x1, w1) = m.atoms
    assert abs(x0) < 1e-10 and abs(x1 - n) < 1e-10
    assert w0 == pytest.approx(1 - 1 / n, abs=1e-12)
    assert w1 == pytest.approx(1 / n, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_fourier_truncations_stationary(n, r):
    m = ht.truncated_law(ht.fourier(n), r)
    assert len(m.atoms) == 2
    assert m.atoms[0][1] == pytest.approx(1 - 1 / n, abs=1e-12)
    assert m.atoms[1][1] == pytest.approx(1 / n, abs=1e-12)


def test_measure_basics(corpus_matrix):
    for r in (1, 2, 3):
        m = ht.truncated_law(corpus_matrix, r)
        assert m.total_weight == pytest.approx(1.0, abs=1e-10)
        locs = [x for x, _ in m.atoms]
        assert all(b - a > m.cluster_tol for a, b in zip(locs, locs[1:]))
        assert locs[0] > -1e-8 * corpus_matrix.n
        assert locs[-1] < corpus_matrix.n * (1 + 1e-8)


def test_law_moments_match_gram_moments(corpus_matrix):
    n = corpus_matrix.n
    for r in (1, 2):
        m = ht.truncated_law(corpus_matrix, r)
        for p in (1, 2, 3):
            assert m.moment(p) == pytest.approx(
                ht.moments_via_X(corpus_matrix, p, r), abs=1e-7 * n**p)


def test_measure_top_mass():
    m = ht.truncated_law(ht.fourier(5), 1)
    assert ht.measure_top_mass(m) == pytest.approx(0.2, abs=1e-12)
    delta = SpectralMeasure(3, 0, ((3.0, 1.0),), 1e-6)
    assert ht.measure_top_mass(delta) == 1.0
    no_top = SpectralMeasure(3, 1, ((0.0, 1.0),), 1e-6)
    assert ht.measure_top_mass(no_top) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("spec", [*SMALL_SPECS, "tao6", "dita(3,3;seed=1)"])
def test_moment_pipelines_agree(spec, p, r, tao6):
    h = tao6 if spec == "tao6" else ht.build_matrix(spec)
    via_t = ht.moments_via_T(h, p, r)
    via_x = ht.moments_via_X(h, p, r)
    assert abs(via_t - via_x) <= 1e-8 * h.n**p
    if spec == "dita(3,3;seed=1)" and p == r == 3:
        # Both oracles took Tr of a power of a complex matrix: X_3 and N T_3.
        assert np.abs(ht.gram_matrix(h, 3).imag).max() > 1e-2
        assert np.abs(ht.gram_matrix(ht.adjoint(h), 3).imag).max() > 1e-2


@pytest.mark.parametrize("k", range(1, 8))
def test_trace_power_is_trace_of_power(k):
    rng = np.random.default_rng(k)
    z = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    for a in (z, z.T, z.real):  # complex, non-contiguous complex, real
        want = np.trace(np.linalg.matrix_power(a, k))
        assert spectra._trace_power(a, k) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("oracle, p, r, bound", [
    (ht.moments_via_T, 4, 2, 2.2 * 6**6 * 16),  # W_2 and its reordered copy, no T_4
    (ht.moments_via_T, 4, 3, 2.2 * 6**8 * 16),  # T_4 and T_4^2
    (ht.moments_via_X, 2, 4, 1.2 * 6**8 * 16),  # X_4 alone
    (ht.moments_via_X, 4, 4, 2.2 * 6**8 * 16),  # X_4 and X_4^2
], ids=["T-p4-r2", "T-p4-r3", "X-p2-r4", "X-p4-r4"])
def test_moment_oracle_peak_has_no_full_size_product(oracle, p, r, bound):
    # T_4 and X_4 of F_6 are 1296 x 1296 complex, 26.9 MB, and the half-word
    # table W_2 is 6^6 complex, 0.75 MB; an elementwise product of the two
    # half powers before the sum would add one more T_4 or X_4
    tracemalloc.start()
    try:
        oracle(ht.fourier(6), p, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("oracle, p, r, match", [
    (ht.moments_via_T, 2, -1, "depth r must be >= 0"),
    (ht.moments_via_X, 2, -1, "depth r must be >= 0"),
    (ht.moments_via_T, 0, 0, "word length p must be >= 1"),
    (ht.moments_via_X, -1, 2, "word length p must be >= 1"),
], ids=["T-r", "X-r", "T-p", "X-p"])
def test_moment_oracles_check_arguments(oracle, p, r, match):
    with pytest.raises(ValueError, match=match):
        oracle(ht.fourier(2), p, r)


@pytest.mark.parametrize("oracle", [ht.moments_via_T, ht.moments_via_X], ids=["T", "X"])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_moment_oracles_admit_the_word_before_any_work(monkeypatch, oracle, r):
    # 3^700 passes the float range; X^700 or T_700 must not be formed first
    calls = []
    monkeypatch.setattr(spectra, "gram_matrix", lambda *args, **kwargs: calls.append("X"))
    monkeypatch.setattr(magic, "magic_grid", lambda *args, **kwargs: calls.append("grid"))
    with pytest.raises(ValueError, match=r"^3\^700 exceeds the float range$"):
        oracle(ht.fourier(3), 700, r)
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda h: ht.moments_via_T(h, 3, 1),
    lambda h: ht.moments_via_T(h, 3, 3),
    lambda h: ht.truncated_integral_word(h, 1, [0, 1, 2], [2, 1, 0]),
], ids=["T-r1", "T-r3", "word"])
def test_grid_oracles_check_the_cap_before_the_grid(monkeypatch, call):
    # the grid of F_48 holds 48^4 entries; 48^3 is refused before it is built
    calls = []
    monkeypatch.setattr(magic, "magic_grid", lambda *args, **kwargs: calls.append("grid"))
    with pytest.raises(CapExceededError,
                       match=r"^requested dimension 48\^3 exceeds size cap 4096$"):
        call(ht.fourier(48))
    assert calls == []


@pytest.mark.parametrize("r, dense", [(1, False), (2, False), (3, True)])
def test_grid_oracle_forms_T_only_from_depth_three(monkeypatch, r, dense):
    # at r <= 2 the trace comes from the half-word tables
    calls = []
    exact = magic.truncation_tensor

    def spy(*args, **kwargs):
        calls.append(args[1])
        return exact(*args, **kwargs)

    monkeypatch.setattr(magic, "truncation_tensor", spy)
    assert ht.moments_via_T(ht.fourier(3), 2, r) == pytest.approx(3.0, rel=1e-12)
    assert calls == ([2] if dense else [])


@pytest.mark.parametrize("call, match", [
    (lambda h: ht.gram_matrix(h, 0), "depth r must be >= 1"),
    (lambda h: ht.truncated_law(h, -1), "depth r must be >= 0"),
    (lambda h: ht.moment_table(h, 0, 1), "p_max must be >= 1 and r_max >= 0"),
    (lambda h: ht.moment_table(h, 1, -1), "p_max must be >= 1 and r_max >= 0"),
    (lambda h: ht.cesaro_moments(h, 2, 0), "k_max must be >= 1"),
], ids=["gram_matrix-r", "law-r", "table-p", "table-r", "cesaro-k"])
def test_spectral_calls_check_arguments(call, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        call(ht.fourier(2))


@pytest.mark.parametrize("oracle, module, dense, r, match", [
    (ht.moments_via_X, spectra, "gram_matrix", 2, r"tr\(X_2\^2\) has imaginary part"),
    (ht.moments_via_T, magic, "truncation_tensor", 3, r"Tr\(T_2\^3\) has imaginary part"),
], ids=["X", "T"])
def test_moment_oracles_reject_imaginary_traces(monkeypatch, oracle, module, dense, r, match):
    # a fault that makes the dense matrix non-Hermitian: i/2 added on its
    # diagonal; the grid oracle forms T_p only from r = 3 on
    exact = getattr(module, dense)
    fired = []

    def skewed(*args, **kwargs):
        a = exact(*args, **kwargs)
        fired.append(dense)
        return a + 0.5j * np.eye(len(a))

    monkeypatch.setattr(module, dense, skewed)
    with pytest.raises(MomentImagError, match=match):
        oracle(ht.fourier(3), 2, r)
    assert fired == [dense]


@pytest.mark.parametrize("r", [1, 2])
def test_grid_oracle_rejects_imaginary_half_word_traces(monkeypatch, r):
    # a fault that makes the half-word tables non-Hermitian: i/2 added on the
    # diagonal of every block W[x, y]
    exact = magic._half_words
    fired = []

    def skewed(grid, p):
        fired.append(p)
        return tuple(w + 0.5j * np.eye(grid.n) for w in exact(grid, p))

    monkeypatch.setattr(magic, "_half_words", skewed)
    with pytest.raises(MomentImagError, match=rf"Tr\(T_2\^{r}\) has imaginary part"):
        ht.moments_via_T(ht.fourier(3), 2, r)
    assert fired == [2]


def test_moment_closed_forms(corpus_matrix):
    n = corpus_matrix.n
    for p in (1, 2, 3):
        assert ht.moments_via_X(corpus_matrix, p, 0) == pytest.approx(n**p)
        assert ht.moments_via_X(corpus_matrix, p, 1) == pytest.approx(
            n ** (p - 1), rel=1e-10)
    for r in (1, 2, 3):
        assert ht.moments_via_X(corpus_matrix, 1, r) == pytest.approx(1.0, rel=1e-10)


def test_depth_two_moments_are_s_traces(corpus_matrix):
    n = corpus_matrix.n
    s = np.abs(ht.profile(corpus_matrix).reshape(n * n, n * n)) ** 2
    for p in (1, 2, 3):
        expected = np.trace(np.linalg.matrix_power(s, p)).real / n**2
        assert ht.moments_via_X(corpus_matrix, p, 2) == pytest.approx(
            expected, abs=1e-9 * n**p)


def test_moment_table(corpus_matrix):
    n = corpus_matrix.n
    table = ht.moment_table(corpus_matrix, 3, 3)
    assert table.c.shape == (3, 4)
    for p in (1, 2, 3):
        assert table.c[p - 1, 0] == pytest.approx(n**p)
        assert table.gamma[p - 1, 1] == pytest.approx(1 / n, rel=1e-10)
    for r in (1, 2, 3):
        assert table.gamma[0, r] == pytest.approx(1 / n, rel=1e-10)
    data = table.to_dict()
    assert data["N"] == n and len(data["c"]) == 3 and len(data["c"][0]) == 4


def test_moment_table_f2_constant_half():
    table = ht.moment_table(ht.fourier(2), 3, 3)
    assert np.abs(table.gamma[:, 1:] - 0.5).max() < 1e-12


def test_tensor_moment_multiplicativity():
    h, k = ht.fourier(2), ht.fourier(3)
    hk = ht.tensor(h, k)
    for p in (1, 2, 3):
        for r in (1, 2, 3):
            prod = ht.moments_via_X(h, p, r) * ht.moments_via_X(k, p, r)
            assert ht.moments_via_X(hk, p, r) == pytest.approx(prod, rel=1e-8)


def test_tensor_measure_atoms_multiply():
    h = ht.fourier(2)
    k = ht.build_matrix("dita(2,2;seed=7)")
    hk = ht.tensor(h, k)
    for r in (1, 2):
        mh = ht.truncated_law(h, r)
        mk = ht.truncated_law(k, r)
        mhk = ht.truncated_law(hk, r)
        products = {xh * xk for xh, _ in mh.atoms for xk, _ in mk.atoms}
        for x, _ in mhk.atoms:
            assert any(abs(x - prod) <= mhk.cluster_tol for prod in products)


def test_cesaro_fourier_constant():
    n, p = 3, 3
    seq = ht.cesaro_moments(ht.fourier(n), p, 6)
    assert np.abs(seq.partial_averages - n ** (p - 1)).max() < 1e-10
    assert seq.last_increment < 1e-10


def test_cesaro_first_moment_is_one(corpus_matrix):
    seq = ht.cesaro_moments(corpus_matrix, 1, 5)
    assert np.abs(seq.partial_averages - 1.0).max() < 1e-10


def test_cesaro_dita_diagnostic():
    seq = ht.cesaro_moments(ht.build_matrix("dita(2,2;seed=7)"), 2, 12)
    assert len(seq.partial_averages) == 12
    assert np.isfinite(seq.partial_averages).all()
    assert seq.last_increment >= 0.0


def test_haar_estimate_fourier():
    for n in (2, 3, 4):
        for p in (1, 2, 3):
            est = ht.haar_moment_estimate(ht.fourier(n), p, k_max=6)
            assert est.converged
            assert est.rounded == n ** (p - 1)
            assert est.estimate == pytest.approx(n ** (p - 1), rel=1e-10)
            assert est.gap == pytest.approx(1.0, abs=1e-10)  # T_p is a projection


def test_haar_estimate_first_moment(corpus_matrix):
    est = ht.haar_moment_estimate(corpus_matrix, 1, k_max=6)
    assert est.converged and est.rounded == 1


def test_haar_estimate_tensor_multiplicative():
    est = ht.haar_moment_estimate(ht.tensor(ht.fourier(2), ht.fourier(2)), 2,
                                  k_max=6)
    assert est.converged and est.rounded == 4


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_truncation_tensor_is_adjoint_gram(small_matrix, p):
    t = ht.truncation_tensor(ht.magic_grid(small_matrix), p)
    x = ht.gram_matrix(ht.adjoint(small_matrix), p)
    assert np.abs(t - x / small_matrix.n).max() < 1e-14


def test_truncation_tensor_is_adjoint_gram_tao6(tao6):
    for p in (1, 2, 3, 4):
        t = ht.truncation_tensor(ht.magic_grid(tao6), p)
        x = ht.gram_matrix(ht.adjoint(tao6), p)
        assert np.abs(t - x / 6).max() < 1e-14
        # X_p(H^t) = conj X_p(H^*), the first step of `spectra._cesaro`'s proof
        xt = ht.gram_matrix(ht.transpose(tao6), p)
        assert np.abs(t - xt.conj() / 6).max() < 1e-14
    assert np.abs(x.imag).max() > 1e-2


def _grid_cesaro(h, p, k_max):
    moments = [ht.moments_via_T(h, p, r) for r in range(1, k_max + 1)]
    return np.cumsum(moments) / np.arange(1, k_max + 1)


# dita(3,3;seed=1) at p = 3 has a complex X_3 and takes the structured route.
@pytest.mark.parametrize("spec, p", [(spec, p) for spec in SMALL_SPECS for p in (1, 2, 3)]
                         + [("dita(3,3;seed=1)", 3)])
def test_cesaro_matches_grid_route(spec, p):
    h = ht.build_matrix(spec)
    seq = ht.cesaro_moments(h, p, 5)
    np.testing.assert_allclose(seq.partial_averages, _grid_cesaro(h, p, 5), rtol=1e-12)


def test_cesaro_matches_grid_route_tao6(tao6):
    seq = ht.cesaro_moments(tao6, 3, 5)
    np.testing.assert_allclose(seq.partial_averages, _grid_cesaro(tao6, 3, 5),
                               rtol=1e-12)


@pytest.mark.parametrize("consumer", [
    pytest.param(lambda h: ht.cesaro_moments(h, 3, 5), id="cesaro"),
    pytest.param(lambda h: ht.haar_moment_estimate(h, 3), id="haar"),
])
def test_cesaro_solves_h_itself(solves, consumer):
    # T_p has the spectrum of X_p(H) / N (`spectra._cesaro`): the one spectrum
    # solved is that of H at depth p, and no transpose of H is built
    h = ht.build_matrix("dita(2,3;seed=7)")
    consumer(h)
    assert solves == [(h.provenance, 3)]


# Identity A across the two depth axes: c_p^r of the Cesaro core, from the
# spectrum of X_p, is c_p^r of the moment table, from those of X_1..X_k
@pytest.mark.parametrize("spec, p, k_max", [
    ("tao6", 2, 4), ("dita(2,3;seed=7)", 3, 4), ("fourier:5", 3, 5)])
def test_cesaro_averages_moment_table_row(spec, p, k_max):
    h = build_input(spec)
    row = ht.moment_table(h, p, k_max).c[p - 1, 1:]
    np.testing.assert_allclose(ht.cesaro_moments(h, p, k_max).partial_averages,
                               np.cumsum(row) / np.arange(1, k_max + 1), rtol=1e-12, atol=0)


@pytest.mark.parametrize("spec, expected", [
    ("dita(2,2;seed=7)", [1, 3, 10, 35]),
    ("tao6", [1, 2, 5, 14]),
])
def test_haar_rounded_is_unit_multiplicity(spec, expected, tao6):
    h = tao6 if spec == "tao6" else ht.build_matrix(spec)
    for p, want in enumerate(expected, start=1):
        est = ht.haar_moment_estimate(h, p)
        multiplicity, gap = grid_multiplicity_and_gap(h, p)
        assert est.rounded == multiplicity == want
        assert est.gap == pytest.approx(gap, abs=1e-10)
        assert est.to_dict()["gap"] == est.gap


SPECTRUM_CONSUMERS = {
    "moment_table": lambda h: ht.moment_table(h, 2, 4),
    "cesaro_moments": lambda h: ht.cesaro_moments(h, 4, 3),
    "truncated_law": lambda h: ht.truncated_law(h, 4),
}


@pytest.fixture
def generic_route(request, monkeypatch):
    """Recognize no input as a deformed Fourier matrix, so every spectrum is
    solved from the sector blocks: the cyclic ones (A = 1), with no column
    involution found, unless the fixture is parametrized indirectly with
    True, which keeps the search (the symmetry route)."""
    monkeypatch.setattr(spectra, "_dita_factors", lambda arr: None)
    if not getattr(request, "param", False):
        monkeypatch.setattr(spectra, "_column_symmetries", lambda arr: ())


def on_both_routes(cases):
    """pytest.params of (*values, generic_route) for the (id, values) cases:
    each on the cyclic route under its own id, then on the symmetry route
    under id-symmetric; generic_route is parametrized indirectly."""
    return ([pytest.param(*values, False, id=name) for name, values in cases]
            + [pytest.param(*values, True, id=f"{name}-symmetric") for name, values in cases])


@pytest.fixture
def structured_calls(monkeypatch):
    """(M, N, r) of every structured factor build, in call order, one per
    depth of each call."""
    exact = spectra._structured_factors
    calls = []

    def spy(q, depths):
        calls.extend((*np.shape(q), r) for r in depths)
        return exact(q, depths)

    monkeypatch.setattr(spectra, "_structured_factors", spy)
    return calls


@pytest.mark.parametrize("spec", ["dita(3,3;seed=1)", "dita(2,3;seed=7)",
                                  "transpose(dita(2,3;seed=7))"])
def test_truncation_spectrum_takes_structured_route(monkeypatch, structured_calls, spec):
    def forbidden(q, r):
        raise AssertionError("T_p was solved from the sector blocks")

    monkeypatch.setattr(spectra, "_sector_spectrum", forbidden)
    h = ht.build_matrix(spec)
    for consumer in (lambda: ht.cesaro_moments(h, 3, 5), lambda: ht.haar_moment_estimate(h, 3)):
        structured_calls.clear()
        consumer()
        assert len(structured_calls) == 1


@pytest.mark.parametrize("consumer", [
    pytest.param(lambda: ht.truncated_law(ht.fourier(8), 3), id="law-fourier8-r3"),
    pytest.param(lambda: ht.duality_residual(ht.fourier(6), 3, 3), id="duality-fourier6"),
    pytest.param(lambda: ht.truncated_law(build_input("phased"), 4), id="law-phased-dita23-r4"),
])
def test_equivalent_dita_takes_structured_route(monkeypatch, structured_calls, consumer):
    def forbidden(q, r):
        raise AssertionError("an equivalent dita was solved from the sector blocks")

    monkeypatch.setattr(spectra, "_sector_spectrum", forbidden)
    consumer()
    assert structured_calls


def _skew_one_entry(out, rows, cols):
    out[-1, -2] += 1e-6


def _skew_spread(out, rows, cols):
    # Every entry above the diagonal of X off by tol/2 (N = 4): each passes a
    # max-entry check.
    place = 4 ** np.arange(rows.shape[1] - 1, -1, -1)
    upper = (rows @ place)[:, None] < (cols @ place)[None, :]
    out[upper] += spectra.EIGEN_RESIDUAL_TOL * 4 / 2


@pytest.mark.parametrize("consumer, fault, generic_route", on_both_routes([
    (name + suffix, (consumer, fault))
    for suffix, fault in (("", _skew_one_entry), ("-spread", _skew_spread))
    for name, consumer in SPECTRUM_CONSUMERS.items()
]), indirect=["generic_route"])
def test_non_hermitian_gram_rejected(monkeypatch, generic_route, consumer, fault):
    exact = spectra._product_over_cycle

    def skewed(tensor, rows, cols, r):
        out = exact(tensor, rows, cols, r)
        fault(out, rows, cols)
        return out

    monkeypatch.setattr(spectra, "_product_over_cycle", skewed)
    with pytest.raises(MomentImagError, match="not Hermitian"):
        consumer(ht.build_matrix("dita(2,2;seed=7)"))


@pytest.mark.parametrize("consumer, generic_route", on_both_routes(
    [(name, (consumer,)) for name, consumer in SPECTRUM_CONSUMERS.items()]),
    indirect=["generic_route"])
def test_non_cyclic_gram_rejected(monkeypatch, generic_route, consumer):
    exact = spectra._sector_plan

    def lossy(n, r, gens=()):
        # The first batch, which holds the character (0, 0) and is always
        # built, is dropped wherever another batch is left: the blocks stay
        # Hermitian, but their eigenvalues miss the rows of that batch.
        rows, reps, chars, batches = exact(n, r, gens)
        return rows, reps, chars, batches[1:] or batches

    monkeypatch.setattr(spectra, "_sector_plan", lossy)
    with pytest.raises(EigensolverError, match=r"eigenvalues, not N\^r = "):
        consumer(ht.build_matrix("dita(2,2;seed=7)"))


@pytest.fixture
def route_work(monkeypatch):
    """Calls of `profile`, of `_dita_factors` and of the involution search
    `_column_symmetries`, by name."""
    calls = {"profile": 0, "_dita_factors": 0, "_column_symmetries": 0}
    for name in calls:
        def spy(arg, name=name, exact=getattr(spectra, name)):
            calls[name] += 1
            return exact(arg)

        monkeypatch.setattr(spectra, name, spy)
    return calls


@pytest.mark.parametrize("consumer, profiles, recognitions, searches", [
    pytest.param(lambda: ht.duality_residual(ht.fourier(6), 3, 3), 1, 1, 0, id="duality-fourier6"),
    pytest.param(lambda: ht.duality_residual(tao6_matrix(), 2, 3), 1, 1, 1, id="duality-tao6"),
    pytest.param(lambda: ht.duality_residual(ht.build_matrix("dita(2,3;seed=7)"), 3, 3), 2, 2, 0,
                 id="duality-dita23"),
    pytest.param(lambda: ht.moment_table(ht.fourier(6), 4, 4), 1, 1, 0, id="moments-fourier6"),
    pytest.param(lambda: ht.moment_table(tao6_matrix(), 4, 3), 1, 1, 1, id="moments-tao6"),
    pytest.param(lambda: ht.dita_selfduality_residual(2, 3, ht.seeded_phase_matrix(2, 3, 7),
                                                      3, 3), 2, 1, 1, id="selfduality-dita23"),
    pytest.param(lambda: ht.truncated_law(tao6_matrix(), 3), 1, 1, 1, id="law-tao6"),
    pytest.param(lambda: ht.haar_moment_estimate(tao6_matrix(), 3), 1, 1, 1, id="haar-tao6"),
])
def test_route_decided_once_per_matrix(route_work, consumer, profiles, recognitions, searches):
    # one profile and one recognition per matrix (H, then H^t, or H alone when
    # H = H^t), not per depth; the involution search runs once per matrix
    # that no recognition claims, and never for a recognized dita; the
    # self-duality check forces the sector route on H, which it searches and
    # does not recognize, and recognizes H^t
    consumer()
    assert route_work == {"profile": profiles, "_dita_factors": recognitions,
                          "_column_symmetries": searches}


def permuted_dita_block():
    """[[F_3, D F_3 P], [F_3, -D F_3 P]] with D a random unimodular diagonal
    and P the swap of columns 0 and 1: a Hadamard matrix of Dita's block form
    (P. Dita, J. Phys. A 37, 2004) that is dita(2,3) up to a column
    permutation, one that `spectra._dita_factors` does not try."""
    f3 = ht.fourier(3).array
    d = np.exp(2j * np.pi * np.random.default_rng(7).random(3))[:, None]
    b = d * f3[:, [1, 0, 2]]
    return ht.hadamard(np.block([[f3, b], [f3, -b]]), "permuted-dita23-block")


def test_permuted_dita_block_takes_the_cyclic_route(route_work, structured_calls):
    # a dita(2,3) whose columns no recognized shuffle restores, and no column
    # involution of which fixes the profile: the plain sector route (A = 1),
    # with a real X and 4 atoms at depth 3
    h = permuted_dita_block()
    law = ht.truncated_law(h, 3)
    assert route_work == {"profile": 1, "_dita_factors": 1, "_column_symmetries": 1}
    assert not structured_calls
    assert spectra._dita_factors(h.array) is None
    assert spectra._column_symmetries(h.array) == ()
    assert np.abs(spectra.gram_matrix(h, 3).imag).max() <= 1e-12
    assert len(law.atoms) == 4


def test_refusals_precede_route_work(monkeypatch, capsys):
    def forbidden(arg):
        raise AssertionError("the route was decided before a refusal")

    monkeypatch.setattr(spectra, "profile", forbidden)
    monkeypatch.setattr(spectra, "_dita_factors", forbidden)
    f6, q = ht.fourier(6), ht.seeded_phase_matrix(2, 3, 7)
    # when the dispatch point is called, with no spectrum drawn
    with pytest.raises(ValueError, match="depth r must be >= 1"):
        spectra._gram_spectra(f6, [0, 1])
    with pytest.raises(ValueError, match="depth r must be >= 1"):
        spectra._gram_spectra(f6, [1, 0])
    # every depth is admitted before the first is solved
    for refused in (lambda: spectra._gram_spectra(f6, [5]),
                    lambda: spectra._gram_spectra(f6, [5, 1]),
                    lambda: spectra._gram_spectra(f6, [1, 5]),
                    lambda: ht.moment_table(f6, 2, 5),
                    lambda: ht.duality_residual(f6, 5, 1),
                    lambda: ht.duality_residual(f6, 1, 5),
                    lambda: ht.truncated_law(f6, 5),
                    lambda: ht.moment_table(f6, 2, 3, cap=5),
                    lambda: ht.cesaro_moments(f6, 5, 3),
                    lambda: ht.cesaro_moments(f6, 1, 4097),
                    lambda: ht.cesaro_moments(f6, 1, 10**11),
                    lambda: ht.haar_moment_estimate(f6, 1, k_max=4097),
                    lambda: ht.haar_moment_estimate(f6, 1, cap=31),  # the default k_max = 32
                    lambda: ht.duality_residual(f6, 2, 2, cap=5),
                    lambda: ht.structured_moments(q, 2, 5),
                    lambda: ht.dita_selfduality_residual(2, 3, q, 2, 5)):
        with pytest.raises(CapExceededError):
            refused()
    for argv in (["moments", "fourier:6", "--p-max", "2", "--r-max", "5"],
                 ["duality", "fourier:6", "--p-max", "5", "--r-max", "1"]):
        assert main(argv) == 3
    assert capsys.readouterr().out == ""


def test_cesaro_length_is_admitted_against_the_cap():
    # k_max is the length of the output: admitted up to the cap, refused past it
    # as k_max^1, and checked to be >= 1 before that
    f2 = ht.fourier(2)
    assert len(ht.cesaro_moments(f2, 1, 8, cap=8).partial_averages) == 8
    assert ht.haar_moment_estimate(f2, 1, k_max=8, cap=8).rounded == 1
    for refused in (lambda: ht.cesaro_moments(f2, 1, 9, cap=8),
                    lambda: ht.haar_moment_estimate(f2, 1, k_max=9, cap=8)):
        with pytest.raises(CapExceededError, match=r"dimension 9\^1 exceeds size cap 8$"):
            refused()
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        ht.cesaro_moments(f2, 1, 0, cap=0)


def test_structured_moments_refuses_word_before_solving(monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("the route was decided or a spectrum solved before the word "
                             "was refused")

    # the profile, the recognition and the involution search are route work
    # too: the dispatch point does them on the first draw, after the word
    for name in ("_structured_spectra", "profile", "_dita_factors", "_column_symmetries"):
        monkeypatch.setattr(spectra, name, forbidden)
    q = ht.seeded_phase_matrix(2, 3, 7)
    with pytest.raises(ValueError, match=r"^6\^1100 exceeds the float range$"):
        ht.structured_moments(q, 1100, 3)
    for refused in (lambda: ht.moment_table(ht.fourier(6), 10**6, 1),
                    lambda: ht.structured_moments(q, 10**6, 1),
                    lambda: ht.dita_selfduality_residual(2, 3, q, 10**6, 1)):
        with pytest.raises(ValueError, match=r"^6\^1000000 exceeds the float range$"):
            refused()
    assert main(["bench", "--m", "2", "--n", "3", "--seed", "7", "--p", "1100",
                 "--r", "3"]) == 2
    assert capsys.readouterr() == ("", "error: 6^1100 exceeds the float range\n")
    assert main(["moments", "fourier:3", "--p-max", "700", "--r-max", "1"]) == 2
    assert capsys.readouterr() == ("", "error: 3^700 exceeds the float range\n")


def test_moment_table_admits_depths_then_word(monkeypatch):
    exact = spectra.check_cap
    caps = []

    def spy(base, exponent, cap):
        caps.append((base, exponent))
        return exact(base, exponent, cap)

    monkeypatch.setattr(spectra, "check_cap", spy)
    ht.moment_table(ht.fourier(3), 4, 3)
    assert caps == [(3, 1), (3, 2), (3, 3)]  # the dispatch point's, one per depth, and no more
    # a depth past the cap, named at the first one, before a word past the
    # float range, and both before a table of 10^11 rows could be allocated
    with pytest.raises(CapExceededError, match=r"3\^8 exceeds size cap"):
        ht.moment_table(ht.fourier(3), 10**11, 10**11)
    with pytest.raises(CapExceededError, match=r"2\^13 exceeds size cap 4096$"):
        ht.moment_table(ht.fourier(1), 1, 10**11)  # N = 1 too, at its first depth past the cap
    with pytest.raises(ValueError, match=r"3\^100000000000 exceeds the float range"):
        ht.moment_table(ht.fourier(3), 10**11, 1)
    # N = 1 is admitted as N = 2: the largest word that N = 2 admits, and no longer
    assert ht.moment_table(ht.fourier(2), 1023, 1).c[-1, 0] == 2.0**1023
    with pytest.raises(ValueError, match=r"2\^1024 exceeds the float range"):
        ht.moment_table(ht.fourier(2), 1024, 1)
    assert (ht.moment_table(ht.fourier(1), 1023, 1).c == 1.0).all()
    for table, power in ((lambda: ht.moment_table(ht.fourier(1), 1024, 1), "1024"),
                         (lambda: ht.dita_selfduality_residual(1, 1, [[1.0]], 10**11, 1),
                          "100000000000")):
        with pytest.raises(ValueError, match=rf"^2\^{power} exceeds the float range$"):
            table()


def test_gram_spectrum_never_builds_x(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the dense Gram matrix was built")

    monkeypatch.setattr(spectra, "gram_matrix", forbidden)
    for recognize in (spectra._dita_factors, lambda arr: None):  # structured, then sectors
        monkeypatch.setattr(spectra, "_dita_factors", recognize)
        for consumer in SPECTRUM_CONSUMERS.values():
            consumer(ht.build_matrix("dita(2,2;seed=7)"))
    h = ht.build_matrix("transpose(dita(2,3;seed=7))")
    tracemalloc.start()
    try:
        sector_route(h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1296**2 * 16  # the 26.9 MB of X at dim 1296


@pytest.fixture
def sectors(monkeypatch):
    """(size, count) of the batches of blocks handed to eigvalsh, in call
    order: count real blocks of one size per call."""
    exact = np.linalg.eigvalsh
    batches = []

    def recording(x):
        assert x.ndim == 3 and x.dtype == np.float64
        batches.append((x.shape[2], x.shape[0]))
        return exact(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return batches


def _necklaces(n, r):
    """(1/r) sum_{d | r} phi(d) n^{r/d}: the number of orbits of the shift."""
    phi = [sum(gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(r + 1)]
    return sum(phi[d] * n ** (r // d) for d in range(1, r + 1) if r % d == 0) // r


def _palindromic_necklaces(n, r):
    """The orbits of the shift that the reversal fixes: 2 * bracelets - necklaces."""
    return (n + 1) * n ** (r // 2) // 2 if r % 2 == 0 else n ** ((r + 1) // 2)


# Each input with the exact batches its sector route solves, as (size, count):
# equal blocks share a call while count size^2 <= _CHUNK_ENTRIES.
@pytest.mark.parametrize("spec, r, batches", [
    pytest.param("fourier:2", r, batches, id=f"fourier2-r{r}") for r, batches in enumerate([
        [(2, 1)], [(3, 1), (1, 1)], [(4, 1), (2, 1)], [(6, 1), (3, 1), (1, 1), (3, 1)],
        [(8, 1), (6, 2)], [(13, 1), (1, 1), (9, 1), (11, 1), (3, 1), (7, 1)]], start=1)
] + [
    pytest.param("tao6", 2, [(21, 1), (15, 1)], id="tao6-r2"),
    pytest.param("tao6", 3, [(76, 1), (70, 2)], id="tao6-r3"),
    pytest.param("transpose(dita(2,3;seed=7))", 3, [(56, 1), (20, 1), (70, 1)],
                 id="transpose-dita23-r3"),
    pytest.param("transpose(dita(2,3;seed=7))", 4, [(336, 1), (315, 1), (330, 1), (315, 1)],
                 id="transpose-dita23-r4"),
    pytest.param("dita(3,3;seed=1)", 3, [(249, 1), (240, 1), (240, 1)], id="dita33-r3"),
    pytest.param("fouriergroup:2x2x2", 3, [(120, 1), (56, 1), (168, 1)],
                 id="fouriergroup222-r3"),
])
def test_cyclic_blocks_match_gram_vector_oracle(sectors, spec, r, batches):
    h = build_input(spec)
    vals = sector_route(h, r)
    assert np.abs(vals - gram_vector_oracle(spec, r)).max() <= 1e-12 * h.n
    assert sectors == batches
    necklaces = _necklaces(h.n, r)
    if np.abs(spectra.gram_matrix(h, r).imag).max() > 1e-9:
        # complex X: one block per sector, sector 0 alone first with one row
        # per necklace
        assert sum(count for _, count in sectors) == r
        assert sum(size * count for size, count in sectors) == h.n**r
        assert sectors[0] == (necklaces, 1)
        return
    # real X: sector 0 in its R-even half, one row per bracelet, and its R-odd
    # half, one row per reversed pair; then the blocks of the sectors k with
    # 0 < k < r/2, each solved once for k and r - k; then the nonempty
    # halves of sector r/2
    pairs = (necklaces - _palindromic_necklaces(h.n, r)) // 2
    zero = [(necklaces - pairs, 1), (pairs, 1)] if pairs else [(necklaces, 1)]
    assert sectors[:len(zero)] == zero
    rest, mid = sectors[len(zero):], 0
    while sum(count for _, count in rest[:mid]) < (r - 1) // 2:
        mid += 1
    twice, halves = rest[:mid], rest[mid:]
    assert sum(count for _, count in twice) == (r - 1) // 2
    assert all(count == 1 for _, count in halves)
    assert len(halves) in ((1, 2) if r % 2 == 0 else (0,))
    assert sum(size * count for size, count in sectors + twice) == h.n**r


def test_cyclic_sector_sizes_depth_four(sectors, tao6):
    sector_route(tao6, 4)
    # sector k keeps the orbits with k d = 0 (mod 4): all, d = 4, d in {2, 4},
    # d = 4; no two fit one call of at most _CHUNK_ENTRIES entries
    assert sectors == [(336, 1), (315, 1), (330, 1), (315, 1)]
    assert _necklaces(6, 4) == 336


# Complex X at the inputs and depths the oracle test above does not reach: a
# conjugation or sign error in the real basis, or in the structured blocks of a
# transposed dita, cannot hide behind a real X.  The routed cases take the
# structured route.  At tao6 r=4 the symmetry route (|A| = 4) is checked
# against the same SVD.
@pytest.mark.parametrize("spec, r, spectrum, symmetric", [
    pytest.param("tao6", 4, sector_route, 4, id="tao6-r4"),
    pytest.param("dita(3,3;seed=1)", 3, sector_route, None, id="dita33-r3"),
    pytest.param("transpose(dita(2,3;seed=7))", 4, sector_route, None, id="transpose-dita23-r4"),
    pytest.param("dita(3,3;seed=1)", 3, routed, None, id="dita33-r3-routed"),
    pytest.param("transpose(dita(2,3;seed=7))", 4, routed, None,
                 id="transpose-dita23-r4-routed"),
    # the same complex X as dita33-r3, recognized only once dephased
    pytest.param("row-phased-dita33", 3, routed, None, id="row-phased-dita33-r3-routed"),
])
def test_real_sector_blocks_match_gram_vector_oracle(structured_calls, spec, r, spectrum,
                                                      symmetric):
    h = build_input(spec)
    vals = spectrum(h, r)
    assert np.abs(vals - gram_vector_oracle(spec, r)).max() <= 1e-12 * h.n
    assert np.abs(spectra.gram_matrix(h, r).imag).max() > 1e-2
    assert len(structured_calls) == (spectrum is routed)
    if symmetric:
        vals, size = symmetry_route(h, r)
        assert size == symmetric
        assert np.abs(vals - gram_vector_oracle(spec, r)).max() <= 1e-12 * h.n


# The symmetry route, G = Z_r x A, against the SVD of the Gram vectors, on
# complex and real X: every block is real, the batches are exactly these
# (size, count), and a complex X has one block per character of G.
@pytest.mark.parametrize("spec, r, size, complex_x, batches", [
    pytest.param("tao6", 3, 4, True, [(22, 1), (18, 3), (19, 2), (17, 6)], id="tao6-r3"),
    pytest.param("dita(2,2;seed=7)", 4, 4, False,
                 [(22, 1), (2, 1), (12, 2), (4, 2), (9, 1), (5, 1), (14, 2), (16, 2), (8, 1),
                  (12, 1), (4, 2), (12, 2), (5, 1), (9, 1)], id="dita22-r4"),
    pytest.param("dita(2,3;seed=7)", 3, 2, False, [(28, 2), (10, 2), (35, 2)], id="dita23-r3"),
    pytest.param("fouriergroup:2x2x2", 3, 8, False,
                 [(29, 1), (5, 1), (15, 3), (7, 3), (22, 1), (6, 1), (8, 3), (8, 3), (31, 1),
                  (21, 3), (26, 1), (16, 3)], id="fouriergroup222-r3"),
])
def test_symmetry_sectors_match_gram_vector_oracle(sectors, spec, r, size, complex_x, batches):
    h = build_input(spec)
    vals, got = symmetry_route(h, r)
    assert got == size
    assert np.abs(vals - gram_vector_oracle(spec, r)).max() <= 1e-12 * h.n
    assert (np.abs(spectra.gram_matrix(h, r).imag).max() > 1e-2) == complex_x
    assert sectors == batches
    if complex_x:
        assert sum(count for _, count in sectors) == r * size
        assert sum(n * count for n, count in sectors) == h.n**r


def test_plan_keeps_involutions_while_blocks_pay():
    # each generator doubles the characters of G = Z_r x A: a plan keeps the
    # first k of those offered with N^r >= 16 r 2^k, so that tiny blocks do
    # not cost more in calls than their smaller eigensolves save
    for spec, kept in (("dita(2,2;seed=7)", [1, 1, 1, 4, 4]), ("tao6", [1, 1, 4, 4]),
                       ("fouriergroup:2x2x2", [1, 2, 8, 16])):
        h = build_input(spec)
        gens = spectra._column_symmetries(h.array)
        assert [len(spectra._sector_plan(h.n, r, gens)[2]) // r
                for r in range(1, len(kept) + 1)] == kept


def _digitwise(perm, r):
    """The permutation perm of [0, N) applied to every digit of the flat
    depth-r multi-indices."""
    n = len(perm)
    return np.asarray(perm)[multi_indices(n, r)] @ n ** np.arange(r - 1, -1, -1)


def _is_even(perm):
    return sum(perm[a] > perm[b] for a in range(len(perm)) for b in range(a + 1, len(perm))) % 2 == 0


def test_tao6_involutions_are_even_and_fix_x(tao6):
    gens = spectra._column_symmetries(tao6.array)
    assert len(gens) == 2  # |A| = 4
    x = spectra.gram_matrix(tao6, 3)
    for gen in gens:
        assert sorted(gen) == list(range(6)) and gen != tuple(range(6))
        assert all(gen[gen[a]] == a for a in range(6)) and _is_even(gen)
        moved = _digitwise(gen, 3)
        assert np.abs(x[np.ix_(moved, moved)] - x).max() <= 1e-12
    assert tuple(np.array(gens[0])[list(gens[1])]) == tuple(np.array(gens[1])[list(gens[0])])


def test_tao6_transpositions_conjugate_x_and_are_refused(monkeypatch, tao6):
    x = spectra.gram_matrix(tao6, 3)
    transpositions = []
    for a in range(6):
        for b in range(a + 1, 6):
            perm = np.arange(6)
            perm[[a, b]] = b, a
            transpositions.append(perm)
            moved = _digitwise(perm, 3)
            assert np.abs(x[np.ix_(moved, moved)] - x.conj()).max() <= 1e-12
            assert np.abs(x[np.ix_(moved, moved)] - x).max() > 0.1
    assert len(transpositions) == 15
    monkeypatch.setattr(spectra, "_involution_plan", lambda n: np.array(transpositions))
    assert spectra._column_symmetries(tao6.array) == ()


@pytest.mark.parametrize("consumer", SPECTRUM_CONSUMERS.values(), ids=SPECTRUM_CONSUMERS.keys())
def test_transposition_in_the_plan_rejected(monkeypatch, tao6, consumer):
    # (0 1) conjugates X_3 and X_4 of tao6 rather than fixing them, so the
    # blocks it splits off are not those of X: the checks must refuse them
    monkeypatch.setattr(spectra, "_column_symmetries", lambda arr: ((1, 0, 2, 3, 4, 5),))
    with pytest.raises((MomentImagError, EigensolverError)):
        consumer(tao6)


DITA_SPECS = [spec for spec in CORPUS_SPECS if spec.startswith("dita")]


# The dita corpus and its transposes, the Fourier matrices that are row-shuffled
# ditas, and phased ditas, at every depth up to dim 256 (r <= 4 at N = 4,
# r <= 3 at N = 6, r <= 2 at N = 8); the routed complex X above reach dims 729
# and 1296.
@pytest.mark.parametrize("spec, r", [
    (spec, r) for spec in DITA_SPECS + [f"transpose({s})" for s in DITA_SPECS]
    + ["fourier:4", "fourier:6", "fourier:8", "phased", "phased-transpose"]
    for r in range(1, 5) if build_input(spec).n ** r <= 256
] + [("fouriergroup:2x3", 3), ("tensor(fourier:2,fourier:3)", 2)])
def test_routed_spectrum_matches_gram_vector_oracle(structured_calls, spec, r):
    h = build_input(spec)
    vals = routed(h, r)
    assert np.abs(vals - gram_vector_oracle(spec, r)).max() <= 1e-12 * h.n
    assert len(structured_calls) == 1


def _shuffle(m, n):
    """Index j N + b -> b M + j: row (j, b) of transpose(dita(M, N, Q)) is row
    (b, j) of dita(N, M, Q^T), and likewise for columns."""
    return np.arange(m * n).reshape(m, n).T.ravel()


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(2, 6))
def test_transpose_is_shuffled_dita(m, n):
    order = _shuffle(m, n)
    for seed in (1, 7, 13, 2024):
        q = ht.seeded_phase_matrix(m, n, seed)
        shuffled = ht.transpose(ht.dita(m, n, q)).array[order[:, None], order]
        assert np.abs(shuffled - ht.dita(n, m, q.T).array).max() <= spectra._DITA_MATCH_TOL


def _dephased(q):
    """Q'_ib = Q_ib Q_00 / (Q_i0 Q_0b): dita(M, N, Q) dephased is dita(M, N, Q')."""
    return q * q[0, 0] / (q[:, :1] * q[:1, :])


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 3)])
def test_dita_factors_recognize_dita_and_transpose(m, n):
    q = ht.seeded_phase_matrix(m, n, 7)
    h = ht.dita(m, n, q)
    for arr, shape, want in ((h.array, (m, n), q), (ht.transpose(h).array, (n, m), q.T)):
        got_m, got_n, got_q = spectra._dita_factors(arr)
        assert (got_m, got_n) == shape
        assert (got_q[0] == 1).all() and (got_q[:, 0] == 1).all()
        assert np.abs(got_q - _dephased(want)).max() <= 1e-15


@pytest.mark.parametrize("spec", ["fouriergroup:2x3", "tensor(fourier:2,fourier:3)"])
def test_dita_factors_recognize_fourier_group(spec):
    m, n, q = spectra._dita_factors(ht.build_matrix(spec).array)
    assert (m, n) == (2, 3) and np.array_equal(q, np.ones((2, 3)))


# Inputs covered by the structure only up to equivalence: Cooley-Tukey
# row shuffles of F_4, F_6, F_8, and phases on the rows and columns of a dita.
@pytest.mark.parametrize("spec, m, n", [
    pytest.param(spec, m, n, id=spec)
    for spec, m, n in (("fourier:4", 2, 2), ("fourier:6", 2, 3), ("fourier:8", 2, 4),
                       ("phased", 2, 3))
])
def test_dita_factors_recognize_equivalent(structured_calls, spec, m, n):
    h = build_input(spec)
    assert spectra._dita_factors(h.array)[:2] == (m, n)
    vals = routed(h, 2)
    assert structured_calls == [(m, n, 2)]
    assert np.abs(vals - sector_route(h, 2)).max() <= 1e-12 * h.n


# dita(M, N, Q) with its columns alone shuffled, j N + b -> b M + j, and
# again with seeded row and column phases: only the fourth index map of
# `_recognition_plan` restores it.
@pytest.mark.parametrize("m, n, seed", [(2, 3, 7), (3, 2, 5), (3, 3, 1)])
def test_dita_factors_recognize_column_shuffle(structured_calls, m, n, seed):
    h = ht.dita(m, n, ht.seeded_phase_matrix(m, n, seed))
    shuffled = h.array[:, _shuffle(m, n)]
    d1, d2 = np.exp(2j * np.pi * np.random.default_rng(seed).random((2, m * n)))
    depths = range(1, 4)
    plain = list(spectra._gram_spectra(h, depths))
    for arr, phased in ((shuffled, False), (d1[:, None] * shuffled * d2, True)):
        assert spectra._dita_factors(arr)[:2] == (m, n)
        for got, want in zip(spectra._gram_spectra(ht.hadamard(arr), depths), plain):
            if phased:
                assert np.abs(expanded(got) - expanded(want)).max() <= 1e-12 * h.n
            else:
                assert got[1] == want[1] and got[0].tobytes() == want[0].tobytes()
    assert structured_calls == [(m, n, r) for r in depths] * 3


@pytest.mark.parametrize("n", [16, 32, 64])
def test_dita_factors_recognize_large_fourier(n):
    assert spectra._dita_factors(ht.fourier(n).array)[:2] == (2, n // 2)


def test_dita_factors_reject_off_unit_circle():
    arr = ht.build_matrix("dita(2,3;seed=7)").array.copy()
    arr[0, 1] = 0.0  # dephasing would divide by it
    assert spectra._dita_factors(arr) is None
    assert spectra._dita_factors(2 * ht.fourier(4).array) is None


@pytest.mark.parametrize("spec", ["tao6", "fourier:2", "fourier:3", "fourier:5", "fourier:7",
                                  "moved", "moved-fourier:8", "moved-phased",
                                  "dephased-off-circle"])
def test_dita_factors_reject(monkeypatch, spec):
    h = build_input(spec)
    assert spectra._dita_factors(h.array) is None
    exact = np.linalg.eigvalsh
    solved = []

    def spy(a):
        solved.append((a.shape[:-2], a.dtype))
        return exact(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(spectra, "_column_symmetries", lambda arr: ())  # A = 1
    routed(h, 2)
    # the two real sector blocks, each a batch of its own
    assert solved == [((1,), np.dtype(np.float64))] * 2


@pytest.mark.parametrize("spec, r, sizes", [
    ("tao6", 4, [336, 315, 330, 315]),
    ("dita(3,3;seed=1)", 3, [249, 240, 240]),
])
def test_sector_blocks_are_real(monkeypatch, tao6, spec, r, sizes):
    # complex X, one block per sector; no two fit one batch
    exact = np.linalg.eigvalsh
    blocks = []

    def recording(x):
        blocks.append((x.dtype, x.shape))
        return exact(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    sector_route(tao6 if spec == "tao6" else ht.build_matrix(spec), r)
    assert blocks == [(np.dtype(np.float64), (1, size, size)) for size in sizes]


@pytest.mark.parametrize("consumer, generic_route", on_both_routes(
    [(name, (consumer,)) for name, consumer in SPECTRUM_CONSUMERS.items()]),
    indirect=["generic_route"])
def test_imaginary_palindromic_row_rejected(monkeypatch, generic_route, consumer):
    exact = spectra._product_over_cycle

    def faulty(tensor, rows, cols, r):
        # X[0...0, c...c] gains an imaginary part, c...c the first gathered
        # column of one repeated digit c > 0: 1...1 on the cyclic route, 2...2
        # where a column involution maps 1 to 0.  Both words are their own
        # reversal and rotations, so the real block keeps only the real part of
        # this entry and the fault shows only in what row 0...0 drops.
        out = exact(tensor, rows, cols, r)
        target = np.flatnonzero((cols == cols[:, :1]).all(axis=1) & (cols[:, 0] > 0))[0]
        out[(rows == 0).all(axis=1), target] += 1e-6j
        return out

    monkeypatch.setattr(spectra, "_product_over_cycle", faulty)
    with pytest.raises(MomentImagError, match="not Hermitian"):
        consumer(ht.build_matrix("dita(2,2;seed=7)"))


def _couple_sector_zero(monkeypatch, delta, sign):
    """Patch the batch seam so that the first row of the sector-0 block (u of
    a reversed pair) and its last (v of a pair) gain the entries delta at
    [0, -1] and sign * delta at [-1, 0]; returns the sizes of the blocks so
    changed.  X of dita(2,2) is real at depth 4, so sector 0 is solved in its
    R-even and R-odd halves, and the two entries lie in its coupling."""
    exact = spectra._sector_blocks
    coupled = []

    def faulty(gathered, waves, at, cols, p, c, left, right):
        blocks, dropped = exact(gathered, waves, at, cols, p, c, left, right)
        for block, wave in zip(blocks, waves):
            if p and (wave == wave[0]).all():  # sector 0
                block[0, -1] += delta
                block[-1, 0] += sign * delta
                coupled.append(len(block))
        return blocks, dropped

    monkeypatch.setattr(spectra, "_sector_blocks", faulty)
    return coupled


@pytest.mark.parametrize("consumer, generic_route", on_both_routes(
    [(name, (consumer,)) for name, consumer in SPECTRUM_CONSUMERS.items()]),
    indirect=["generic_route"])
def test_reversal_coupling_rejected(monkeypatch, generic_route, consumer):
    # one symmetric entry: every block stays symmetric, and only the coupling
    # between the halves shows the fault
    coupled = _couple_sector_zero(monkeypatch, 1e-6, 1)
    with pytest.raises(MomentImagError, match="not Hermitian"):
        consumer(ht.build_matrix("dita(2,2;seed=7)"))
    assert coupled


@pytest.mark.parametrize("consumer, generic_route", on_both_routes(
    [(name, (consumer,)) for name, consumer in SPECTRUM_CONSUMERS.items()]),
    indirect=["generic_route"])
def test_antisymmetric_coupling_rejected(monkeypatch, generic_route, consumer):
    # +-delta, delta = tol/2, tol = 1e-9 N: the coupling alone adds
    # ||C1||^2 + ||C2||^2 = 2 delta^2 = tol^2/2, under the budget, and only
    # the cross term 2 ||C1 - C2^T||^2 = 8 delta^2 of ||B - B^T||^2 takes the
    # sum past tol^2
    tol = spectra.EIGEN_RESIDUAL_TOL * 4
    coupled = _couple_sector_zero(monkeypatch, tol / 2, -1)
    with pytest.raises(MomentImagError, match="not Hermitian"):
        consumer(ht.build_matrix("dita(2,2;seed=7)"))
    assert coupled


@pytest.mark.usefixtures("generic_route")
def test_sector_route_peak_is_gather_and_one_sector():
    # The DFT over the rotations is applied one row at a time, so the peak is
    # the gather, one sector of its DFT with the block taken from it, and the
    # solved blocks.  A DFT of the whole gather out of place would add 4.97 MB.
    h = ht.build_matrix("transpose(dita(2,3;seed=7))")
    r = 4
    rows, reps, _, sectors = spectra._sector_plan(h.n, r)
    sector = len(rows) // r * len(reps) * 16
    # one row of at and of cols per block: c rows of c + p columns
    taken = max(at.shape[1] * cols.shape[1] for at, cols, *_ in sectors) * 16
    solved = sum(cols.shape[1] ** 2 for _, cols, *_ in sectors) * 8
    tracemalloc.start()
    try:
        [_] = spectra._gram_spectra(h, [r])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= r * sector + sector + taken + solved


def test_no_fft_on_any_route(monkeypatch):
    # the sector DFT is a product with the planned r x r matrix, the structured
    # blocks come from the closed-form factors, and the dense layout of the
    # structured route is one product with a character table
    inputs = [ht.build_matrix(spec) for spec in ("dita(2,3;seed=7)", "dita(3,3;seed=1)")]
    q = ht.seeded_phase_matrix(2, 3, 7)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.fft was called")

    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, forbidden)
    assert ht.structured_moments(q, 2, 3) > 0
    assert structured_gram_matrix(q, 3).shape == (216, 216)
    for recognize in (spectra._dita_factors, lambda arr: None):  # structured, then sectors
        monkeypatch.setattr(spectra, "_dita_factors", recognize)
        for h in inputs:
            assert len(list(spectra._gram_spectra(h, [1, 2, 3]))) == 3
    assert ht.dita_selfduality_residual(2, 3, q, 3, 3).passed


def test_gram_spectrum_gathers_only_rows_reversal_keeps():
    h = ht.build_matrix("transpose(dita(2,3;seed=7))")
    tracemalloc.start()
    try:
        sector_route(h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6  # 17.8 MB gathering every row into complex blocks


@pytest.mark.parametrize("consumer, generic_route", on_both_routes(
    [(name, (consumer,)) for name, consumer in SPECTRUM_CONSUMERS.items()]),
    indirect=["generic_route"])
def test_duplicated_eigenvalue_rejected(monkeypatch, generic_route, consumer):
    exact = np.linalg.eigvalsh

    def duplicating(x):
        vals = exact(x)
        for block in vals.reshape(-1, vals.shape[-1]):  # every block of the batch
            if len(block) < 2:  # a block of one eigenvalue has no gap to lose it across
                continue
            i = np.argmax(np.diff(block))
            block[i + 1] = block[i]  # lost across the widest gap, its neighbour doubled
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", duplicating)
    with pytest.raises(EigensolverError, match="trace identity"):
        consumer(ht.build_matrix("dita(2,2;seed=7)"))


@pytest.mark.parametrize("consumer", SPECTRUM_CONSUMERS.values(),
                         ids=SPECTRUM_CONSUMERS.keys())
def test_lost_zero_eigenvalue_rejected(monkeypatch, structured_calls, consumer):
    # a zero eigenvalue changes neither trace identity; only the count sees it
    lost = []

    def losing_zero(exact):
        def losing(x):
            vals = exact(x).ravel()
            i = np.argmin(np.abs(vals))
            if abs(vals[i]) > 1e-9:
                return vals
            lost.append(vals[i])
            return np.delete(vals, i)

        return losing

    # the sector route: one eigvalsh per batch, which loses one zero of one block
    with monkeypatch.context() as patch:
        patch.setattr(spectra, "_dita_factors", lambda arr: None)
        patch.setattr(np.linalg, "eigvalsh", losing_zero(np.linalg.eigvalsh))
        with pytest.raises(EigensolverError, match=r"eigenvalues, not N\^r = "):
            consumer(ht.build_matrix("dita(2,2;seed=7)"))
    assert lost and not structured_calls
    # the structured route: the rank-one 2 x 2 blocks of transpose(dita(2,3)),
    # which the count of exact zeros, taken from the shapes, does not absorb
    lost.clear()
    monkeypatch.setattr(spectra, "_block_eigenvalues", losing_zero(spectra._block_eigenvalues))
    with pytest.raises(EigensolverError, match=r"eigenvalues, not N\^r = "):
        consumer(ht.build_matrix("transpose(dita(2,3;seed=7))"))
    assert lost and structured_calls


@pytest.mark.parametrize("consumer", SPECTRUM_CONSUMERS.values(),
                         ids=SPECTRUM_CONSUMERS.keys())
@pytest.mark.parametrize("fault", STRUCTURED_FAULTS.values(), ids=STRUCTURED_FAULTS.keys())
def test_structured_route_faults_rejected(monkeypatch, structured_calls, consumer, fault):
    install, error, match = fault
    install(monkeypatch)
    with pytest.raises(error, match=match):
        consumer(ht.build_matrix("dita(2,2;seed=7)"))
    assert structured_calls


# Tao's matrix and dita(3,3;seed=1) add complex Gram matrices (depth 3) to the
# real ones of the other deformed Fourier matrices; dita(3,3;seed=1) itself
# takes the structured route, its conjugate and permuted copies the sector route.
PROPERTY_MATRICES = [tao6_matrix(), ht.build_matrix("dita(3,2;seed=1)"),
                     ht.build_matrix("dita(2,3;seed=7)"), ht.build_matrix("dita(3,3;seed=1)")]


@st.composite
def equivalent_pairs(draw):
    """(H, r, K) with K = D1 P H Q D2 or K = conj(H), r in 1..3."""
    h = draw(st.sampled_from(PROPERTY_MATRICES))
    r = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return h, r, ht.conjugate(h)
    n = h.n
    rows, cols = (np.array(draw(st.permutations(range(n)))) for _ in range(2))
    angles = st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n)
    d1, d2 = (np.exp(1j * np.array(draw(angles))) for _ in range(2))
    return h, r, ht.hadamard(d1[:, None] * h.array[rows][:, cols] * d2[None, :])


@settings(max_examples=12, deadline=None)
@given(equivalent_pairs())
def test_law_invariant_under_equivalence_and_conjugation(pair):
    h, r, k = pair
    assert atoms_agree(ht.truncated_law(h, r), ht.truncated_law(k, r))


def test_measure_json_schema():
    m = ht.truncated_law(ht.fourier(3), 2)
    data = m.to_dict()
    assert set(data) == {"N", "r", "atoms", "cluster_tol"}
    assert data["N"] == 3 and data["r"] == 2
    assert all(set(a) == {"x", "w"} for a in data["atoms"])


# -- plans ---------------------------------------------------------------------

def _plan_arrays(plan):
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, tuple):
        for part in plan:
            yield from _plan_arrays(part)


def test_plans_built_once_per_shape(monkeypatch):
    exact = spectra._sector_plan.__wrapped__
    orbits = []

    @functools.lru_cache(maxsize=spectra._PLAN_CACHE_SIZE)
    def spy(n, r, gens=()):
        orbits.append((n, r))
        return exact(n, r, gens)

    monkeypatch.setattr(spectra, "_sector_plan", spy)
    q = ht.seeded_phase_matrix(2, 3, 7)
    h = ht.dita(2, 3, q)
    for _ in range(2):  # H on sectors, split by its one column involution, H^t structured
        ht.dita_selfduality_residual(2, 3, q, 3, 3)
        ht.duality_residual(h, 3, 3)
        ht.structured_moments(q, 2, 3)
    assert orbits == [(6, 1), (6, 2), (6, 3)]
    sector = spectra._sector_plan.cache_info()
    assert (sector.misses, sector.currsize, sector.hits) == (3, 3, 3)
    # dita(2, 3) and its transpose, recognized as dita(3, 2) shuffled, at depths 1..3
    structured = spectra._structured_plan.cache_info()
    recognition = spectra._recognition_plan.cache_info()
    assert (structured.misses, structured.currsize, structured.hits) == (6, 6, 14)
    assert (recognition.misses, recognition.currsize) == (1, 1) and recognition.hits > 0


def test_plans_are_read_only_and_bounded():
    plans = [spectra._sector_plan(4, 3), spectra._sector_plan(1, 2),
             spectra._structured_plan(2, 3, 3), spectra._recognition_plan(12)]
    arrays = [arr for plan in plans for arr in _plan_arrays(plan)]
    assert len(arrays) >= 4 * 3 + 2 + 2 + 3 * 4
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[:1] = 0
    for cache in PLAN_CACHES:
        assert cache.cache_info().maxsize == spectra._PLAN_CACHE_SIZE
    # the DFT over the rotations: r x r, (1/r) w^{km}
    for (n, r), plan in zip([(4, 3), (1, 2)], plans):
        dft = plan[2]
        assert dft.shape == (r, r) and not dft.flags.writeable
        assert np.abs(dft - np.fft.ifft(np.eye(r), axis=0)).max() <= 1e-15


# The sector plans at the cap, N^r = 4096, as the `spectra` docstring sizes
# them (under 0.5 MB), batch layout included: every N >= 2 with an integer r,
# and the symmetry plan of fouriergroup:2x2x2 (|A| = 16).  The bytes are
# pinned as measured.
@pytest.mark.parametrize("n, r, spec, nbytes", [
    pytest.param(n, r, spec, nbytes, id=f"{n}^{r}" + ("-symmetric" if spec else ""))
    for n, r, spec, nbytes in [
        (2, 12, None, 459_728), (4, 6, None, 327_088), (8, 4, None, 295_904),
        (16, 3, None, 259_240), (64, 2, None, 329_296), (8, 4, "fouriergroup:2x2x2", 446_336)]
])
def test_sector_plan_bytes_at_the_cap(n, r, spec, nbytes):
    gens = spectra._column_symmetries(ht.build_matrix(spec).array) if spec else ()
    plan = spectra._sector_plan(n, r, gens)
    assert len(plan[2]) == r * (16 if spec else 1)
    assert sum({id(arr): arr.nbytes for arr in _plan_arrays(plan)}.values()) == nbytes
    assert nbytes < 0.5e6


PLAN_INPUTS = [
    ("transpose(dita(2,3;seed=7))", 4), ("dita(2,3;seed=7)", 4), ("dita(3,3;seed=1)", 3),
    ("fourier:8", 3), ("fourier:6", 3), ("fouriergroup:2x3", 3), ("dita(2,2;seed=7)", 4),
    ("tao6", 3),
]


def _plan_spectra(cold):
    """Routed and sector spectra of H and H^t at every depth of PLAN_INPUTS,
    each from empty plan caches when cold."""
    out = []
    for spec, depth in PLAN_INPUTS:
        h = build_input(spec)
        for side in (h, ht.transpose(h)):
            for r in range(1, depth + 1):
                for solve in (routed, sector_route):
                    for cache in PLAN_CACHES if cold else ():
                        cache.cache_clear()
                    out.append(solve(side, r))
    return out


def test_cold_and_warm_plans_agree():
    cold = _plan_spectra(cold=True)
    _plan_spectra(cold=False)  # fills the caches
    misses = [cache.cache_info().misses for cache in PLAN_CACHES]
    warm = _plan_spectra(cold=False)
    assert [cache.cache_info().misses for cache in PLAN_CACHES] == misses
    assert len(cold) == len(warm) == 2 * 2 * sum(depth for _, depth in PLAN_INPUTS)
    assert all(np.array_equal(a, b) for a, b in zip(cold, warm))


def test_gram_matrix_peak_is_x_plus_one_chunk():
    h = ht.build_matrix("dita(2,3;seed=7)")
    tracemalloc.start()
    try:
        x = spectra.gram_matrix(h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 26.9 MB of X; holding a full-size gathered factor next to it peaked at 52 MB
    assert peak <= x.nbytes + 4e6
