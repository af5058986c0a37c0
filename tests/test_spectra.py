import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadtrunc as ht
from hadtrunc import spectra
from hadtrunc.duality import atoms_agree
from hadtrunc.errors import CapExceededError, EigensolverError, MomentImagError
from hadtrunc.magic import multi_indices
from hadtrunc.spectra import SpectralMeasure, cluster_atoms

# Tao's 6x6 complex Hadamard matrix is w^E with w = e^{2 pi i/3}; unlike the
# corpus, its depth-3 Gram matrices are genuinely complex.
TAO6_EXPONENTS = [[0, 0, 0, 0, 0, 0],
                  [0, 0, 1, 1, 2, 2],
                  [0, 1, 0, 2, 2, 1],
                  [0, 1, 2, 0, 1, 2],
                  [0, 2, 2, 1, 0, 1],
                  [0, 2, 1, 2, 1, 0]]


def tao6_matrix():
    return ht.hadamard(np.exp(2j * np.pi / 3 * np.array(TAO6_EXPONENTS)), "tao6")


@pytest.fixture(scope="module")
def tao6():
    return tao6_matrix()


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


@pytest.mark.parametrize("r", [1, 2, 3])
def test_gram_routes_agree(corpus_matrix, r):
    xp = ht.gram_matrix(corpus_matrix, r)
    vecs = ht.gram_vectors(corpus_matrix, r)
    assert np.abs(xp - vecs @ vecs.conj().T).max() < 1e-10


def test_gram_routes_agree_depth_four():
    h = ht.build_matrix("dita(2,2;seed=13)")
    xp = ht.gram_matrix(h, 4)
    vecs = ht.gram_vectors(h, 4)
    assert np.abs(xp - vecs @ vecs.conj().T).max() < 1e-10


def test_gram_vectors_unit_norm(small_matrix):
    vecs = ht.gram_vectors(small_matrix, 3)
    assert np.abs(np.linalg.norm(vecs, axis=1) - 1.0).max() < 1e-12


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


def test_cluster_atoms():
    atoms = cluster_atoms([0.0, 1e-9, 2.0, 2.0 + 1e-9, 5.0],
                          [0.25, 0.25, 0.2, 0.2, 0.1], tol=1e-6)
    assert len(atoms) == 3
    assert atoms[0][1] == pytest.approx(0.5)
    assert atoms[1][0] == pytest.approx(2.0, abs=1e-8)
    assert atoms[2] == (5.0, pytest.approx(0.1))


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
def test_moment_pipelines_agree(small_matrix, p, r):
    n = small_matrix.n
    via_t = ht.moments_via_T(small_matrix, p, r)
    via_x = ht.moments_via_X(small_matrix, p, r)
    assert abs(via_t - via_x) <= 1e-8 * n**p


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


@pytest.mark.parametrize("p", [1, 2, 3])
def test_truncation_tensor_is_adjoint_gram(small_matrix, p):
    t = ht.truncation_tensor(ht.magic_grid(small_matrix), p)
    x = ht.gram_matrix(ht.adjoint(small_matrix), p)
    assert np.abs(t - x / small_matrix.n).max() < 1e-14


def test_truncation_tensor_is_adjoint_gram_tao6(tao6):
    for p in (1, 2, 3):
        t = ht.truncation_tensor(ht.magic_grid(tao6), p)
        x = ht.gram_matrix(ht.adjoint(tao6), p)
        assert np.abs(t - x / 6).max() < 1e-14
    assert np.abs(x.imag).max() > 1e-2


def _grid_cesaro(h, p, k_max):
    moments = [ht.moments_via_T(h, p, r) for r in range(1, k_max + 1)]
    return np.cumsum(moments) / np.arange(1, k_max + 1)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cesaro_matches_grid_route(small_matrix, p):
    seq = ht.cesaro_moments(small_matrix, p, 5)
    np.testing.assert_allclose(seq.partial_averages,
                               _grid_cesaro(small_matrix, p, 5), rtol=1e-12)


def test_cesaro_matches_grid_route_tao6(tao6):
    seq = ht.cesaro_moments(tao6, 3, 5)
    np.testing.assert_allclose(seq.partial_averages, _grid_cesaro(tao6, 3, 5),
                               rtol=1e-12)


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


def _skew_one_entry(x):
    x[-1, -2] += 1e-6  # in the last row block only


def _skew_spread(x):
    # Every upper entry off by tol/2 (N = 4): each passes a max-entry check.
    x[np.triu_indices(len(x), 1)] += spectra.EIGEN_RESIDUAL_TOL * 4 / 2


@pytest.mark.parametrize("consumer, fault", [
    pytest.param(consumer, fault, id=name + suffix)
    for suffix, fault in (("", _skew_one_entry), ("-spread", _skew_spread))
    for name, consumer in SPECTRUM_CONSUMERS.items()
])
def test_non_hermitian_gram_rejected(monkeypatch, consumer, fault):
    exact = spectra.gram_matrix

    def skewed(h, r, **kwargs):
        x = exact(h, r, **kwargs)
        fault(x)
        return x

    monkeypatch.setattr(spectra, "gram_matrix", skewed)
    with pytest.raises(MomentImagError, match="not Hermitian"):
        consumer(ht.build_matrix("dita(2,2;seed=7)"))


@pytest.mark.parametrize("consumer", SPECTRUM_CONSUMERS.values(),
                         ids=SPECTRUM_CONSUMERS.keys())
def test_duplicated_eigenvalue_rejected(monkeypatch, consumer):
    exact = np.linalg.eigvalsh

    def duplicating(x):
        vals = exact(x)
        i = np.argmax(np.diff(vals))
        vals[i + 1] = vals[i]  # lost across the widest gap, its neighbour doubled
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", duplicating)
    with pytest.raises(EigensolverError, match="trace identity"):
        consumer(ht.build_matrix("dita(2,2;seed=7)"))


# Tao's matrix adds complex Gram matrices (depth 3) to the real ones of the
# deformed Fourier matrices.
PROPERTY_MATRICES = [tao6_matrix(), ht.build_matrix("dita(3,2;seed=1)"),
                     ht.build_matrix("dita(2,3;seed=7)")]


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
