from itertools import product

import numpy as np
import pytest

import hadtrunc as ht
from hadtrunc.dita import (_structured_kernel, _structured_spectrum, bench_structured_vs_dense,
                           delta_nonzero_count, r_kernels, structured_gram_matrix,
                           structured_moments)
from hadtrunc.errors import CapExceededError
from hadtrunc.magic import multi_indices


# References used only here: entrywise kernel formulas and a brute-force
# support count, which the dense layouts and the closed form are checked against.

def r_kernel(q, x):
    """Single kernel slice R^x (x taken mod M)."""
    m = np.asarray(q).shape[0]
    return r_kernels(q)[x % m]


def structured_profile_entry(q, i, a, j, b, k, c, l, d):
    """Profile entry of the deformed Fourier matrix at column indices
    (i,a), (j,b), (k,c), (l,d), via the kernel formula.

    Vanishes unless a - b = c - d (mod N); otherwise equals
    R^{i+l-k-j}_{ab,cd}.
    """
    q = np.asarray(q, dtype=complex)
    m, n = q.shape
    if (a - b) % n != (c - d) % n:
        return 0j
    x = (i + l - k - j) % m
    w = np.exp(2j * np.pi / m)
    phases = w ** (np.arange(m) * x)
    return complex((phases * q[:, a] * q[:, d] * (q[:, c] * q[:, b]).conj()).sum() / m)


def structured_gram_entry(q, i_indices, a_indices, j_indices, b_indices):
    """Single Gram matrix entry at depth r from the kernel product formula.

    Returns 0 without touching any kernel when the common-difference
    constraint on the N-part indices fails.
    """
    q = np.asarray(q, dtype=complex)
    m, n = q.shape
    i_idx, a_idx = list(i_indices), list(a_indices)
    j_idx, b_idx = list(j_indices), list(b_indices)
    r = len(i_idx)
    if not (len(a_idx) == len(j_idx) == len(b_idx) == r and r >= 1):
        raise ValueError("index vectors must be nonempty and of equal length")
    diff = (a_idx[0] - b_idx[0]) % n
    if any((a_idx[s] - b_idx[s]) % n != diff for s in range(1, r)):
        return 0j
    kernels = r_kernels(q)
    out = 1.0 + 0j
    for s in range(r):
        sp = (s + 1) % r
        x = (i_idx[s] + j_idx[sp] - j_idx[s] - i_idx[sp]) % m
        out *= kernels[x, a_idx[s], b_idx[s], a_idx[sp], b_idx[sp]]
    return complex(out)


def count_delta_nonzeros(m, n, r):
    """Brute-force count of index pairs passing the delta constraint."""
    a = multi_indices(n, r)
    diff = (a[:, None, :] - a[None, :, :]) % n
    return int((diff == diff[:, :, :1]).all(axis=2).sum()) * (m**r) ** 2


def test_kernels_flat_q_are_delta():
    # undeformed case: R^x = delta_{x,0} * (all-ones tensor)
    q = np.ones((3, 2), dtype=complex)
    kernels = r_kernels(q)
    assert np.abs(kernels[0] - 1.0).max() < 1e-12
    assert np.abs(kernels[1:]).max() < 1e-12


def test_kernel_slice_wraps_mod_m():
    q = ht.seeded_phase_matrix(3, 2, 11)
    assert np.abs(r_kernel(q, 4) - r_kernels(q)[1]).max() < 1e-14
    assert np.abs(r_kernel(q, -1) - r_kernels(q)[2]).max() < 1e-14


def test_kernels_inversion_symmetry():
    # R^{-x}_{ab,cd} = conj(R^x_{ba,dc}) follows from the defining sum
    q = ht.seeded_phase_matrix(2, 3, 7)
    kernels = r_kernels(q)
    for x in range(2):
        lhs = kernels[(-x) % 2]
        rhs = kernels[x].transpose(1, 0, 3, 2).conj()
        assert np.abs(lhs - rhs).max() < 1e-12


def test_structured_profile_matches_dense():
    q = ht.seeded_phase_matrix(2, 2, 7)
    h = ht.dita(2, 2, q)
    prof = ht.profile(h)
    m, n = 2, 2
    for i, a, j, b, k, c, l, d in product(range(m), range(n), repeat=4):
        dense = prof[i * n + a, j * n + b, k * n + c, l * n + d]
        fast = structured_profile_entry(q, i, a, j, b, k, c, l, d)
        assert abs(dense - fast) < 1e-12


def test_structured_profile_delta_support():
    q = ht.seeded_phase_matrix(2, 3, 5)
    # a - b != c - d mod 3 vanishes without consulting the kernels
    assert structured_profile_entry(q, 0, 0, 0, 1, 0, 0, 0, 0) == 0j


def test_structured_gram_entry_matches_dense():
    q = ht.seeded_phase_matrix(2, 2, 13)
    h = ht.dita(2, 2, q)
    x = ht.gram_matrix(h, 2)
    n = 2
    for ia, jb in [((0, 1), (2, 3)), ((1, 1), (1, 1)), ((3, 0), (2, 1)),
                   ((0, 2), (1, 3))]:
        i_idx = [v // n for v in ia]
        a_idx = [v % n for v in ia]
        j_idx = [v // n for v in jb]
        b_idx = [v % n for v in jb]
        row = np.ravel_multi_index(ia, (4, 4))
        col = np.ravel_multi_index(jb, (4, 4))
        fast = structured_gram_entry(q, i_idx, a_idx, j_idx, b_idx)
        assert abs(x[row, col] - fast) < 1e-12


def test_structured_gram_entry_rejects_ragged():
    q = ht.seeded_phase_matrix(2, 2, 7)
    with pytest.raises(ValueError):
        structured_gram_entry(q, [0, 1], [0], [0, 1], [0, 1])


@pytest.mark.parametrize("m,n,seed,r", [(2, 2, 7, 1), (2, 2, 7, 2),
                                        (2, 2, 13, 3), (2, 3, 5, 2), (3, 3, 7, 3),
                                        (1, 3, 5, 2), (3, 1, 5, 2), (2, 3, 5, 1),
                                        (3, 3, 7, 1)])
def test_structured_gram_matrix_matches_dense(m, n, seed, r):
    q = ht.seeded_phase_matrix(m, n, seed)
    dense = ht.gram_matrix(ht.dita(m, n, q), r)
    fast = structured_gram_matrix(q, r)
    assert np.abs(dense - fast).max() < 1e-10
    if (m, n, seed, r) == (3, 3, 7, 3):
        # a genuinely complex X, so a transposed or conjugated layout shows
        assert np.abs(dense.imag).max() > 1e-2


@pytest.mark.parametrize("m,n,seed,r", [(3, 3, 1, 3), (2, 3, 7, 4), (2, 2, 13, 5)])
def test_structured_spectrum_matches_gram_vectors(monkeypatch, m, n, seed, r):
    q = ht.seeded_phase_matrix(m, n, seed)
    vecs = ht.gram_vectors(ht.dita(m, n, q), r)
    oracle = np.sort(np.linalg.svd(vecs, compute_uv=False) ** 2)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    vals = _structured_spectrum(q, r)
    assert shapes == [(m**r * n ** (r - 1), n, n)]
    assert np.abs(vals - oracle).max() <= 1e-12 * m * n
    assert m**r * _structured_kernel(q, r).size == delta_nonzero_count(m, n, r)


@pytest.mark.parametrize("m,n,seed", [(2, 2, 1), (2, 2, 7), (2, 3, 5),
                                      (3, 2, 9)])
def test_structured_moments_match_dense(m, n, seed):
    q = ht.seeded_phase_matrix(m, n, seed)
    h = ht.dita(m, n, q)
    for p in (1, 2, 3):
        for r in (1, 2, 3):
            dense = ht.moments_via_X(h, p, r)
            fast = structured_moments(q, p, r)
            assert fast == pytest.approx(dense, abs=1e-9 * (m * n) ** p)


def test_structured_moments_flat_q_is_fourier_group():
    # Q = 1 gives F_2 x F_3; moments must match the tensor product matrix
    q = np.ones((2, 3), dtype=complex)
    h = ht.tensor(ht.fourier(2), ht.fourier(3))
    for p, r in [(1, 2), (2, 2), (3, 1)]:
        assert structured_moments(q, p, r) == pytest.approx(
            ht.moments_via_X(h, p, r), abs=1e-9 * 6 ** p)


def test_structured_moments_validates_args():
    q = ht.seeded_phase_matrix(2, 2, 7)
    with pytest.raises(ValueError):
        structured_moments(q, 0, 1)
    with pytest.raises(ValueError):
        structured_moments(q, 1, 0)


def test_structured_moments_cap():
    q = ht.seeded_phase_matrix(2, 3, 7)
    with pytest.raises(CapExceededError):
        structured_moments(q, 2, 5)  # 6^5 = 7776 > 4096


@pytest.mark.parametrize("m,n,r", [(2, 2, 1), (2, 2, 2), (2, 2, 3),
                                   (2, 3, 2), (3, 2, 2)])
def test_delta_count_formula(m, n, r):
    assert delta_nonzero_count(m, n, r) == count_delta_nonzeros(m, n, r)


def test_delta_count_sparsity():
    # structured support is a vanishing fraction of the (MN)^{2r} entries
    m, n, r = 2, 3, 3
    assert delta_nonzero_count(m, n, r) < (m * n) ** (2 * r)


def test_bench_verifies_before_timing():
    q = ht.seeded_phase_matrix(2, 2, 7)
    report = bench_structured_vs_dense(2, 2, q, 3, 3, repetitions=1)
    assert report.verified
    assert report.dense_ms > 0 and report.structured_ms > 0
    data = report.to_dict()
    assert data["speedup"] == pytest.approx(report.dense_ms / report.structured_ms)


def test_bench_rejects_zero_reps():
    q = ht.seeded_phase_matrix(2, 2, 7)
    with pytest.raises(ValueError):
        bench_structured_vs_dense(2, 2, q, 2, 2, repetitions=0)
