import tracemalloc
from itertools import product

import numpy as np
import pytest

import hadtrunc as ht
from hadtrunc import spectra
from hadtrunc.dita import bench_structured_vs_dense, structured_gram_matrix, structured_moments
from hadtrunc.errors import CapExceededError, EigensolverError
from hadtrunc.magic import multi_indices

import gram_oracle
from conftest import expanded, gram_vector_oracle


# References used only here: entrywise kernel formulas, which the dense layouts
# are checked against, the Fourier-transformed kernel blocks, which the factor
# spectra are checked against beyond the cap, and a brute-force support count
# with its closed form.

def r_kernels(q):
    """All kernels R^x, x in Z_M, of dita(M, N, Q), as an array of shape
    (M, N, N, N, N):

        R^x_{ab,cd} = (1/M) sum_m w^{mx} Q_ma Q_md / (Q_mc Q_mb),   w = e^{2 pi i/M}.

    The profile of dita(M, N, Q) at columns (i,a), (j,b), (k,c), (l,d) is
    R^{i+l-k-j}_{ab,cd} when a - b = c - d (mod N), and 0 otherwise.
    """
    q = np.asarray(q, dtype=complex)
    m = q.shape[0]
    w = np.exp(2j * np.pi / m)
    phases = w ** (np.arange(m)[:, None] * np.arange(m)[None, :])  # [x, m]
    return np.einsum("xm,ma,mb,mc,md->xabcd", phases, q, q.conj(), q.conj(), q) / m


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


def structured_kernel(q, r):
    """The entries of the depth-r Gram matrix of dita(M, N, Q) on its coset
    support, k[U, C, t, t'] = prod_s R^{u_s - u_{s+1}}_{a_s b_s, a_{s+1} b_{s+1}}
    for U = I - J, A = A_C + t (1, ..., 1), B = A_C + t' (1, ..., 1), A_C the
    coset representative whose first digit is 0.  Shape (M^r, N^{r-1}, N, N)."""
    m, n = q.shape
    kernels = r_kernels(q)
    u = multi_indices(m, r)
    reps = multi_indices(n, r)[: n ** (r - 1)]
    a = (reps[:, None, :] + np.arange(n)[:, None]) % n  # a[C, t, s]
    out = np.ones((m**r, n ** (r - 1), n, n), dtype=complex)
    for s in range(r):
        sp = (s + 1) % r
        x = (u[:, s] - u[:, sp]) % m
        out *= kernels[x[:, None, None, None],
                       a[None, :, :, None, s], a[None, :, None, :, s],
                       a[None, :, :, None, sp], a[None, :, None, :, sp]]
    return out


def fft_blocks(q, r):
    """The M^r N^{r-1} Hermitian N x N blocks of the depth-r Gram matrix, a
    Fourier transform of `structured_kernel` over its r U-axes, frequency major.
    Shape (M^r, N^{r-1}, N, N)."""
    m, n = q.shape
    kernel = structured_kernel(q, r).reshape((m,) * r + (-1, n, n))
    return np.fft.fftn(kernel, axes=tuple(range(r))).reshape(m**r, -1, n, n)


def coset_support(m, n, r):
    """Pairs of flat depth-r multi-indices of dita(M, N, Q) whose N-parts
    differ by a constant (mod N): where X may be nonzero."""
    a = (multi_indices(m * n, r) % n).astype(np.int8)
    support = np.ones(((m * n) ** r,) * 2, dtype=bool)
    for s in range(1, r):
        support &= (a[:, None, s] - a[None, :, s] - a[:, None, 0] + a[None, :, 0]) % n == 0
    return support


def count_delta_nonzeros(m, n, r):
    """Brute-force count of index pairs passing the delta constraint."""
    a = multi_indices(n, r)
    diff = (a[:, None, :] - a[None, :, :]) % n
    return int((diff == diff[:, :, :1]).all(axis=2).sum()) * (m**r) ** 2


def delta_nonzero_count(m, n, r):
    """Closed form of the depth-r Gram entries passing the common-difference
    constraint: M^{2r} * N^{r+1}, checked against `count_delta_nonzeros`."""
    return m ** (2 * r) * n ** (r + 1)


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


@pytest.mark.parametrize("r", [0, -1])
def test_structured_gram_matrix_rejects_depth_below_one(r):
    with pytest.raises(ValueError, match="depth r must be >= 1"):
        structured_gram_matrix(ht.seeded_phase_matrix(2, 2, 7), r)


# M > N (the N x N blocks V V^*) at (3, 2) and (4, 2); M <= N (V^*V) otherwise.
@pytest.mark.parametrize("m,n,seed,r", [(3, 3, 1, 3), (2, 3, 7, 4), (2, 2, 13, 5),
                                        (3, 2, 1, 3), (4, 2, 3, 3)])
def test_structured_spectrum_matches_gram_vectors(monkeypatch, m, n, seed, r):
    q = ht.seeded_phase_matrix(m, n, seed)
    vecs = gram_oracle.gram_vectors(ht.dita(m, n, q).array, r)
    oracle = gram_vector_oracle(f"dita({m},{n};seed={seed})", r)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    [(solved, zeros)] = spectra._gram_spectra(ht.dita(m, n, q), [r])
    blocks, k = (m * n) ** (r - 1), min(m, n)
    # 2 x 2 blocks in closed form, larger ones as one batch; the zeros are
    # counted, not solved
    assert shapes == ([] if k == 2 else [(blocks, k, k)])
    assert len(solved) == blocks * k
    assert zeros == (m * n) ** r - blocks * k
    vals = expanded((solved, zeros))
    assert len(vals) == (m * n) ** r
    assert np.abs(vals - oracle).max() <= 1e-12 * m * n
    support = coset_support(m, n, r)
    assert support.sum() == delta_nonzero_count(m, n, r)
    assert not structured_gram_matrix(q, r)[~support].any()
    assert np.abs((vecs @ vecs.conj().T)[~support]).max() <= 1e-12


@pytest.mark.parametrize("m,n,seed,r", [(2, 3, 7, 3), (3, 3, 1, 3), (3, 2, 7, 3),
                                        (4, 2, 3, 2), (2, 2, 13, 4)])
def test_factor_blocks_match_fft_blocks(m, n, seed, r):
    # V V^* is the Fourier block at each frequency with digit sum 0 (mod M),
    # in the order of `multi_indices`; every other block vanishes
    q = ht.seeded_phase_matrix(m, n, seed)
    blocks = fft_blocks(q, r)
    keep = multi_indices(m, r).sum(axis=1) % m == 0
    v = spectra._structured_factors(q, [r])
    assert v.shape == ((m * n) ** (r - 1), n, m)
    assert np.abs(np.abs(v) - 1.0).max() <= 1e-14
    factor_blocks = (v @ v.swapaxes(-1, -2).conj()).reshape(-1, n ** (r - 1), n, n)
    assert np.abs(factor_blocks - blocks[keep]).max() <= 1e-13
    assert np.abs(blocks[~keep]).max(initial=0.0) <= 1e-13


# Beyond the cap, where no dense oracle runs: dims 46656, 7776 and 6561, the
# last with a complex X.
@pytest.mark.parametrize("m,n,seed,r", [(2, 3, 7, 6), (3, 2, 1, 5), (3, 3, 1, 4)])
def test_factor_spectrum_beyond_cap_matches_fft_blocks(m, n, seed, r):
    q = ht.seeded_phase_matrix(m, n, seed)
    [spectrum] = spectra._gram_spectra(ht.dita(m, n, q), [r], cap=(m * n) ** r)
    vals = expanded(spectrum)
    oracle = np.sort(np.linalg.eigvalsh(fft_blocks(q, r)).ravel())
    assert np.abs(vals - oracle).max() <= 1e-12 * m * n


def test_factor_spectrum_peak_memory():
    # The factors V hold (MN)^r entries, a factor N below the kernel that the
    # Fourier blocks are built from; the Fourier-block route peaked at 6.9 MB
    # at dita(2,3;seed=7), r = 6.  The zeros are counted, not solved as 1 x 1
    # blocks, and the Gram batch gets no Hermiticity temporary: with both, the
    # peaks were 2.64 and 4.33 MB at the last two cases.  The 2 x 2 blocks
    # are solved in closed form, with no Gram batch: with one and eigvalsh,
    # the peak was 2.06 MB at the second case.
    for spec, r, bound in [("dita(2,3;seed=7)", 6, 4e6), ("dita(2,3;seed=7)", 6, 1.8e6),
                           ("dita(3,3;seed=1)", 5, 3.8e6)]:
        h = ht.build_matrix(spec)
        tracemalloc.start()
        try:
            [spectrum] = spectra._gram_spectra(h, [r], cap=h.n**r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (spec, r, peak)
        assert len(expanded(spectrum)) == h.n**r


# Inputs that take the structured route, as dita(2,3), dita(3,3), dita(3,2),
# dita(3,2), dita(2,3), dita(2,4) and dita(2,3) again.
@pytest.mark.parametrize("spec", ["dita(2,3;seed=7)", "dita(3,3;seed=1)", "dita(3,2;seed=5)",
                                  "transpose(dita(2,3;seed=7))", "fourier:6", "fourier:8",
                                  "fouriergroup:2x3"])
def test_multi_depth_spectra_match_single_depth(spec):
    # the depths of a call share one factor stack and one eigenvalue call;
    # each spectrum is still bitwise that of a call for its depth alone, for
    # every depth with N^r <= 4096 in one call, out of order and repeated
    h = ht.build_matrix(spec)
    assert spectra._dita_factors(h.array) is not None
    deepest = max(r for r in range(1, 6) if h.n**r <= 4096)
    for depths in (range(1, deepest + 1), [3, 1], [2, 2, 4], [4]):
        got = list(spectra._gram_spectra(h, depths, cap=h.n**4))
        assert len(got) == len(depths)
        for r, (vals, zeros) in zip(depths, got):
            [(want, want_zeros)] = spectra._gram_spectra(h, [r], cap=h.n**4)
            assert vals.tobytes() == want.tobytes() and zeros == want_zeros, (depths, r)


@pytest.mark.parametrize("spec, deepest", [("dita(2,3;seed=7)", 6), ("dita(3,3;seed=1)", 5)])
def test_multi_depth_peak_memory(spec, deepest):
    # depths 1..r - 1 add sum (MN)^{s-1} < (MN)^{r-1} / (MN - 1) blocks to the
    # stack of depth r, under a fifth more at MN = 6 and an eighth at MN = 9:
    # these read 1.10 and 1.12 times the peak of depth r alone
    h = ht.build_matrix(spec)

    def peak(depths):
        for cache in (spectra._structured_plan, spectra._recognition_plan):
            cache.cache_clear()
        tracemalloc.start()
        try:
            for r, spectrum in zip(depths, spectra._gram_spectra(h, depths, cap=h.n**deepest)):
                assert len(expanded(spectrum)) == h.n**r
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(range(1, deepest + 1)) <= 1.3 * peak([deepest])


def _skew_deepest(exact):
    def skewed(q, depths):
        v = exact(q, depths)
        v[-1, 0, 0] *= 1 + 1e-6  # the last rows are the last depth's
        return v

    return skewed


def _replace_deepest(exact):
    def faulty(v):
        vals = exact(v)
        vals[-1, -1] = 0.0  # the top eigenvalue of the last block, of the last depth
        return vals

    return faulty


# Faults in the deepest depth's rows alone: the seam and a wrapper of it.
DEEPEST_FAULTS = {"skewed-factor": ("_structured_factors", _skew_deepest),
                  "replaced-eigenvalue": ("_block_eigenvalues", _replace_deepest)}


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("seam, fault", DEEPEST_FAULTS.values(), ids=DEEPEST_FAULTS.keys())
def test_fault_in_deepest_depth_names_it(monkeypatch, seam, fault, m, n):
    # the depths before the faulty one are drawn and pass, and the contract
    # names the deepest when it is drawn
    monkeypatch.setattr(spectra, seam, fault(getattr(spectra, seam)))
    q = ht.seeded_phase_matrix(m, n, 7)
    named = r"^depth-3 spectrum fails the trace identity sum l"
    solved = spectra._gram_spectra(ht.dita(m, n, q), [1, 2, 3])
    next(solved), next(solved)
    with pytest.raises(EigensolverError, match=named):
        next(solved)
    for consumer in (lambda: ht.moment_table(ht.dita(m, n, q), 2, 3),
                     lambda: ht.dita_selfduality_residual(m, n, q, 2, 3)):
        with pytest.raises(EigensolverError, match=named):
            consumer()


def test_structured_skewed_kernel_rejected(monkeypatch):
    # V^*V is Hermitian whatever V is, so a wrong factor entry shows in the
    # trace identities
    exact = spectra._structured_factors

    def skewed(q, depths):
        v = exact(q, depths)
        v[0, 0, 0] *= 1 + 1e-6
        return v

    monkeypatch.setattr(spectra, "_structured_factors", skewed)
    with pytest.raises(EigensolverError, match="trace identity"):
        structured_moments(ht.seeded_phase_matrix(2, 3, 7), 2, 3)


def _losing_top_eigenvalue(exact):
    def losing(a):
        vals = exact(a)
        vals[np.unravel_index(np.argmax(vals), vals.shape)] = 0.0
        return vals

    return losing


def test_structured_lost_eigenvalue_rejected(monkeypatch):
    # dita(2, 3): 2 x 2 blocks, solved in closed form
    monkeypatch.setattr(spectra, "_block_eigenvalues",
                        _losing_top_eigenvalue(spectra._block_eigenvalues))
    with pytest.raises(EigensolverError, match="trace identity"):
        structured_moments(ht.seeded_phase_matrix(2, 3, 7), 2, 3)


def test_structured_batched_lost_eigenvalue_rejected(monkeypatch):
    # dita(3, 3): 3 x 3 blocks, solved by one batched eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", _losing_top_eigenvalue(np.linalg.eigvalsh))
    with pytest.raises(EigensolverError, match="trace identity"):
        structured_moments(ht.seeded_phase_matrix(3, 3, 1), 2, 3)


def _two_by_two_factors():
    """Batches of factors V whose Gram matrices are 2 x 2, by name: N x 2
    factors with the named block V^*V, and the depth-3 factors of dita(M, N),
    which have two columns when M = 2 and two rows when N = 2."""
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 50, 3, 2)) @ np.array([1, 1j])
    cases = {
        "random": np.stack([x, y], axis=-1),
        "rank-one": np.stack([x, (0.3 - 1.7j) * x], axis=-1),  # |c|^2 = a b
        "a=b": np.stack([x, x[:, ::-1] * 1j], axis=-1),
        "c=0": np.stack([x, np.cross(x.conj(), rng.normal(size=(50, 3)))], axis=-1),
    }
    for m, n in [(2, 3), (3, 2), (4, 2)]:
        cases[f"dita({m},{n})"] = spectra._structured_factors(ht.seeded_phase_matrix(m, n, 7), [3])
    return cases


@pytest.mark.parametrize("case", ["random", "rank-one", "a=b", "c=0", "dita(2,3)",
                                  "dita(3,2)", "dita(4,2)"])
def test_closed_form_blocks_match_eigvalsh(case):
    v = _two_by_two_factors()[case]
    for factors in (v, v.swapaxes(1, 2)):  # and the transposes, two rows <-> two columns
        rows, cols = factors.shape[1:]
        gram = (factors.swapaxes(1, 2).conj() @ factors if cols <= rows
                else factors @ factors.swapaxes(1, 2).conj())
        want = np.linalg.eigvalsh(gram)
        got = spectra._block_eigenvalues(factors)
        assert got.shape == want.shape == (len(v), 2)
        assert (np.diff(got, axis=1) >= 0).all()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    if case == "rank-one":
        assert np.abs(got[:, 0]).max() <= 1e-14 * np.abs(want).max()


def test_closed_form_haar_counts():
    # T_p of dita(2,3;seed=7) is solved as the 2 x 2 closed-form blocks of its
    # transpose; the multiplicities of the eigenvalue 1 are those eigvalsh gave
    h = ht.build_matrix("dita(2,3;seed=7)")
    counts = [ht.haar_moment_estimate(h, p, cap=10**6).rounded for p in range(1, 6)]
    assert counts == [1, 4, 18, 86, 426]


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


@pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (1, 1)])
def test_structured_moments_rejects_degenerate_factors(m, n):
    # a 1 x N phase matrix gives no dita structure: it would be timed on the
    # sector route and reported as a structured speedup
    q = ht.seeded_phase_matrix(m, n, 3)
    with pytest.raises(ValueError, match="M, N >= 2"):
        structured_moments(q, 2, 2)
    with pytest.raises(ValueError, match="M, N >= 2"):
        bench_structured_vs_dense(m, n, q, 2, 2, repetitions=1)


def test_bench_rejects_zero_reps():
    q = ht.seeded_phase_matrix(2, 2, 7)
    with pytest.raises(ValueError):
        bench_structured_vs_dense(2, 2, q, 2, 2, repetitions=0)
