"""Profile tensor, Gram matrices, truncated spectral measures and moments.

The profile tensor of H is

    Q_{ab,cd} = (1/N) * sum_i H_ia H_id / (H_ib H_ic),

the normalized inner product of the column ratios H_a/H_b and H_c/H_d.  The
depth-r Gram matrix

    X_{a1...ar, b1...br} = Q_{a1 b1, a2 b2} ... Q_{ar br, a1 b1}

is Hermitian PSD with unit diagonal; its spectral law with respect to the
normalized trace is the depth-r truncated measure, an atomic probability
measure on [0, N].  The same moments are available through the truncation
tensors of the magic grid, which gives a fully independent cross-check.

Entrywise T_p(H) = X_p(H^*) / N, whose conjugate X_p(H^t) has the same
spectrum, so the law, the moment table, the Cesaro averages and the Haar
moments all reduce checked Gram spectra (`_gram_spectra`), the last two those
of H^t, with the grid-product T_p as their oracle.  That one dispatch point
admits every depth of a call against the cap when it is called, then decides
the route once per matrix per call, for all its depths.  Each spectrum it
hands over is a pair (values, zeros): the solved eigenvalues, ascending, and
the number of exact zeros that no block solves, 0 on the sector route.  The
spectra of both routes pass one contract, computed from the profile of the
input (`_certified_spectrum`): len(values) + zeros = N^r, and the values
reproduce Tr X and ||X||_F^2.  A power sum, the Haar count and the Haar gap
read the values alone, since 0^j = 0 for j >= 1; only the law adds the zeros
back, as one value of weight zeros / N^r.

- Sector blocks (`_sector_spectrum`), for any input.  Rotating a multi-index
  does not change its cyclic word, so X commutes with the cyclic shift P, and
  the spectrum splits into r blocks of size about N^r / r, one per eigenvalue
  of P.  Reversing both multi-indices conjugates X, since
  Q_{cd,ab} = conj(Q_{ab,cd}); that antiunitary symmetry maps each block to
  itself, so each is solved as a real symmetric matrix.  The blocks are built
  from the profile, from the rows of one orbit in each reversed pair (somewhat
  over half the rows), without forming X, one sector at a time by a product
  with one row of the r x r DFT matrix, and checked to be Hermitian.  When
  the gathered entries of X are real, the reversal R is a unitary symmetry
  as well, mapping sector k onto sector r - k, so only sectors 0..r/2 are
  built and each one strictly between is solved once and counted twice.
  R maps sectors 0 and r/2 onto themselves, and they are solved in their
  R-even and R-odd halves; the coupling between the halves must vanish and
  is checked with the Hermiticity.
- Structured blocks (`_structured_spectrum`), for a deformed Fourier matrix
  dita(M, N, Q) = (Q_ib (F_M)_ij (F_N)_ab), up to the equivalences that keep
  the spectrum of X.  X of dita(M, N, Q) is a convolution over Z_M^r that
  keeps A - B in the diagonal subgroup Z_N (1, ..., 1), and a Fourier
  transform over Z_M^r leaves one block per frequency and coset.  The blocks
  at frequencies with nonzero digit sum vanish and every other one is V V^*,
  for the closed-form unimodular N x M factors V of `_structured_factors`, so
  the spectrum is that of M^{r-1} N^{r-1} Gram matrices of size min(M, N),
  plus (MN)^r - M^{r-1} N^{r-1} min(M, N) exact zeros, counted from the
  shapes and never stored.  When min(M, N) = 2 the blocks' eigenvalues come
  in closed form (`_block_eigenvalues`), else from one batched `eigvalsh`.
  An input takes this route only when `_dita_factors` rebuilds its dephased
  entries, entry by entry, as such a matrix after a digit shuffle of its
  rows, its columns or both.  That covers transpose(dita(M, N, Q)), F_MN and
  D1 dita(M, N, Q) D2 for unimodular diagonals D1, D2; no spec or provenance
  string is read.

Each route is split into a plan and a numeric step.  The plans
(`_sector_plan(n, r)`, `_structured_plan(m, n, r)`, `_recognition_plan(size)`)
hold the index work that depends only on the shape: the shift orbits, the
reversal pairing, the sector selections and phase roots, the R-parity order
of sectors 0 and r/2, the DFT matrix over the rotations; the kappa/mu and
coset tables of dita(M, N) at depth r; the factorizations, shuffle maps and
F_M (x) F_N waves of one size.  They are keyed on those integers alone, hold
nothing computed from a matrix's entries, and are memoized in caches of at
most _PLAN_CACHE_SIZE shapes each, as read-only arrays; H and H^t, and every
call of the same shape, share them.  At the cap of 4096 a sector plan takes
under 0.5 MB, and the profile (N^4 entries) keeps N small enough that a
recognition plan (d(N) N^2 complex waves) does too.

`gram_matrix` stays the dense oracle.  Every sequence of power sums of a
spectrum comes from `_power_sums`, every Tr(A^k) of a dense matrix from
`_trace_power`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import magic as magic_mod
from . import matrices
from .errors import DEFAULT_CAP, EigensolverError, MomentImagError, check_cap, float_power
from .magic import multi_indices

EIGEN_RESIDUAL_TOL = 1e-9  # scaled by N for Hermiticity, relative for trace identities
# Largest entrywise difference between the dephased entries of an input and the
# dita rebuilt from them.  For M, N <= 5 and seeds 1, 7, 13, dita(M, N, Q) and
# its shuffled transpose come within 6.0e-16, and both with random row and
# column phases within 9.4e-16; row-shuffled F_k, k <= 64 composite, within 2.3e-15.
_DITA_MATCH_TOL = 1e-14
CLUSTER_TOL_FACTOR = 1e-6  # clustering tolerance is this times N
HAAR_TOL = 1e-8  # distance from 1 within which an eigenvalue of T_p counts as 1
_PLAN_CACHE_SIZE = 32  # shapes each plan cache keeps, least recently used dropped
_CHUNK_ENTRIES = 1 << 16  # output entries `_product_over_cycle` fills per chunk


def _read_only(arr):
    """arr, made read-only: plans are shared by every call of their shape."""
    arr.setflags(write=False)
    return arr


def profile(h):
    """Four-index profile tensor Q_{ab,cd}, indices in [0, N), as one
    N^2 x N^2 product of the column ratios ab[i, (a, b)] = H_ia conj(H_ib)."""
    arr = h.array
    n = arr.shape[0]
    ab = (arr[:, :, None] * arr.conj()[:, None, :]).reshape(n, n * n)
    return (ab.T @ ab.conj()).reshape(n, n, n, n) / n


def _product_over_cycle(tensor, rows, cols, r):
    """prod_s tensor[rows_s, cols_s, rows_{s+1}, cols_{s+1}] over the cyclic
    word, for all (row, col) multi-index pairs at once.

    Each factor is two `take`s on the N^2 x N^2 pair matrix
    Q[(a, c), (b, d)] = tensor[a, b, c, d], and the factors are multiplied
    into the output in chunks of about _CHUNK_ENTRIES entries, so the peak is
    the output plus one chunk."""
    n = tensor.shape[0]
    pairs = tensor.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    nxt = np.arange(1, r + 1) % r
    row_pairs = rows * n + rows[:, nxt]  # (a_s, a_{s+1})
    col_pairs = cols * n + cols[:, nxt]
    out = np.ones((rows.shape[0], cols.shape[0]), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // max(1, cols.shape[0]))
    for lo in range(0, rows.shape[0], step):
        chunk = out[lo:lo + step]
        for s in range(r):
            chunk *= pairs.take(row_pairs[lo:lo + step, s], axis=0).take(col_pairs[:, s], axis=1)
    return out


def gram_vectors(h, r, cap=DEFAULT_CAP):
    """The N^r unit vectors whose Gram matrix is X, one per row.

    Vector a1...ar is the tensor product of the normalized column ratios
    (1/sqrt N) H_{a_s}/H_{a_{s+1}}, cyclically.
    """
    if r < 1:
        raise ValueError("depth r must be >= 1")
    n = h.n
    dim = check_cap(n, r, cap)
    arr = h.array
    ratios = np.einsum("ia,ib->abi", arr, arr.conj()) / np.sqrt(n)
    digits = multi_indices(n, r)
    vecs = np.ones((dim, 1), dtype=complex)
    for s in range(r):
        sp = (s + 1) % r
        factor = ratios[digits[:, s], digits[:, sp]]
        vecs = (vecs[:, :, None] * factor[:, None, :]).reshape(dim, -1)
    return vecs


def gram_matrix(h, r, cap=DEFAULT_CAP):
    """Depth-r Gram matrix X, as products of profile entries around the cycle.

    The dense oracle, from which no spectrum is computed; `gram_vectors` gives
    the same matrix as explicit inner products and is the oracle for this route.
    """
    if r < 1:
        raise ValueError("depth r must be >= 1")
    check_cap(h.n, r, cap)
    digits = multi_indices(h.n, r)
    return _product_over_cycle(profile(h), digits, digits, r)


def _cyclic_orbits(n, r):
    """Orbits of the cyclic shift P: (a_1, ..., a_r) -> (a_2, ..., a_r, a_1)
    on the flat depth-r multi-indices.

    Returns (rots, reps, sizes): rots[m] is every flat index rotated m places,
    reps are the orbit minima (ascending) and sizes the orbit sizes d.
    """
    dim = n**r
    rots = np.empty((r, dim), dtype=np.intp)
    rots[0] = np.arange(dim)
    for m in range(1, r):
        rots[m] = rots[m - 1] % n ** (r - 1) * n + rots[m - 1] // n ** (r - 1)
    reps = np.flatnonzero(rots.min(axis=0) == rots[0])
    sizes = r // (rots[:, reps] == reps).sum(axis=0)
    return rots, reps, sizes


def _trace_power(a, k):
    """Tr(A^k) for k >= 1, as a contraction of A^{ceil(k/2)} with
    A^{floor(k/2)}, sum_ij A^{ceil(k/2)}_ij A^{floor(k/2)}_ji, so only half
    powers are multiplied out and no full-size temporary is formed; A need
    not be Hermitian."""
    if k == 1:
        return np.trace(a)
    half = np.linalg.matrix_power(a, k // 2)
    return np.einsum("ij,ji->", half @ a if k % 2 else half, half)


def _power_sums(vals, k):
    """sum_l l^j for j = 1..k, from one running power of vals, so memory is
    one copy of vals for any k."""
    sums = np.empty(k)
    power = vals.copy()
    sums[0] = power.sum()
    for j in range(1, k):
        power *= vals
        sums[j] = power.sum()
    return sums


def _gram_norms(q, r):
    """Tr X = N^r (unit diagonal) and ||X||_F^2 = Tr(K^r) of the depth-r Gram
    matrix, K[(a,b),(c,d)] = |Q_{ab,cd}|^2, at a cost independent of r."""
    n = q.shape[0]
    k = np.abs(q.reshape(n * n, n * n)) ** 2
    return float(n**r), float(_trace_power(k, r))


def _certified_spectrum(vals, zeros, q, r):
    """The spectrum (vals, zeros) of the depth-r Gram matrix X of the profile
    q, vals the solved eigenvalues sorted in place and zeros the count of
    exact zeros, once it passes the contract of both routes, else
    `EigensolverError`: len(vals) + zeros = N^r (the trace identities miss a
    lost zero), and vals reproduce `_gram_norms` to 1e-9 relative, which
    catches a bad, lost or duplicated eigenvalue."""
    vals.sort()
    dim = q.shape[0] ** r
    if len(vals) + zeros != dim:
        raise EigensolverError(f"depth-{r} spectrum has {len(vals) + zeros} eigenvalues, "
                               f"not N^r = {dim}")
    for what, got, want in zip(("sum l", "sum l^2"), (vals.sum(), vals @ vals),
                               _gram_norms(q, r)):
        if not abs(got - want) <= EIGEN_RESIDUAL_TOL * abs(want):
            raise EigensolverError(f"depth-{r} spectrum fails the trace identity "
                                   f"{what} = {want:.12g}: got {got:.12g}")
    return vals, zeros


def _structured_factors(q, r):
    """The unimodular factors V of the depth-r Gram matrix of dita(M, N, Q), one
    N x M matrix per frequency kappa in Z_M^r with sum kappa = 0 (mod M) and per
    coset C of the diagonal subgroup Z_N (1, ..., 1) in Z_N^r:

        V[t, m0] = prod_s Q[mu_s, a_s] / Q[mu_s, a_{s+1}],   a_{r+1} = a_1,

    with mu_s = m0 + kappa_1 + ... + kappa_s (mod M) and a = A_C + t (1, ..., 1),
    A_C the representative of C whose first digit is 0.  A Fourier transform
    over the M-part of the column multi-indices takes X to blocks, one per
    frequency and coset, and V V^* is the block at (kappa, C); the blocks with
    sum kappa != 0 (mod M) vanish.  Shape (M^{r-1} N^{r-1}, N, M), kappa major
    and both in the row-major order of `multi_indices`; the index tables come
    from `_structured_plan`.  Q is an M x N array that its callers have checked
    with `matrices._check_phase_matrix`.
    """
    m, n = q.shape
    mu, steps = _structured_plan(m, n, r)
    ratio = (q[:, :, None] / q[:, None, :]).reshape(m, n * n)  # Q[m, a] / Q[m, b] at (m, a n + b)
    out = np.ones((len(mu), steps.shape[1], n, m), dtype=complex)
    for s in range(r):
        # ratio[mu_s, a_s, a_{s+1}] as [kappa, m0, C, t], laid out as out
        out *= ratio.take(steps[s], axis=1).take(mu[:, s], axis=0).transpose(0, 2, 3, 1)
    return out.reshape(-1, n, m)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _structured_plan(m, n, r):
    """The index tables of `_structured_factors` for dita(M, N) at depth r:
    mu[kappa, s, m0] = m0 + kappa_1 + ... + kappa_s (mod M) over the kappa with
    sum kappa = 0 (mod M), and steps[s, C, t] = a_s N + a_{s+1} for
    a = A_C + t (1, ..., 1).  Read-only arrays."""
    kappa = multi_indices(m, r)
    kappa = kappa[kappa.sum(axis=1) % m == 0]
    mu = (np.cumsum(kappa, axis=1)[:, :, None] + np.arange(m)) % m  # mu[kappa, s, m0]
    reps = multi_indices(n, r)[: n ** (r - 1)]  # the A_C: first digit 0
    a = (reps[:, None, :] + np.arange(n)[:, None]) % n  # a[C, t, s]
    steps = (a * n + np.roll(a, -1, axis=2)).transpose(2, 0, 1)
    return _read_only(mu), _read_only(np.ascontiguousarray(steps))


def _dita_factors(arr):
    """(M, N, Q) such that arr is dita(M, N, Q) with M, N >= 2, up to row and
    column phases and digit shuffles that leave the Gram spectrum unchanged;
    None when there is none.

    The entries are dephased first (first row and column 1), which absorbs
    the row and column phases of D1 dita(M, N, Q) D2; a dita dephases to
    dita(M, N, Q') with Q'_ib = Q_ib Q_00 / (Q_i0 Q_0b), the Q returned.  For
    each factorization len(arr) = M N, with s the shuffle (b, j) -> (j, b)
    from Z_N x Z_M onto Z_M x Z_N, four index maps are tried: none, s on rows
    and columns (transpose(dita(N, M, Q^T)) is dita(M, N, Q) shuffled so), s
    on rows only (F_MN, by Cooley-Tukey, is dita(M, N, (w_MN^{ib})) with rows
    i + M a reordered to i N + a), and s on columns only.  Every shuffle fixes
    index 0, so dephasing commutes with them.  Q is read off the entries at
    rows (i, 0) and columns (0, b), and a candidate is accepted only when
    dita(M, N, Q), rebuilt from Q and the Fourier matrices of
    `matrices.fourier`, matches it in every entry within _DITA_MATCH_TOL and
    Q passes `matrices._check_phase_matrix`, as in `matrices.dita`.  The four
    maps of one factorization are checked as one batch; the first map in
    that order that matches for any factorization wins.  The maps and waves
    come from `_recognition_plan`.
    """
    maps = _recognition_plan(arr.shape[0])
    # entries off the unit circle (or NaN) match no dita, and dephasing divides by them
    if not maps or not np.abs(np.abs(arr) - 1.0).max() <= matrices._PHASE_TOL:
        return None
    entries = matrices._dephased(arr)
    entries[0] = entries[:, 0] = 1.0  # exactly: x / x can miss 1 by a rounding error
    found = []
    for m, n, rows, cols, waves in maps:
        cands = entries[rows, cols].reshape(4, m, n, m, n)  # [map, i, a, j, b]
        q = cands[:, :, 0, 0, :]
        dev = np.abs(q[:, :, None, None, :] * waves - cands).max(axis=(1, 2, 3, 4))
        found.append((m, n, q, dev))
    for k in range(4):
        for m, n, q, dev in found:
            if dev[k] <= _DITA_MATCH_TOL:
                try:
                    return m, n, matrices._check_phase_matrix(q[k])
                except ValueError:  # Q is not unimodular
                    pass
    return None


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _recognition_plan(size):
    """The shape-only part of `_dita_factors` for a matrix of this size: per
    factorization size = M N with M, N >= 2, (M, N), the row and column index
    maps of the four shuffles and the waves (F_M)_ij (F_N)_ab as [i, a, j, b].
    Read-only arrays, d(size) size^2 complex entries in all."""
    same = np.arange(size)
    maps = []
    for m in range(2, size // 2 + 1):
        if size % m == 0:
            n = size // m
            shuffle = same.reshape(n, m).T.ravel()
            rows = np.array([same, shuffle, shuffle, same])[:, :, None]
            cols = np.array([same, shuffle, same, shuffle])[:, None, :]
            waves = np.einsum("ij,ab->iajb", matrices.fourier(m).array, matrices.fourier(n).array)
            maps.append((m, n, _read_only(rows), _read_only(cols), _read_only(waves)))
    return tuple(maps)


def _gram_spectra(h, depths, cap=DEFAULT_CAP):
    """An iterator of the spectra (values, zeros) of the depth-r Gram matrix X
    of h, one per r in the sequence depths, in order and one at a time, under
    `_certified_spectrum`: values the solved eigenvalues, ascending, and zeros
    the count of exact zeros, 0 on the sector route.  The one dispatch point,
    which decides the route once per matrix.  When it is called, every depth
    is admitted before any work, each in turn (r >= 1 and N^r within the cap),
    without copying depths, so that a range of 10^11 depths is refused at its
    first depth past the cap; then, unless depths is empty, `profile(h)` and
    `_dita_factors(h.array)` are computed once for all, and each depth is
    solved as its spectrum is drawn.  A recognized dita goes to
    `_structured_spectrum`, all else to sectors."""
    for r in depths:
        if r < 1:
            raise ValueError("depth r must be >= 1")
        check_cap(h.n, r, cap)
    q, factors = (profile(h), _dita_factors(h.array)) if depths else (None, None)
    return (_sector_spectrum(q, r) if factors is None else _structured_spectrum(factors, q, r)
            for r in depths)


def _structured_spectrum(factors, q, r):
    """The spectrum (values, zeros) of the depth-r Gram matrix X of an input
    with profile q that `_dita_factors` rebuilt as dita(M, N, Q), factors =
    (M, N, Q), under `_certified_spectrum`: values the eigenvalues of the
    Gram matrices of size min(M, N) of the factors V of `_structured_factors`
    (`_block_eigenvalues`), and zeros = (MN)^r - M^{r-1} N^{r-1} min(M, N),
    the exact zeros of the vanishing blocks, counted from the shapes alone,
    so that a lost eigenvalue fails the count.  Row phases and permutations
    keep the profile, column phases cancel around each cycle of X and column
    permutations only permute it, so these blocks have the spectrum of X.
    `_dita_factors` checks that Q is unimodular, so V is finite and its Gram
    matrices Hermitian: the contract, against q, is the check."""
    m, n, phases = factors
    vals = _block_eigenvalues(_structured_factors(phases, r)).ravel()
    zeros = (m * n) ** r - (m * n) ** (r - 1) * min(m, n)
    return _certified_spectrum(vals, zeros, q, r)


def _block_eigenvalues(v):
    """Eigenvalues of the k x k Gram matrices W^*W of the batch v of factors V,
    k = min(rows, columns), as an array of shape (blocks, k), ascending within
    each block: W = V, or V^T when V has more columns than rows, since
    V V^* = conj((V^T)^* V^T) has the same eigenvalues.

    For k = 2 in closed form, with no product and no `eigvalsh`: with a and b
    the squared norms of the two columns of W and c their inner product, the
    block [[a, c], [conj c, b]] has the eigenvalues
    ((a + b) -+ hypot(a - b, 2 |c|)) / 2.  No unimodularity of V is assumed.
    Otherwise one batched `eigvalsh` of the Gram matrices."""
    if v.shape[2] > v.shape[1]:
        v = v.swapaxes(1, 2)
    if v.shape[2] != 2:
        return np.linalg.eigvalsh(v.swapaxes(1, 2).conj() @ v)
    vals = np.einsum("btj,btj->bj", v.real, v.real) + np.einsum("btj,btj->bj", v.imag, v.imag)
    a, b = vals.T
    c = np.einsum("bt,bt->b", v[:, :, 0], v[:, :, 1].conj())
    mid, rad = a + b, np.hypot(a - b, 2 * np.abs(c))
    vals[:, 0], vals[:, 1] = mid - rad, mid + rad
    return vals / 2


def _sector_spectrum(q, r):
    """The spectrum (values, 0) of the depth-r Gram matrix X of the profile q
    from its cyclic sector blocks, under `_certified_spectrum`; the route that
    assumes no structure of the input beyond that of every X.

    Every entry of X is a cyclic word, so X commutes with the cyclic shift P
    and splits into r Hermitian blocks, one per eigenvalue w^k of P
    (w = e^{2 pi i/r}).  Sector k keeps the orbits alpha with k d_alpha = 0
    (mod r); with A_alpha the orbit minimum,

        X_k[alpha, beta] = sqrt(d_alpha d_beta)/r sum_{m<r} w^{km} X[P^m A_alpha, A_beta],

    which is sqrt(d_beta/d_alpha) sum_{m<d_alpha} w^{km} X[P^m A_alpha, A_beta]
    since P^{d_alpha} A_alpha = A_alpha.  The sector sizes sum to N^r and
    sector 0 has one row per necklace.  The sum over m is the product of the
    gathered X[P^m A_alpha, A_beta] with row k of the planned DFT matrix
    (1/r) w^{km}, taken one sector at a time (`_real_sector_block`), so the
    gather is never copied whole.

    Q_{cd,ab} = conj(Q_{ab,cd}), so reversing both words conjugates X:
    X[RA, RB] = conj(X[A, B]) with R(a_1..a_r) = (a_r..a_1).  R maps orbit
    alpha onto orbit sigma(alpha), an involution, with
    R A_alpha = P^{j_alpha} A_sigma(alpha), and since R P = P^{-1} R,

        X_k[sigma alpha, sigma beta] = c_alpha conj(c_beta X_k[alpha, beta]),   c_alpha = w^{k j_alpha}.

    In the basis g_alpha = c_alpha^{1/2} e_alpha (the root w^{k j_alpha/2}
    is the same for alpha and sigma alpha) this reads
    X'_k[sigma alpha, sigma beta] = conj(X'_k[alpha, beta]), and X'_k is real
    symmetric on g_alpha for each palindromic orbit (sigma alpha = alpha) and
    u = (g_alpha + g_sigma alpha)/sqrt 2, v = i (g_alpha - g_sigma alpha)/sqrt 2
    for each pair alpha < sigma(alpha).  With s and t the sum and difference
    of X'_k[alpha, beta] and X'_k[alpha, sigma beta] and G = [s | i t] on the
    columns (beta, sigma beta), the block is Re G on the rows u and the
    palindromic g_alpha, stacked on Im G on the rows v, one per pair.  A
    palindromic orbit has no v: its row is scaled by 1/sqrt 2, and in its
    column s is X'_k[alpha, beta] alone, scaled by sqrt 2.  Only rows with
    sigma(alpha) >= alpha enter, so of the N^{2r}/r entries of X that the
    sectors need, the share (1 + f)/2 is built from the profile, f being the
    share of palindromic orbits.  The imaginary parts of G that the
    palindromic rows drop vanish for the true X.  These are the only blocks
    that can fail to be Hermitian: before any is solved, sum ||B - B^T||_F^2
    (that is ||X~ - X~^*||_F^2, X~ the gathered rows completed by the
    reversal symmetry) plus the squared norm `dropped` of those imaginary
    parts must be <= (1e-9 N)^2, else `MomentImagError`.

    When the gathered entries are real, ||Im||_F <= 1e-9 N, X is real and
    X[RA, RB] = X[A, B]: R is then a unitary symmetry, and R P = P^{-1} R
    takes sector k onto sector r - k.  So only sectors k <= r/2 are built;
    each 0 < k < r/2 is solved once, its eigenvalues counted twice and its
    terms of the sum above twice, as sector r - k would add the same.  R
    maps sectors 0 and r/2 onto themselves, R g_alpha = c_alpha g_sigma(alpha)
    with c_alpha = w^{k j_alpha} = +-1 there, so R u = c_alpha u,
    R g_alpha = c_alpha g_alpha on a palindromic orbit and R v = -c_alpha v:
    at k = 0 the rows u and g are R-even and the rows v R-odd, and at r/2
    the sign of a row u or g is (-1)^{j_alpha}, that of a row v its negative.
    In the planned order, the R-even rows first, the block is then two
    diagonal halves, solved apart, an empty half not at all; the squared
    norm of the coupling between them, which vanishes for the true X, joins
    the sum above.  Complex X keeps its r blocks.
    """
    rows, reps, dft, sectors = _sector_plan(q.shape[0], r)
    gathered = _product_over_cycle(q, rows, reps, r).reshape(r, -1, len(reps))
    tol = EIGEN_RESIDUAL_TOL * q.shape[0]
    real = np.einsum("kab,kab->", gathered.imag, gathered.imag) <= tol**2
    solved, skew_sq = [], 0.0
    for k in range(r // 2 + 1 if real else r):
        block, dropped = _real_sector_block(gathered, dft[k], *sectors[k][:6])
        times = 2 if real and 0 < 2 * k < r else 1  # sector r - k has the spectrum of sector k
        skew_sq += times * (dropped + np.linalg.norm(block - block.T) ** 2)
        parts = [block]
        if real and times == 1:  # sectors 0 and r/2, R-even rows first: two halves, uncoupled
            order, split = sectors[k][6:]
            block = block.take(order, axis=0).take(order, axis=1)
            skew_sq += (np.linalg.norm(block[:split, split:]) ** 2
                        + np.linalg.norm(block[split:, :split]) ** 2)
            parts = [half for half in (block[:split, :split], block[split:, split:]) if len(half)]
        solved += [(part, times) for part in parts]
    if not skew_sq <= tol**2:  # also rejects NaN
        raise MomentImagError(f"depth-{r} Gram matrix is not Hermitian: "
                              f"||X - X^*||_F = {np.sqrt(skew_sq):.3e} > {tol:.1e}")
    vals = np.concatenate([v for part, times in solved for v in [np.linalg.eigvalsh(part)] * times])
    return _certified_spectrum(vals, 0, q, r)


def _real_sector_block(gathered, wave, at, cols, p, c, left, right):
    """The real block of sector k of `_sector_spectrum`, and the squared norm
    of the imaginary parts that its palindromic rows drop, from the gather
    and row k of the DFT, wave[m] = w^{km}/r; the other arguments are the
    sector's entry in `_sector_plan`.  The DFT row of the gather lives only
    until the block's rows are taken from it, and G until the return, so one
    sector is built at a time."""
    g = ((wave @ gathered.reshape(len(wave), -1)).reshape(gathered.shape[1:])
         .take(at, axis=0).take(cols, axis=1))  # X_k[alpha, (classes, sigma(pairs))]
    g *= left[:, None]
    g *= right
    t = g[:, :p] - g[:, c:]
    g[:, :p] += g[:, c:]
    g.real[:, c:], g.imag[:, c:] = -t.imag, t.real  # g = [s | i t]
    return np.concatenate([g.real, g.imag[:p]]), np.linalg.norm(g.imag[p:]) ** 2


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _sector_plan(n, r):
    """The shape-only part of `_sector_spectrum` for N = n at depth r, from
    the shift orbits of `_cyclic_orbits`, their reversal pairing sigma and
    shifts j_alpha: (rows, cols, dft, sectors), the digits of the gathered
    rows P^m A_alpha (m major, alpha among the rows that reversal keeps) and
    columns A_beta, the r x r DFT matrix dft[k, m] = w^{km}/r over the
    rotations, and per sector k (at, cols, p, c, left, right): the
    gathered rows `at` and columns `cols` of its block, p reversed pairs and
    c orbit classes, and the scale vectors left = conj(root[classes]) /
    lift[:c] and right = root[cols] lift, root = c_alpha^{1/2} sqrt(d_alpha);
    at k = 0 and r/2 also (order, split): the block's rows (u, g, v) ordered
    R-even first, stably, and the number of R-even rows.  Read-only arrays."""
    digits = multi_indices(n, r)
    dft = matrices.fourier(r).array / r  # (1/r) w^{km}, row k for sector k
    rots, reps, sizes = _cyclic_orbits(n, r)
    orbit = np.full(n**r, -1)  # the orbit of each flat index, as a position in reps
    orbit[rots[:, reps]] = np.arange(len(reps))
    reversed_reps = digits[reps] @ n ** np.arange(r)
    sigma = orbit[reversed_reps]
    shift = (rots[:, reps[sigma]] == reversed_reps).argmax(axis=0)  # j_alpha
    rows = np.flatnonzero(sigma >= np.arange(len(reps)))
    sectors = []
    for k in range(r):
        keep = k * sizes[rows] % r == 0
        pairs = np.flatnonzero(keep & (sigma[rows] > rows))  # positions in rows
        at = np.concatenate([pairs, np.flatnonzero(keep & (sigma[rows] == rows))])
        classes = rows[at]
        cols = np.concatenate([classes, sigma[rows[pairs]]])
        p, c = len(pairs), len(classes)
        root = np.exp(1j * np.pi * k * shift / r) * np.sqrt(sizes)  # c^{1/2} sqrt(d)
        lift = np.ones(len(cols))
        lift[p:c] = np.sqrt(2)  # the palindromic orbits
        split = ()
        if 2 * k % r == 0:  # R-parity of the rows u, g: (-1)^{2kj/r}; of the rows v: its negative
            odd = 2 * k // r * shift[classes] % 2 == 1
            odd = np.concatenate([odd, ~odd[:p]])
            split = (_read_only(np.argsort(odd, kind="stable")), len(odd) - int(odd.sum()))
        sectors.append((_read_only(at), _read_only(cols), p, c,
                        _read_only(root[classes].conj() / lift[:c]),
                        _read_only(root[cols] * lift), *split))
    return (_read_only(digits[rots[:, reps[rows]].ravel()]), _read_only(digits[reps]),
            _read_only(dft), tuple(sectors))


def _truncation_spectrum(h, p, cap=DEFAULT_CAP):
    """The solved eigenvalues of the truncation tensor T_p(H), which lie in
    [0, 1], without the exact zeros of the structured route: its consumers
    take power sums, count the eigenvalues at 1 and find the gap below 1, and
    a zero changes none of them.

    T_p(H) = X_p(H^*) / N entrywise, so T_p is never built.  The profile of
    conj(H) is the conjugate of that of H, so X_p(H^t) = conj X_p(H^*) has the
    same spectrum, and T_p is solved as the depth-p Gram spectrum of H^t over N:
    `_dita_factors` recognizes the transpose of every dita, not its adjoint.
    """
    if p < 1:
        raise ValueError("word length p must be >= 1")
    [(vals, _)] = _gram_spectra(matrices.transpose(h), [p], cap)
    return vals / h.n


class SpectralMeasure(NamedTuple):
    """Atomic probability measure on [0, N]: sorted atoms (location, weight)."""

    n: int
    r: int
    atoms: tuple  # ((x, w), ...) with strictly increasing x
    cluster_tol: float

    @property
    def total_weight(self):
        return sum(w for _, w in self.atoms)

    def moment(self, p):
        return sum(w * x**p for x, w in self.atoms)

    def to_dict(self):
        return {
            "N": self.n,
            "r": self.r,
            "atoms": [{"x": x, "w": w} for x, w in self.atoms],
            "cluster_tol": self.cluster_tol,
        }


def cluster_atoms(values, weights, tol):
    """Single-linkage atoms: the sorted values split wherever a gap exceeds tol
    (so a chain of close values may span more), and each run becomes one atom
    at its weighted mean, carrying its total weight."""
    order = np.argsort(values)
    values = np.asarray(values)[order]
    weights = np.asarray(weights)[order]
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)
    mass = np.add.reduceat(weights, starts)
    locs = np.add.reduceat(values * weights, starts) / mass
    return tuple(zip(locs.tolist(), mass.tolist()))


def measure_top_mass(measure):
    """Weight of the atom at N (within the measure's clustering tolerance)."""
    for x, w in measure.atoms:
        if abs(x - measure.n) <= measure.cluster_tol:
            return w
    return 0.0


def _law_from_spectrum(vals, zeros, n, r):
    """Depth-r truncated measure from the spectrum (vals, zeros) of X: each
    value carries weight 1/N^r and the exact zeros one value 0 of weight
    zeros/N^r, and values within the clustering tolerance 1e-6 * N are merged
    into one atom at their weighted mean."""
    cluster_tol = CLUSTER_TOL_FACTOR * n
    weights = np.full(len(vals), 1.0 / n**r)
    if zeros:
        vals, weights = np.append(vals, 0.0), np.append(weights, zeros / n**r)
    return SpectralMeasure(n, r, cluster_atoms(vals, weights, cluster_tol), cluster_tol)


def truncated_law(h, r, cap=DEFAULT_CAP):
    """Truncated measure at depth r, from the Hermitian eigenvalues of X.

    Depth 0 is the point mass at N.  The eigenvalues come from
    `_gram_spectra`, so the law is trusted only once they pass its checks.
    """
    if r < 0:
        raise ValueError("depth r must be >= 0")
    [spectrum] = _gram_spectra(h, [r], cap) if r else [(np.array([float(h.n)]), 0)]
    return _law_from_spectrum(*spectrum, h.n, r)


def _real_trace(value, scale, what):
    if abs(value.imag) > 1e-8 * scale:
        raise MomentImagError(
            f"{what} has imaginary part {value.imag:.3e} (scale {scale:g})"
        )
    return float(value.real)


def _check_word_and_depth(p, r):
    if p < 1:
        raise ValueError("word length p must be >= 1")
    if r < 0:
        raise ValueError("depth r must be >= 0")


def moments_via_T(h, p, r, cap=DEFAULT_CAP):
    """c_p^r as Tr(T_p^r), with T_p from the magic grid.

    N^p is admitted against the cap before the grid is built.  At r <= 2,
    the base cases of the half-power contraction, where both halves are T_p
    itself, the trace comes from the half-word tables
    (`magic._truncation_trace`) and T_p is never formed, so the peak is
    W_{ceil(p/2)} and one reordered copy of it.  From r = 3 on the trace is a
    contraction of two half powers of the dense T_p (`_trace_power`), so the
    peak is T_p plus the powers of it multiplied out."""
    _check_word_and_depth(p, r)
    scale = float_power(h.n, p)  # c_p^0, and the scale of c_p^r, before any work
    if r == 0:
        return scale
    check_cap(h.n, p, cap)
    grid = magic_mod.magic_grid(h)
    trace = (magic_mod._truncation_trace(grid, p, r) if r <= 2
             else _trace_power(magic_mod.truncation_tensor(grid, p, cap=cap), r))
    return _real_trace(trace, scale, f"Tr(T_{p}^{r})")


def moments_via_X(h, p, r, cap=DEFAULT_CAP):
    """c_p^r as (1/N^r) Tr(X^p), with X the depth-r Gram matrix."""
    _check_word_and_depth(p, r)
    scale = float_power(h.n, p)  # c_p^0, and the scale of c_p^r, before any work
    if r == 0:
        return scale
    trace = _trace_power(gram_matrix(h, r, cap=cap), p)
    return _real_trace(trace / h.n**r, scale, f"tr(X_{r}^{p})")


class MomentTable(NamedTuple):
    """Grid of moments c_p^r (1 <= p <= p_max, 0 <= r <= r_max) and their
    normalizations gamma_p^r = c_p^r / N^p."""

    n: int
    p_max: int
    r_max: int
    c: np.ndarray      # shape (p_max, r_max + 1), c[p-1, r]
    gamma: np.ndarray

    def to_dict(self):
        return {
            "N": self.n,
            "p_max": self.p_max,
            "r_max": self.r_max,
            "c": self.c.tolist(),
            "gamma": self.gamma.tolist(),
        }


def _word_norms(n, p_max):
    """N^p for p = 1..p_max as floats: the moments c_p^0, and the norms of the
    self-duality residuals.  Refused, before anything is allocated, once
    `float_power` refuses N^{p_max}, which for N = 1 is once 2^{p_max} passes
    the float range."""
    float_power(n, p_max)
    return np.array([float(n**p) for p in range(1, p_max + 1)])


def moment_table(h, p_max, r_max, cap=DEFAULT_CAP):
    """Fill the (p, r) moment grid through the Gram-matrix route.

    One `_gram_spectra` over depths 1..r_max, which admits them all when it
    is called, gives the spectra of X one at a time, and powers of the
    eigenvalues give every p at each depth; the exact zeros add nothing.
    """
    if p_max < 1 or r_max < 0:
        raise ValueError("p_max must be >= 1 and r_max >= 0")
    n = h.n
    solved = _gram_spectra(h, range(1, r_max + 1), cap)  # the depths, before the word
    c = _word_norms(n, p_max)[:, None].repeat(r_max + 1, axis=1)  # c^0 = N^p in column 0
    for r, (vals, _) in enumerate(solved, start=1):
        c[:, r] = _power_sums(vals, p_max) / n**r
    gamma = c / c[:, :1]
    return MomentTable(n, p_max, r_max, c, gamma)


class CesaroSequence(NamedTuple):
    p: int
    partial_averages: np.ndarray  # s_k = (1/k) sum_{r<=k} c_p^r, k = 1..k_max
    last_increment: float

    def to_dict(self):
        return {
            "p": self.p,
            "partial_averages": self.partial_averages.tolist(),
            "last_increment": self.last_increment,
        }


def _cesaro_sequence(lam, p, k_max):
    """Cesaro averages s_k = (1/k) sum_{r<=k} sum_lambda lambda^r, k = 1..k_max,
    from the power sums of the spectrum (`_power_sums`), so memory is
    O(N^p + k_max) for any k_max.
    """
    averages = np.cumsum(_power_sums(lam, k_max)) / np.arange(1, k_max + 1)
    increment = float(abs(averages[-1] - averages[-2])) if k_max > 1 else float("nan")
    return CesaroSequence(p, averages, increment)


def cesaro_moments(h, p, k_max, cap=DEFAULT_CAP):
    """Cesaro averages of the depth-r moments c_p^r for r = 1..k_max.

    c_p^r = Tr(T_p^r) = sum_lambda lambda^r over the spectrum of T_p, which is
    that of X_p(H^t) / N (`_truncation_spectrum`); one spectrum of size N^p
    serves every depth, so deep truncations cost O(N^p) each.  The k_max-long
    output is admitted against the cap, as the length k_max^1, before any
    spectrum is solved.  No convergence claim is made here; the last
    increment is reported as a diagnostic only.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    check_cap(k_max, 1, cap)
    return _cesaro_sequence(_truncation_spectrum(h, p, cap=cap), p, k_max)


class HaarMomentEstimate(NamedTuple):
    estimate: float
    rounded: int
    converged: bool
    gap: float

    def to_dict(self):
        return {"estimate": self.estimate, "rounded": self.rounded,
                "converged": self.converged, "gap": self.gap}


def haar_moment_estimate(h, p, k_max=32, cap=DEFAULT_CAP):
    """Exact p-th Haar moment plus its Cesaro estimate.

    T_p is PSD with spectrum in [0, 1], that of X_p(H^t) / N
    (`_truncation_spectrum`), so the Cesaro limit of Tr(T_p^r) is the
    multiplicity of the eigenvalue 1: `rounded` counts the eigenvalues within
    HAAR_TOL of 1.  `estimate` is the Cesaro average s_{k_max}, and
    `converged` is set when the last two averages agree within HAAR_TOL and
    the estimate sits within HAAR_TOL of `rounded`, so never at k_max = 1.
    `gap` is 1 minus the largest eigenvalue below 1 - HAAR_TOL (1.0 when
    there is none).  Each eigenvalue 1 adds 1 to s_k, so the distance of s_k
    from the limit is exactly

        (1/k) sum_{lambda<1} lambda (1 - lambda^k) / (1 - lambda),

    at most (1/k) sum_{lambda<1} lambda / (1 - lambda), which is in turn at
    most N^p (1 - gap) / (k gap).  k_max, the length of the Cesaro sequence,
    is admitted against the cap as in `cesaro_moments`.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    check_cap(k_max, 1, cap)
    lam = _truncation_spectrum(h, p, cap=cap)
    seq = _cesaro_sequence(lam, p, k_max)
    estimate = float(seq.partial_averages[-1])
    rounded = int((np.abs(lam - 1.0) <= HAAR_TOL).sum())
    converged = seq.last_increment < HAAR_TOL and abs(estimate - rounded) < HAAR_TOL
    gap = 1.0 - float(np.max(lam[lam < 1.0 - HAAR_TOL], initial=0.0))
    return HaarMomentEstimate(estimate, rounded, converged, gap)
