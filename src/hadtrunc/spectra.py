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

The law, the moment table, the Cesaro averages and the Haar moments all
reduce to checked Gram spectra of H (`_gram_spectra`), the last two through
one Cesaro core (`_cesaro`), which shows why the truncation tensor T_p has
the spectrum of X_p(H) / N, with the grid-product T_p as their oracle; so
does the self-duality check of `hadtrunc.duality`, which draws H with
recognition turned off, so from its sector blocks, and H^t by the default
dispatch, so from its structured blocks: a cross-route certificate,
not an oracle of either route, which the tests check against the Gram
vectors of `tests/gram_oracle.py`.  That one dispatch point admits every
depth of a call against the cap (`_admit_depth`) when it is called, and
decides the route once per matrix per call, for all its depths, when the
first spectrum is drawn, so a caller refuses its other arguments before any
route work.  The structured route solves all the depths of a call together
at that first draw, the sector route depth by depth as each is drawn; either
way each spectrum is certified as it is drawn.
Each spectrum it hands over is a pair (values, zeros): the solved
eigenvalues, ascending, and the number of exact zeros that no block solves,
0 on the sector route.  The spectra of both routes pass one contract,
computed from the profile of the input (`_certified_spectrum`):
len(values) + zeros = N^r, and the values reproduce Tr X and ||X||_F^2.  A
power sum, the Haar count and the Haar gap read the values alone, since
0^j = 0 for j >= 1; only the law adds the zeros back, as one value of weight
zeros / N^r.

- Sector blocks (`_sector_spectrum`), for any input.  Rotating a multi-index
  does not change its cyclic word, so X commutes with the cyclic shift P, and
  the spectrum splits into r blocks of size about N^r / r, one per eigenvalue
  of P.  A column involution pi with H[:, pi] = D1 P H (D1 a unimodular
  diagonal, P a row permutation) fixes the profile, so pi applied to every
  digit commutes with X and P; `_column_symmetries` finds a group A of such
  involutions, read from the entries and checked, and X splits further into
  r |A| blocks, one per character of Z_r x A.  Reversing both multi-indices
  conjugates X, since Q_{cd,ab} = conj(Q_{ab,cd}); that antiunitary symmetry
  maps each block to itself, so each is solved as a real symmetric matrix.
  The blocks are built from the profile, from the rows of one orbit in each
  reversed pair (somewhat over half the rows), without forming X, in
  batches of blocks of one size and layout, laid out block-major: one
  product of the batch's rows of the character table with the gather, one
  index that takes the stack of blocks from it, and one `eigvalsh`.
  They are checked to be Hermitian.  When the gathered entries of X are
  real, the reversal R is a unitary symmetry as well, mapping the blocks of
  k onto those of r - k, so only k = 0..r/2 are built and each k strictly
  between is solved once and counted twice.  R maps the blocks of k = 0 and
  r/2 onto themselves, and they are solved in their R-even and R-odd
  halves; the coupling between the halves must vanish and is checked with
  the Hermiticity.  With A = 1, the route when no involution is found, the
  blocks are the r cyclic sectors.
- Structured blocks (`_structured_spectra`), for a deformed Fourier matrix
  dita(M, N, Q) = (Q_ib (F_M)_ij (F_N)_ab), up to the equivalences that keep
  the spectrum of X.  X of dita(M, N, Q) is a convolution over Z_M^r that
  keeps A - B in the diagonal subgroup Z_N (1, ..., 1), and a Fourier
  transform over Z_M^r leaves one block per frequency and coset.  The blocks
  at frequencies with nonzero digit sum vanish and every other one is V V^*,
  for the closed-form unimodular N x M factors V of `_structured_factors`, so
  the spectrum is that of M^{r-1} N^{r-1} Gram matrices of size min(M, N),
  plus (MN)^r - M^{r-1} N^{r-1} min(M, N) exact zeros, counted from the
  shapes and never stored.  When min(M, N) = 2 the blocks' eigenvalues come
  in closed form (`_block_eigenvalues`), else from one batched `eigvalsh`;
  the factors of every depth of a call share one stack, so one such call
  solves them all.
  An input takes this route only when `_dita_factors` rebuilds its dephased
  entries, entry by entry, as such a matrix after a digit shuffle of its
  rows, its columns or both.  That covers transpose(dita(M, N, Q)), F_MN and
  D1 dita(M, N, Q) D2 for unimodular diagonals D1, D2; no spec or provenance
  string is read.

Each route is split into a plan and a numeric step.  The plans
(`_sector_plan(n, r, gens)`, `_structured_plan(m, n, r)`,
`_recognition_plan(size)`, `_involution_plan(n)`) hold the index work that
depends only on the shape: the orbits of Z_r x A, read from one table of
its action on the flat indices, the reversal pairing, the block selections
and phase roots, the R-parity order of the blocks of k = 0 and r/2, the
character table, the batches the blocks are solved in, one row of an array
per block; the kappa/mu and coset tables of dita(M, N) at depth r; the
factorizations, shuffle maps and F_M (x) F_N waves of one size; the
involutions of S_N that the search tests.  They are keyed on integers alone,
gens a tuple of permutation tuples, hold nothing computed from a matrix's
entries, and are memoized in caches of at most _PLAN_CACHE_SIZE shapes each,
as read-only arrays; every call of the same shape shares them, and so do H
and H^t when their involutions agree.  At the cap of 4096 a sector plan takes
under 0.5 MB, and the profile (N^4 entries) keeps N small enough that a
recognition plan (d(N) N^2 complex waves) does too.

`gram_matrix` stays the dense oracle; the tests check it, and the spectra of
both routes, against the unit vectors V with X = V V^*, which they build with
numpy alone.  Every sequence of power sums of a spectrum comes from
`_power_sums`, every Tr(A^k) of a dense matrix from `_trace_power`.
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
_SYMMETRY_MAX_N = 8  # the largest N whose column involutions are searched
_SYMMETRY_TOL = 1e-12  # entrywise distance of |H[:, pi] H^*| / N from a permutation
_MIN_BLOCK = 16  # rows per character of Z_r x A, on average, that a plan keeps
_CHUNK_ENTRIES = 1 << 16  # entries per chunk of the gather and of a sector batch
_TRACE_TILE = 1 << 14  # entries per tile of the half-power contraction in `_trace_power`
_TRACE_WIDTH = 512  # the widest tile, in columns of the second half power


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


def _admit_depth(n, r, cap):
    """N^r, the size of the depth-r Gram matrix of an N x N input, once
    r >= 1 and N^r fits the cap."""
    if r < 1:
        raise ValueError("depth r must be >= 1")
    return check_cap(n, r, cap)


def gram_matrix(h, r, cap=DEFAULT_CAP):
    """Depth-r Gram matrix X, as products of profile entries around the cycle.

    The dense oracle, from which no spectrum is computed; the tests check it
    entrywise against V V^* for the explicit unit vectors V of the paper.
    """
    _admit_depth(h.n, r, cap)
    digits = multi_indices(h.n, r)
    return _product_over_cycle(profile(h), digits, digits, r)


def _trace_power(a, k):
    """Tr(A^k) for k >= 1, as a contraction of A^{ceil(k/2)} with
    A^{floor(k/2)}, sum_ij A^{ceil(k/2)}_ij A^{floor(k/2)}_ji, so only half
    powers are multiplied out; A need not be Hermitian.  The contraction is
    one `np.dot` per tile of the second half of _TRACE_TILE entries, at most
    _TRACE_WIDTH columns wide, copied transposed against the matching tile
    of the first, so no full-size temporary is formed and a strided read
    spans few rows; a matrix of at most _TRACE_TILE entries is one tile."""
    if k == 1:
        return np.trace(a)
    half = np.linalg.matrix_power(a, k // 2)
    left, n = half @ a if k % 2 else half, len(a)
    cols = min(n, _TRACE_WIDTH)
    rows = _TRACE_TILE // cols
    total = 0
    for i in range(0, n, cols):
        for j in range(0, n, rows):
            total += np.dot(left[i:i + cols, j:j + rows].ravel(),
                            half[j:j + rows, i:i + cols].T.ravel())
    return total


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


def _structured_factors(q, depths):
    """The unimodular factors V of the depth-r Gram matrix of dita(M, N, Q) for
    each r in depths, one N x M matrix per frequency kappa in Z_M^r with
    sum kappa = 0 (mod M) and per coset C of the diagonal subgroup
    Z_N (1, ..., 1) in Z_N^r:

        V[t, m0] = prod_s Q[mu_s, a_s] / Q[mu_s, a_{s+1}],   a_{r+1} = a_1,

    with mu_s = m0 + kappa_1 + ... + kappa_s (mod M) and a = A_C + t (1, ..., 1),
    A_C the representative of C whose first digit is 0.  A Fourier transform
    over the M-part of the column multi-indices takes X to blocks, one per
    frequency and coset, and V V^* is the block at (kappa, C); the blocks with
    sum kappa != 0 (mod M) vanish.  One stack of shape
    (sum_r M^{r-1} N^{r-1}, N, M), preallocated: each depth's factors fill
    their own rows, in the order of depths, kappa major and both in the
    row-major order of `multi_indices`, multiplied out in place in the order
    of the cycle from the tables of `_structured_plan`, so a factor is the
    same bit for bit whatever other depths share the stack.  Q is an M x N
    array that its callers have checked with `matrices._check_phase_matrix`.
    """
    m, n = q.shape
    ratio = (q[:, :, None] / q[:, None, :]).reshape(m, n * n)  # Q[m, a] / Q[m, b] at (m, a n + b)
    out = np.empty((sum([(m * n) ** (r - 1) for r in depths]), n, m), dtype=complex)
    lo = 0
    for r in depths:
        mu, steps = _structured_plan(m, n, r)
        rows = len(mu) * steps.shape[1]  # M^{r-1} N^{r-1}
        part = out[lo:lo + rows].reshape(len(mu), -1, n, m)
        lo += rows
        part[...] = 1
        for s in range(r):
            # ratio[mu_s, a_s, a_{s+1}] as [kappa, m0, C, t], laid out as part
            part *= ratio.take(steps[s], axis=1).take(mu[:, s], axis=0).transpose(0, 2, 3, 1)
    return out


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


def _column_symmetries(arr):
    """Generators of a group A of commuting column involutions pi of the
    Hadamard matrix arr that fix its profile entry by entry,
    Q_{pi a pi b, pi c pi d} = Q_{ab,cd}, as a tuple of permutation tuples;
    () when there is none or N > _SYMMETRY_MAX_N.

    pi fixes Q exactly iff H[:, pi] = D1 P H for a unimodular diagonal D1 and
    a row permutation P.  The rows of H / sqrt N are orthonormal, so
    M = H[:, pi] H^* / N is unitary with H[:, pi] = M H, and that holds iff
    |M| is a permutation matrix.  The candidates of `_involution_plan` are
    tested in two batched products: the last row of |M| must hold an entry
    within _SYMMETRY_TOL = 1e-12 of 1, which rules most of them out, and
    then every entry of |M| must lie within 1e-12 of 0 or 1; M being
    unitary, its entries near 1 then form a permutation matrix.  So each
    entry of H[:, pi] lies within (N + 1) 1e-12 of D1 P H, each entry of the
    profile within 4 (N + 1) 1e-12 of its image, and to first order
    |X[pi A, pi B] - X[A, B]| <= 4 r (N + 1) 1e-12 for every entry of the
    depth-r Gram matrix X, pi acting on every digit.  Exact symmetries
    reach 3e-16, and one entry of a dita turned by 1e-10 rad misses by 1.7e-11.

    The generators are chosen in plan order: the first accepted involution
    that commutes with every element of the group so far and lies outside
    it joins, until none does; each doubles |A|."""
    n = arr.shape[0]
    cands = _involution_plan(n)
    last = np.abs(arr.conj() @ arr[-1, cands].T)  # N |M[-1, j]| at [j, candidate]
    cands = cands[last.max(axis=0) >= n * (1 - _SYMMETRY_TOL)]
    if not len(cands):
        return ()
    m = np.abs(arr.conj() @ arr[:, cands].swapaxes(1, 2)) / n  # |M[i, j]| at [i, j, candidate]
    cands = cands[(np.abs(m - (m > 0.5)) <= _SYMMETRY_TOL).all(axis=(0, 1))]
    gens, group = [], {tuple(range(n))}
    for pi in map(tuple, cands.tolist()):
        if pi not in group and all(pi[g[a]] == g[pi[a]] for g in gens for a in range(n)):
            gens.append(pi)
            group |= {tuple(pi[a] for a in g) for g in group}
    return tuple(gens)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _involution_plan(n):
    """The involutions of S_n other than the identity, as the rows
    (pi(0), ..., pi(n-1)) of one array in lexicographic order: 75 at n = 6,
    763 at n = 8, none past _SYMMETRY_MAX_N.  Read-only."""
    found = [()]
    for point in range(n if n <= _SYMMETRY_MAX_N else 0):
        # extend each involution of the points before this one: fix it, or
        # pair it with a fixed point before it
        found = [inv + (point,) for inv in found] + [
            inv[:a] + (point,) + inv[a + 1:] + (a,)
            for inv in found for a in range(point) if inv[a] == a]
    return _read_only(np.array(sorted(found)[1:], dtype=np.intp).reshape(-1, n))


def _gram_spectra(h, depths, cap=DEFAULT_CAP, *, recognize=True):
    """An iterator of the spectra (values, zeros) of the depth-r Gram matrix X
    of h, one per r in the sequence depths, in order and one at a time, under
    `_certified_spectrum`: values the solved eigenvalues, ascending, and zeros
    the count of exact zeros, 0 on the sector route.  The one dispatch point,
    which decides the route once per matrix.  When it is called, every depth
    is admitted, each in turn (r >= 1 and N^r within the cap), without
    copying depths, so that a range of 10^11 depths is refused at its first
    depth past the cap, and nothing else is done.  The route is decided when
    the first spectrum is drawn, so that a caller can refuse a word after the
    depths and before any route work: `profile(h)` and, unless recognize is
    false, `_dita_factors(h.array)` are computed once for all.  A recognized
    dita goes to `_structured_spectra`, which solves every depth together at
    that first draw; all else, every input when recognize is false, goes to
    sectors, split by the column involutions that `_column_symmetries(h.array)`
    finds, once for all, and each depth is solved as its spectrum is drawn.
    Either way each spectrum is certified as it is drawn."""
    for r in depths:
        _admit_depth(h.n, r, cap)

    def solve():  # the route is decided on the first draw
        q, factors = profile(h), _dita_factors(h.array) if recognize else None
        if factors:
            yield from _structured_spectra(factors, q, depths)
        else:
            gens = _column_symmetries(h.array)
            yield from (_sector_spectrum(q, r, gens) for r in depths)

    return solve() if depths else iter(())


def _structured_spectra(factors, q, depths):
    """The spectra (values, zeros) of the depth-r Gram matrix X of an input
    with profile q that `_dita_factors` rebuilt as dita(M, N, Q), factors =
    (M, N, Q), one per r in depths, in order, each under
    `_certified_spectrum`: values the eigenvalues of the Gram matrices of size
    min(M, N) of the factors V of `_structured_factors`, and
    zeros = (MN)^r - M^{r-1} N^{r-1} min(M, N), the exact zeros of the
    vanishing blocks, counted from the shapes alone, so that a lost
    eigenvalue fails the count.  Row phases and permutations keep the
    profile, column phases cancel around each cycle of X and column
    permutations only permute it, so these blocks have the spectrum of X.
    `_dita_factors` checks that Q is unimodular, so V is finite and its Gram
    matrices Hermitian: the contract, against q, is the check.

    Every depth is solved at the first draw: one stack of the factors of all
    depths and one `_block_eigenvalues` call, whose rows are split by each
    depth's block count; each depth is then sorted and certified as it is
    drawn, so a fault in one depth's rows raises when that depth is drawn."""
    m, n, phases = factors
    vals = _block_eigenvalues(_structured_factors(phases, depths))
    lo = 0
    for r in depths:
        blocks = (m * n) ** (r - 1)
        yield _certified_spectrum(vals[lo:lo + blocks].ravel(),
                                  (m * n) ** r - blocks * min(m, n), q, r)
        lo += blocks


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


def _sector_spectrum(q, r, gens=()):
    """The spectrum (values, 0) of the depth-r Gram matrix X of the profile q
    from its symmetry sector blocks, under `_certified_spectrum`; the route
    that assumes no structure of the input beyond that of every X and the
    column involutions gens that `_column_symmetries` found, () for none.

    Every entry of X is a cyclic word, so X commutes with the cyclic shift P.
    A column involution that fixes the profile, applied to every digit,
    fixes every entry of X and commutes with P.  So X commutes with
    G = Z_r x A, A the group of the involutions that `_sector_plan` keeps,
    and splits into r |A| Hermitian blocks, one per character
    chi = (k, e) of G, chi(m, b) = w^{km} (-1)^{|e & b|} (w = e^{2 pi i/r};
    J.-P. Serre, Linear Representations of Finite Groups, 2.6).  Block chi
    keeps the G-orbits alpha on whose stabilizer S_alpha chi is trivial;
    with A_alpha the orbit minimum and d_alpha = |G| / |S_alpha|,

        X_chi[alpha, beta] = sqrt(d_alpha d_beta)/|G| sum_{g in G} chi(g) X[g A_alpha, A_beta].

    The block sizes sum to N^r.  With A = 1 the blocks are the r cyclic
    sectors, sector 0 with one row per necklace.  The sum over g is a
    product of the gathered X[g A_alpha, A_beta] with rows chi of the planned
    character table chi(g)/|G|.  The blocks are built and solved in the
    batches of `_sector_plan`, blocks of one size and layout each: one
    product of the batch's character rows with the gather, from which one
    index takes the stack of blocks, block-major (`_sector_blocks`), then
    the Hermiticity terms of the whole stack and one `eigvalsh`.  So the
    number of numpy calls follows the number of batches, not of blocks, and
    the peak is the gather, one batch and the blocks built; a block of more
    than _CHUNK_ENTRIES entries is a batch alone.

    Q_{cd,ab} = conj(Q_{ab,cd}), so reversing both words conjugates X:
    X[RA, RB] = conj(X[A, B]) with R(a_1..a_r) = (a_r..a_1).  R maps orbit
    alpha onto orbit sigma(alpha), an involution, with
    R A_alpha = j_alpha A_sigma(alpha) for some j_alpha in G, and since
    R g = g^{-1} R and chi(g^{-1}) = conj(chi(g)),

        X_chi[sigma alpha, sigma beta] = c_alpha conj(c_beta X_chi[alpha, beta]),   c_alpha = chi(j_alpha).

    In the basis g_alpha = c_alpha^{1/2} e_alpha (the root is the same for
    alpha and sigma alpha) this reads
    X'_chi[sigma alpha, sigma beta] = conj(X'_chi[alpha, beta]), and X'_chi
    is real symmetric on g_alpha for each palindromic orbit
    (sigma alpha = alpha) and u = (g_alpha + g_sigma alpha)/sqrt 2,
    v = i (g_alpha - g_sigma alpha)/sqrt 2 for each pair alpha < sigma(alpha).
    With s and t the sum and difference of X'_chi[alpha, beta] and
    X'_chi[alpha, sigma beta] and W = [s | i t] on the columns
    (beta, sigma beta), the block is Re W on the rows u and the palindromic
    g_alpha, stacked on Im W on the rows v, one per pair.  A palindromic
    orbit has no v: its row is scaled by 1/sqrt 2, and in its column s is
    X'_chi[alpha, beta] alone, scaled by sqrt 2.  Only rows with
    sigma(alpha) >= alpha enter, so of the N^{2r}/|G| entries of X that the
    blocks need, the share (1 + f)/2 is built from the profile, f being the
    share of palindromic orbits.  The imaginary parts of W that the
    palindromic rows drop vanish for the true X.  These are the only blocks
    that can fail to be Hermitian, and they do when an involution in gens
    does not fix X: before any is solved, sum ||B - B^T||_F^2 (that is
    ||X~ - X~^*||_F^2, X~ the gathered rows completed by the symmetries)
    plus the squared norm `dropped` of those imaginary parts must be
    <= (1e-9 N)^2, else `MomentImagError`.

    When the gathered entries are real, ||Im||_F <= 1e-9 N, X is real and
    X[RA, RB] = X[A, B]: R is then a unitary symmetry, and R g = g^{-1} R
    takes block (k, e) onto block (r - k, e).  So only blocks with k <= r/2
    are built; each with 0 < k < r/2 is solved once, its eigenvalues counted
    twice and its terms of the sum above twice, as block (r - k, e) would
    add the same.  R maps the blocks with k = 0 and r/2 onto themselves,
    R g_alpha = c_alpha g_sigma(alpha) with c_alpha = chi(j_alpha) = +-1
    there, so R u = c_alpha u, R g_alpha = c_alpha g_alpha on a palindromic
    orbit and R v = -c_alpha v: the sign of a row u or g is c_alpha, that of
    a row v its negative, and with A = 1 at k = 0 every c_alpha is 1.  Its
    rows and columns permuted by the planned order of each block, the R-even
    first, such a block B = [[E, C1], [C2, O]] is sliced into two diagonal
    halves E and O, each solved as a block of its own size and counted once,
    an empty half not at all; the coupling C1, C2 vanishes for the true X,
    and ||C1||_F^2 + ||C2||_F^2 joins the sum above.  Complex X keeps its r |A| blocks, each solved
    whole.
    """
    rows, reps, chars, batches = _sector_plan(q.shape[0], r, gens)
    gathered = _product_over_cycle(q, rows, reps, r).reshape(len(chars), -1, len(reps))
    tol = EIGEN_RESIDUAL_TOL * q.shape[0]
    real = np.einsum("gab,gab->", gathered.imag, gathered.imag) <= tol**2  # no copy of Im
    solved, skew_sq = [], 0.0
    for at, cols, p, c, left, right, chis, built, halves in batches:
        count = built if real else len(chis)
        if not count:
            continue
        blocks, dropped = _sector_blocks(gathered, chars[chis[:count]], at[:count], cols[:count],
                                         p, c, left[:count], right[:count])
        times = 1 if halves or not real else 2  # (-k, e) has the spectrum of (k, e)
        skew_sq += times * (dropped + _squared_norm(blocks - blocks.swapaxes(1, 2)))
        parts = [blocks]
        if real and halves:  # k = 0 and r/2, R-even rows first: two halves, uncoupled
            order, split = halves  # every block of k = 0 and r/2 is built
            blocks = blocks[np.arange(count)[:, None, None], order[:, :, None], order[:, None, :]]
            skew_sq += (_squared_norm(blocks[:, :split, split:])
                        + _squared_norm(blocks[:, split:, :split]))
            parts = [half for half in (blocks[:, :split, :split], blocks[:, split:, split:])
                     if half.shape[1]]
        solved += [(part, times) for part in parts]
    if not skew_sq <= tol**2:  # also rejects NaN
        raise MomentImagError(f"depth-{r} Gram matrix is not Hermitian: "
                              f"||X - X^*||_F = {np.sqrt(skew_sq):.3e} > {tol:.1e}")
    vals = np.concatenate([v.ravel() for part, times in solved
                           for v in [np.linalg.eigvalsh(part)] * times])
    return _certified_spectrum(vals, 0, q, r)


def _squared_norm(x):
    """||x||_F^2 of a real array, as one BLAS dot; a strided x is copied."""
    return np.vdot(x, x)


def _sector_blocks(gathered, waves, at, cols, p, c, left, right):
    """The real blocks of one batch of `_sector_spectrum`, as a stack of
    shape (blocks, c + p, c + p), and the squared norm of the imaginary parts
    that their palindromic rows drop: from the gather, shaped (|G|, rows,
    columns), the batch's rows of the character table, waves[b, g] =
    chi_b(g)/|G|, and the rest of the batch's entry in `_sector_plan`, cut to
    these blocks.  The product of the waves with the gather, one row per
    block, lives only until one index of the blocks' rows at and columns
    cols takes the stack from it."""
    g = ((waves @ gathered.reshape(len(gathered), -1)).reshape(-1, gathered.shape[2])
         [at[:, :, None], cols[:, None, :]])  # [block, alpha, column]
    g *= left[:, :, None]
    g *= right[:, None, :]  # X'_chi[alpha, (classes, sigma(pairs))]
    t = g[..., :p] - g[..., c:]
    g[..., :p] += g[..., c:]
    np.multiply(t, 1j, out=g[..., c:])  # g = [s | i t]
    return np.concatenate([g.real, g.imag[:, :p]], axis=1), _squared_norm(g.imag[:, p:])


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _sector_plan(n, r, gens=()):
    """The shape-only part of `_sector_spectrum` for N = n at depth r and the
    group A generated by the commuting involutions gens of [0, n), a tuple
    of permutation tuples: from the table acts[g, A] = g A of the action of
    G = Z_r x A on the flat indices, whose column minima are the orbit
    minima A_alpha and label every index by its orbit, the stabilizers
    S_alpha, reversal pairing sigma and group elements j_alpha,
    (rows, cols, chars, batches): the digits of the gathered rows g A_alpha
    (g major, alpha among the rows that reversal keeps, the reversed pairs
    before the palindromic orbits) and columns A_beta, the character table
    chars[chi, g] = chi(g)/|G|, and the nonempty blocks, one per character
    chi, in batches.

    Block chi has rows u and v per reversed pair it keeps, p of them, and
    a row g per palindromic orbit: c + p rows for c orbit classes, which
    are its rows at_chi of the product of row chi of chars with the gather.
    Its columns cols_chi are the classes, then sigma of the pairs, scaled
    by right = root[cols] lift[cols], the rows by left = conj(root[classes])
    / lift[classes]; root = c_alpha^{1/2} sqrt(d_alpha), lift = sqrt 2 on the
    palindromic orbits.  At k = 0 and r/2 its rows (u, g, v) also have an
    R-parity order, R-even first, stably, split of them R-even.  A batch
    holds blocks of one layout (c + p, p, split), split None unless k = 0
    or r/2, those with 0 < k < r/2 before those with k > r/2, which real X
    does not build, filled in character order up to _CHUNK_ENTRIES entries
    (a larger block is a batch alone), and the batches are in the order of
    their first characters.

    A batch is (at, cols, p, c, left, right, chis, built, halves): chis its
    characters, built the number of leading blocks that real X builds, and
    each per-block vector one row of an array, block-major: at (count, c)
    the rows of block b in the product of the rows chis of chars with the
    gather, taken as (count R, columns) for R gathered rows per character,
    so at[b] = b R + at_b; cols (count, c + p) its gathered columns; left
    (count, c) and right (count, c + p) its scales.  halves is None but at
    k = 0 and r/2, where it is (order, split), order (count, c + p) the
    R-parity order of each block's rows and columns.  So the plan holds
    O(N^r) indices.

    Each generator doubles the number of blocks, whose calls cost more than
    their smaller eigensolves save once they are small, so only the first k
    of gens with N^r >= _MIN_BLOCK r 2^k are used: at least 16 rows per
    character on average.  Element b of A is the product of the generators j
    with bit j of b set, g = (m, b) = P^m b sits at m |A| + b (row block
    m of acts is row block m - 1 rotated one place), and
    chi = (k, e) at k |A| + e has chi(m, b) = w^{km} (-1)^{|e & b|}, so the
    table is the Kronecker product of the r x r DFT matrix and the Sylvester
    matrix of A; with A = 1 it is the DFT matrix (1/r) w^{km} and each orbit
    a shift orbit.  The root of c_alpha = chi(j_alpha) = w^{kj} (-1)^{|e & b|},
    j_alpha = (j, b) the first element of G in this order with
    j_alpha A_sigma(alpha) = R A_alpha, is w^{kj/2}, times i when the sign is
    -1; j_alpha is the same for sigma(alpha), as both are the first of one
    coset of S_alpha.  Read-only arrays."""
    while gens and n**r < _MIN_BLOCK * r * 2 ** len(gens):
        gens = gens[:-1]
    digits = multi_indices(n, r)
    elems, signs = np.arange(n)[None], np.ones((1, 1))  # A and its characters
    for gen in gens:
        elems = np.concatenate([elems, np.take(gen, elems)])
        signs = np.kron([[1.0, 1.0], [1.0, -1.0]], signs)
    acts = np.empty((r, len(elems), n**r), dtype=np.intp)  # g A for every flat index A
    acts[0] = elems[:, digits] @ n ** np.arange(r - 1, -1, -1)  # b on the flat indices
    for m in range(1, r):  # P^m b: the images of P^{m-1} b, rotated one place
        acts[m] = acts[m - 1] % n ** (r - 1) * n + acts[m - 1] // n ** (r - 1)
    acts = acts.reshape(-1, n**r)
    least = acts.min(axis=0)
    reps = np.flatnonzero(least == np.arange(n**r))  # the G-orbit minima
    orbit = np.searchsorted(reps, least)  # the orbit of each flat index, as a position in reps
    chars = np.kron(matrices.fourier(r).array, signs)
    stab = acts[:, reps] == reps  # g in S_alpha
    order = stab.sum(axis=0)
    sizes = len(acts) // order  # d_alpha = |G| / |S_alpha|
    trivial = np.abs(chars @ stab - order) < 0.5  # chi = 1 on S_alpha
    reversed_reps = digits[reps] @ n ** np.arange(r)
    sigma = orbit[reversed_reps]
    shift = (acts[:, reps[sigma]] == reversed_reps).argmax(axis=0)  # j_alpha
    j, b = divmod(shift, len(elems))
    paired = np.flatnonzero(sigma > np.arange(len(reps)))
    rows = np.concatenate([paired, np.flatnonzero(sigma == np.arange(len(reps)))])
    kept = trivial[:, rows]  # the rows of each block: its pairs, then its palindromic orbits
    k = np.arange(len(chars)) // len(elems)
    roots = (np.exp(1j * np.pi * np.outer(k, j) / r)
             * np.where(signs[np.arange(len(chars)) % len(elems)][:, b] < 0, 1j, 1)
             * np.sqrt(sizes))  # c^{1/2} sqrt(d) of every orbit, per character
    lift = np.where(sigma == np.arange(len(reps)), np.sqrt(2), 1.0)  # the palindromic orbits
    lefts, rights = roots.conj() / lift, roots * lift
    # R-parity at k = 0 and r/2 of the rows u, g: c_alpha = +-1; of the rows v: its negative
    odd = chars.real[:, shift] < 0
    pairs, pals = kept[:, :len(paired)].sum(axis=1), kept[:, len(paired):].sum(axis=1)
    # a pair has one R-even row of u and v; a palindromic orbit is even when c_alpha = 1
    splits = pairs + (kept & ~odd[:, rows])[:, len(paired):].sum(axis=1)
    layouts = {}  # (c + p, p, split) -> its characters, 0 < k < r/2 before k > r/2
    for chi in sorted(np.flatnonzero(pairs + pals).tolist(), key=lambda chi: 2 * k[chi] > r):
        layouts.setdefault((2 * int(pairs[chi]) + int(pals[chi]), int(pairs[chi]),
                            int(splits[chi]) if 2 * k[chi] % r == 0 else None), []).append(chi)
    batches = []
    for (size, p, split), members in layouts.items():
        step = max(1, _CHUNK_ENTRIES // size**2)
        for lo in range(0, len(members), step):
            chis = np.array(members[lo:lo + step])
            count, c = len(chis), size - p
            at = np.flatnonzero(kept[chis]).reshape(count, c)  # b R + position in rows
            classes = rows[at % len(rows)]
            cols = np.concatenate([classes, sigma[classes[:, :p]]], axis=1)
            halves = None
            if split is not None:  # the rows (u, g, v), R-even first, stably
                flips = odd[chis[:, None], classes]
                halves = (_read_only(np.argsort(np.concatenate([flips, ~flips[:, :p]], axis=1),
                                                axis=1, kind="stable")), split)
            built = int((2 * k[chis] <= r).sum())  # real X builds the blocks with k <= r/2
            at, cols, left, right, chis = map(_read_only, (
                at, cols, lefts[chis[:, None], classes], rights[chis[:, None], cols], chis))
            batches.append((at, cols, p, c, left, right, chis, built, halves))
    return (_read_only(digits[acts[:, reps[rows]].ravel()]), _read_only(digits[reps]),
            _read_only(chars / len(chars)), tuple(sorted(batches, key=lambda batch: batch[6][0])))


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


def _word_scale(h, p, r):
    """N^p as a float, c_p^0 and the scale of c_p^r, once p >= 1 and r >= 0."""
    if p < 1:
        raise ValueError("word length p must be >= 1")
    if r < 0:
        raise ValueError("depth r must be >= 0")
    return float_power(h.n, p)


def moments_via_T(h, p, r, cap=DEFAULT_CAP):
    """c_p^r as Tr(T_p^r), with T_p from the magic grid.

    N^p is admitted against the cap before the grid is built.  At r <= 2,
    the base cases of the half-power contraction, where both halves are T_p
    itself, the trace comes from the half-word tables
    (`magic._truncation_trace`) and T_p is never formed, so the peak is
    W_{ceil(p/2)} and one reordered copy of it.  From r = 3 on the trace is a
    contraction of two half powers of the dense T_p (`_trace_power`), so the
    peak is T_p plus the powers of it multiplied out."""
    scale = _word_scale(h, p, r)  # before any work
    if r == 0:
        return scale
    check_cap(h.n, p, cap)
    grid = magic_mod.magic_grid(h)
    trace = (magic_mod._truncation_trace(grid, p, r) if r <= 2
             else _trace_power(magic_mod.truncation_tensor(grid, p, cap=cap), r))
    return _real_trace(trace, scale, f"Tr(T_{p}^{r})")


def moments_via_X(h, p, r, cap=DEFAULT_CAP):
    """c_p^r as (1/N^r) Tr(X^p), with X the depth-r Gram matrix."""
    scale = _word_scale(h, p, r)  # before any work
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
        return {**self._asdict(), "partial_averages": self.partial_averages.tolist()}


def _cesaro(h, p, k_max, cap):
    """(lam, CesaroSequence): the solved eigenvalues lam of the truncation
    tensor T_p(H), which lie in [0, 1], and the Cesaro averages
    s_k = (1/k) sum_{r<=k} sum_lambda lambda^r, k = 1..k_max, of their power
    sums (`_power_sums`), so memory is O(N^p + k_max) for any k_max.

    k_max >= 1 is admitted against the cap, as the length k_max^1 of the
    output, before p >= 1 and before any spectrum is solved.  T_p is never
    built: it has the spectrum of X_p(H) / N, for every square H, so lam is
    the depth-p Gram spectrum of H itself over N.  Proof.  T_p(H) =
    X_p(H^*) / N entrywise, and the profile of conj(H) is the conjugate of
    that of H, so X_p(H^*) = conj X_p(H^t), which has the spectrum of
    X_p(H^t).  Let V(H) be the square N^p x N^p matrix of the Gram vectors
    of `tests/gram_oracle.py`, X_p(H) = V V^*, with

        V(H)_{a,i} = N^{-p/2} prod_s H_{i_s a_s} conj(H_{i_s a_{s+1}}),

    indices cyclic.  Then V(H^t)_{a,i} = N^{-p/2} prod_s H_{a_s i_s}
    conj(H_{a_s i_{s-1}}), which is V(H)_{Ri,Ra}, R the reversal of a
    multi-index: V(H^t) = P_R V(H)^T P_R with P_R its permutation matrix.
    So X_p(H^t) = P_R conj(V^* V) P_R, which has the spectrum of V^* V, and
    V is square, so that of X_p(H) = V V^*.
    lam leaves out the exact zeros of the structured route: a power sum, the
    count of eigenvalues at 1 and the gap below 1 are the same without them.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    check_cap(k_max, 1, cap)
    if p < 1:
        raise ValueError("word length p must be >= 1")
    [(vals, _)] = _gram_spectra(h, [p], cap)
    lam = vals / h.n
    averages = np.cumsum(_power_sums(lam, k_max)) / np.arange(1, k_max + 1)
    increment = float(abs(averages[-1] - averages[-2])) if k_max > 1 else float("nan")
    return lam, CesaroSequence(p, averages, increment)


def cesaro_moments(h, p, k_max, cap=DEFAULT_CAP):
    """Cesaro averages of the depth-r moments c_p^r for r = 1..k_max.

    c_p^r = Tr(T_p^r) = sum_lambda lambda^r over the spectrum of T_p, that of
    X_p(H) / N (`_cesaro`), so one spectrum of size N^p serves every depth.
    The k_max-long output is admitted against the cap, as the length k_max^1,
    before any spectrum is solved.  No convergence claim is made here; the
    last increment is reported as a diagnostic only.
    """
    return _cesaro(h, p, k_max, cap)[1]


class HaarMomentEstimate(NamedTuple):
    estimate: float
    rounded: int
    converged: bool
    gap: float

    def to_dict(self):
        return self._asdict()


def haar_moment_estimate(h, p, k_max=32, cap=DEFAULT_CAP):
    """Exact p-th Haar moment plus its Cesaro estimate.

    T_p is PSD with spectrum in [0, 1], that of X_p(H) / N (`_cesaro`), so
    the Cesaro limit of Tr(T_p^r) is the multiplicity of the eigenvalue
    1: `rounded` counts the eigenvalues within HAAR_TOL of 1.  `estimate` is
    the Cesaro average s_{k_max} of `cesaro_moments`, and `converged` is set
    when the last two averages agree within HAAR_TOL and the estimate sits
    within HAAR_TOL of `rounded`, so never at k_max = 1.  `gap` is 1 minus
    the largest eigenvalue below 1 - HAAR_TOL (1.0 when there is none).  Each
    eigenvalue 1 adds 1 to s_k, so the distance of s_k from the limit is
    exactly

        (1/k) sum_{lambda<1} lambda (1 - lambda^k) / (1 - lambda),

    at most (1/k) sum_{lambda<1} lambda / (1 - lambda), which is in turn at
    most N^p (1 - gap) / (k gap).  k_max, the length of the Cesaro sequence,
    is admitted against the cap as in `cesaro_moments`.
    """
    lam, seq = _cesaro(h, p, k_max, cap)
    estimate = float(seq.partial_averages[-1])
    rounded = int((np.abs(lam - 1.0) <= HAAR_TOL).sum())
    converged = seq.last_increment < HAAR_TOL and abs(estimate - rounded) < HAAR_TOL
    gap = 1.0 - float(np.max(lam[lam < 1.0 - HAAR_TOL], initial=0.0))
    return HaarMomentEstimate(estimate, rounded, converged, gap)
