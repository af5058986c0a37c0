"""Independent oracles for the benchmark's result checks.

Nothing here calls into hadtrunc: spectra come from an SVD of the explicit
Gram vectors (never from eigh/eigvalsh, the routes under test), and matrix
equivalence is decided by an explicit dephase-and-permutation search.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# Tao's 6x6 complex Hadamard matrix: exponents of w = exp(2 pi i / 3).
TAO6_EXPONENTS = np.array([
    [0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 2, 2],
    [0, 1, 0, 2, 2, 1],
    [0, 1, 2, 0, 1, 2],
    [0, 2, 2, 1, 0, 1],
    [0, 2, 1, 2, 1, 0],
])


def tao6():
    return np.exp(2j * np.pi / 3) ** TAO6_EXPONENTS


def hadamard_dev(arr):
    """Max deviation of arr from unimodular entries and H H^* = N I."""
    n = arr.shape[0]
    gram = arr @ arr.conj().T
    return max(float(np.abs(np.abs(arr) - 1).max()),
               float(np.abs(gram - n * np.eye(n)).max()) / n)


def gram_spectrum(arr, r):
    """Sorted eigenvalues of the depth-r Gram matrix X = V V^*.

    Row A = (a_1..a_r) of V is the tensor product over s of the unit vectors
    H_{:, a_s} * conj(H_{:, a_{s+1}}) / sqrt(N) (indices cyclic); the
    eigenvalues of V V^* are the squared singular values of V.
    """
    n = arr.shape[0]
    ratios = arr[:, :, None] * arr.conj()[:, None, :] / np.sqrt(n)  # [i, a, b]
    digits = np.indices((n,) * r).reshape(r, -1)
    vecs = np.ones((n**r, 1), dtype=complex)
    for s in range(r):
        factor = ratios[:, digits[s], digits[(s + 1) % r]].T
        vecs = (vecs[:, :, None] * factor[:, None, :]).reshape(n**r, -1)
    return np.sort(np.linalg.svd(vecs, compute_uv=False) ** 2)


def t_spectrum(arr, p):
    """Eigenvalues of the truncation tensor T_p(H) = X_p(H^*) / N."""
    return gram_spectrum(arr.conj().T, p) / arr.shape[0]


def cesaro_averages(lam, k_max):
    """s_k = (1/k) sum_{r<=k} sum_lambda lambda^r for k = 1..k_max."""
    powers = lam[None, :] ** np.arange(1, k_max + 1)[:, None]
    return np.cumsum(powers.sum(axis=1)) / np.arange(1, k_max + 1)


def unit_multiplicity(lam, tol=1e-8):
    """Multiplicity of eigenvalue 1: the exact Cesaro limit of Tr(T_p^r)."""
    return int((np.abs(lam - 1.0) <= tol).sum())


def rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1.0))


def atoms_to_values(atoms, n, r):
    """Expand (x, w) atoms of a depth-r law back into N^r eigenvalues."""
    values = []
    for x, w in atoms:
        count = w * n**r
        if abs(count - round(count)) > 1e-6:
            return None
        values += [x] * round(count)
    return np.array(values)


# -- equivalence up to row/column phases and permutations -----------------------

def _keys(arr):
    return [[(round(z.real * 1e8), round(z.imag * 1e8)) for z in row] for row in arr]


def _dephased(arr, i, j):
    """Divide column b by arr[i, b], then row a by the new (a, j) entry."""
    out = arr / arr[i, :][None, :]
    return out / out[:, j][:, None]


def _column_profile(rows, keys):
    return Counter(tuple(keys[a][c] for a in rows) for c in range(len(keys)))


def _match_rows(a_keys, b_keys, assigned):
    """Extend the row map `assigned` (rows of A -> rows of B) to a bijection
    under which A and B agree up to one column permutation."""
    k = len(assigned)
    if k == len(a_keys):
        return True
    want = _column_profile(range(k + 1), a_keys)
    row_multiset = Counter(a_keys[k])
    for b in range(len(b_keys)):
        if b in assigned or Counter(b_keys[b]) != row_multiset:
            continue
        if _column_profile(assigned + [b], b_keys) == want:
            if _match_rows(a_keys, b_keys, assigned + [b]):
                return True
    return False


def equivalent(a, b):
    """Whether b = D1 P1 a P2 D2 for diagonal unitary D and permutations P."""
    if a.shape != b.shape:
        return False
    n = a.shape[0]
    a_keys = _keys(_dephased(a, 0, 0))
    for i in range(n):
        for j in range(n):
            b_keys = _keys(_dephased(b, i, j))
            # Row 0 of A (all ones after dephasing) maps to row i of B.
            if _match_rows(a_keys, b_keys, [i]):
                return True
    return False


def repeat_fraction(requests):
    """Share of (H, r) spectrum requests whose pair was already requested, up
    to row/column phases and permutations of H."""
    seen = []
    repeats = 0
    for arr, r in requests:
        if any(r == r0 and equivalent(a0, arr) for a0, r0 in seen):
            repeats += 1
        else:
            seen.append((arr, r))
    return repeats / len(requests) if requests else 0.0
