"""The depth-r Gram matrix X = V V^* from explicit unit vectors, with numpy alone.

Row a1...ar of V is the tensor product over s of the normalized column
ratios (1/sqrt N) H_{a_s} / H_{a_{s+1}}, indices cyclic, so the spectrum of
X is the squared singular values of V: no eigensolver, and nothing from
hadtrunc, whose routes this module checks.
"""

import numpy as np

# Tao's 6x6 complex Hadamard matrix is w^E with w = e^{2 pi i/3}; unlike the
# corpus, its depth-3 Gram matrices are genuinely complex.
TAO6_EXPONENTS = [[0, 0, 0, 0, 0, 0],
                  [0, 0, 1, 1, 2, 2],
                  [0, 1, 0, 2, 2, 1],
                  [0, 1, 2, 0, 1, 2],
                  [0, 2, 2, 1, 0, 1],
                  [0, 2, 1, 2, 1, 0]]


def tao6_array():
    """Tao's matrix w^E as an array, E = TAO6_EXPONENTS."""
    return np.exp(2j * np.pi / 3 * np.array(TAO6_EXPONENTS))


def gram_vectors(arr, r):
    """The N^r unit vectors of the N x N array arr whose Gram matrix is X,
    one per row, multi-indices row-major (first digit most significant)."""
    if r < 1:
        raise ValueError("depth r must be >= 1")
    n = arr.shape[0]
    ratios = arr[:, :, None] * arr.conj()[:, None, :] / np.sqrt(n)  # [i, a, b]
    digits = np.indices((n,) * r).reshape(r, -1)
    vecs = np.ones((n**r, 1), dtype=complex)
    for s in range(r):
        factor = ratios[:, digits[s], digits[(s + 1) % r]].T
        vecs = (vecs[:, :, None] * factor[:, None, :]).reshape(n**r, -1)
    return vecs


def gram_spectrum(arr, r):
    """The ascending spectrum of X: the squared singular values of `gram_vectors`."""
    return np.sort(np.linalg.svd(gram_vectors(arr, r), compute_uv=False) ** 2)
