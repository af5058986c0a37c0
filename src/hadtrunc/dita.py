"""Entry points for deformed Fourier matrices dita(M, N, Q), on the phase matrix Q.

For H built from F_M, F_N and a phase parameter matrix Q, the depth-r Gram
matrix is a convolution operator over Z_M^r whose support keeps A - B in the
diagonal subgroup Z_N (1, ..., 1).  A discrete Fourier transform over the
M-part thus leaves one N x N block per frequency kappa in Z_M^r and coset:
V V^* when sum kappa = 0 (mod M), for the closed-form unimodular N x M
factors V of `spectra._structured_factors`, and zero otherwise.  Only
`spectra._gram_spectra`, the one dispatch point of every spectrum, solves
them: it recognizes dita(M, N, Q) from its entries, once per matrix per call,
up to row and column phases and digit shuffles (which cover its transpose and
F_MN), and `structured_moments` hands it the matrix built from Q.
`structured_gram_matrix` undoes the transform to lay the factors out as the
dense X, which the dense pipeline checks entry by entry: every structured
result is validated against it in the tests and before any benchmark timing
is reported.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from . import matrices
from .errors import DEFAULT_CAP, check_cap


def structured_gram_matrix(q, r, cap=DEFAULT_CAP):
    """Full depth-r Gram matrix rebuilt from `spectra._structured_factors` (dense
    layout, same index flattening as the generic pipeline).

    The blocks V V^* at the frequencies kappa with sum kappa = 0 (mod M), and
    zero blocks elsewhere, go through one inverse Fourier transform over the r
    kappa-axes, which gives k[U, C, t, t'] = X_{IA,JB} for U = I - J and
    A = A_C + t (1, ..., 1), B = A_C + t' (1, ..., 1); the pairs whose N-parts
    lie in different cosets are zero.
    """
    from . import spectra
    from .magic import multi_indices

    if r < 1:
        raise ValueError("depth r must be >= 1")
    m, n = np.shape(q)
    check_cap((m * n) ** r, cap)
    v = spectra._structured_factors(q, r)
    udig = multi_indices(m, r)
    blocks = np.zeros((m**r, n ** (r - 1), n, n), dtype=complex)
    blocks[udig.sum(axis=1) % m == 0] = (
        v @ v.swapaxes(-1, -2).conj()).reshape(-1, n ** (r - 1), n, n)
    kernel = np.fft.ifftn(blocks.reshape((m,) * r + (-1, n, n)), axes=tuple(range(r)))
    kernel = kernel.reshape(m**r, -1, n, n)
    place = np.arange(r - 1, -1, -1)
    digits = multi_indices(m * n, r)
    ipart = digits // n @ m**place
    adig = digits % n
    coset = (adig - adig[:, :1]) % n @ n**place
    diff = (udig[:, None, :] - udig[None, :, :]) % m @ m**place
    out = kernel[diff[ipart[:, None], ipart[None, :]], coset[:, None],
                 adig[:, 0, None], adig[None, :, 0]]
    out[coset[:, None] != coset[None, :]] = 0.0
    return out


def structured_moments(q, p, r, cap=DEFAULT_CAP):
    """c_p^r of the deformed Fourier matrix, as a power sum of the Gram
    spectrum that `spectra._gram_spectra` solves from the structured blocks;
    never materializes the (MN)^r dense X.  M, N < 2 is rejected, since no
    such matrix has the structure and it would take the sector route."""
    from . import spectra

    if p < 1 or r < 1:
        raise ValueError("p and r must be >= 1")
    m, n = np.shape(q)
    if min(m, n) < 2:
        raise ValueError(f"dita(M, N) needs M, N >= 2, got M = {m}, N = {n}")
    [vals] = spectra._gram_spectra(matrices.dita(m, n, q), [r], cap)
    return float(spectra._power_sums(vals, p)[p - 1] / (m * n) ** r)


class BenchReport(NamedTuple):
    m: int
    n: int
    p: int
    r: int
    dense_ms: float
    structured_ms: float
    speedup: float
    verified: bool

    def to_dict(self):
        return {"M": self.m, "N": self.n, "p": self.p, "r": self.r,
                "dense_ms": self.dense_ms, "structured_ms": self.structured_ms,
                "speedup": self.speedup, "verified": self.verified}


def bench_structured_vs_dense(m, n, q, p, r, repetitions=3, cap=DEFAULT_CAP):
    """Time the dense and structured moment paths on the same inputs.

    Correctness is asserted before any timing: if the two paths disagree the
    benchmark raises instead of reporting numbers.
    """
    from . import spectra

    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    h = matrices.dita(m, n, q)

    def dense_path():
        return spectra.moments_via_X(h, p, r, cap=cap)

    def structured_path():
        return structured_moments(q, p, r, cap=cap)

    structured_val = structured_path()  # first, so that M, N < 2 fails before the dense path
    dense_val = dense_path()
    scale = max(abs(dense_val), 1.0)
    verified = abs(dense_val - structured_val) <= 1e-9 * scale
    if not verified:
        raise AssertionError(
            f"structured moment {structured_val!r} disagrees with dense {dense_val!r}"
        )

    def best_ms(fn):
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return float(min(times))

    dense_ms = best_ms(dense_path)
    structured_ms = best_ms(structured_path)
    speedup = dense_ms / structured_ms if structured_ms > 0 else float("inf")
    return BenchReport(m, n, p, r, dense_ms, structured_ms, speedup, verified)
