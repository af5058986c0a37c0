"""Structure-exploiting kernels for deformed Fourier matrices.

For H built from F_M, F_N and a phase parameter matrix Q, the profile tensor
collapses to Kronecker deltas times the kernels

    R^x_{ab,cd} = (1/M) * sum_m w^{mx} Q_ma Q_md / (Q_mc Q_mb),   w = e^{2 pi i/M},

and the depth-r Gram matrix becomes, entrywise,

    X_{IA,JB} = delta(a_1-b_1 = ... = a_r-b_r) * prod_s R^{x_s}_{a_s b_s, a_{s+1} b_{s+1}},

with x_s = u_s - u_{s+1} (mod M) for U = I - J.  So X is a convolution operator
over Z_M^r, and the delta keeps A - B in the diagonal subgroup Z_N (1, ..., 1),
whose N^{r-1} cosets split every N-part block.  A discrete Fourier transform
over U thus leaves M^r N^{r-1} Hermitian N x N blocks, one per frequency and
coset, which is what the fast spectrum and moments exploit.
The dense pipeline remains the oracle: every structured result is validated
against it in the tests and before any benchmark timing is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import matrices, spectra
from .magic import DEFAULT_CAP, check_cap, multi_indices


def r_kernels(q):
    """All kernels R^x, x in Z_M, as an array of shape (M, N, N, N, N)."""
    q = np.asarray(q, dtype=complex)
    m = q.shape[0]
    w = np.exp(2j * np.pi / m)
    phases = w ** (np.arange(m)[:, None] * np.arange(m)[None, :])  # [x, m]
    return np.einsum("xm,ma,mb,mc,md->xabcd", phases, q, q.conj(), q.conj(), q) / m


def _structured_kernel(q, r):
    """The nonzero entries of the depth-r Gram matrix, k[U, C, t, t'].

    U is the flat M-part difference I - J in Z_M^r, C the flat coset of the
    diagonal subgroup Z_N (1, ..., 1) in Z_N^r, with representative A_C whose
    first digit is 0, and X_{IA,JB} = k[U, C, t, t'] for A = A_C + t (1, ..., 1),
    B = A_C + t' (1, ..., 1); every other entry of X vanishes.  Shape
    (M^r, N^{r-1}, N, N).
    """
    q = matrices._check_phase_matrix(q)
    m, n = q.shape
    kernels = r_kernels(q)
    u = multi_indices(m, r)
    reps = multi_indices(n, r)[: n ** (r - 1)]  # the A_C: first digit 0
    a = (reps[:, None, :] + np.arange(n)[:, None]) % n  # a[C, t, s]
    out = np.ones((m**r, n ** (r - 1), n, n), dtype=complex)
    for s in range(r):
        sp = (s + 1) % r
        x = (u[:, s] - u[:, sp]) % m
        out *= kernels[x[:, None, None, None],
                       a[None, :, :, None, s], a[None, :, None, :, s],
                       a[None, :, :, None, sp], a[None, :, None, :, sp]]
    return out


def structured_gram_matrix(q, r, cap=DEFAULT_CAP):
    """Full depth-r Gram matrix scattered from `_structured_kernel` (dense
    layout, same index flattening as the generic pipeline); the pairs whose
    N-parts lie in different cosets are zero."""
    m, n = np.shape(q)
    check_cap((m * n) ** r, cap)
    kernel = _structured_kernel(q, r)
    place = np.arange(r - 1, -1, -1)
    digits = multi_indices(m * n, r)
    ipart = digits // n @ m**place
    adig = digits % n
    coset = (adig - adig[:, :1]) % n @ n**place
    udig = multi_indices(m, r)
    diff = (udig[:, None, :] - udig[None, :, :]) % m @ m**place
    out = kernel[diff[ipart[:, None], ipart[None, :]], coset[:, None],
                 adig[:, 0, None], adig[None, :, 0]]
    out[coset[:, None] != coset[None, :]] = 0.0
    return out


def _structured_spectrum(q, r):
    """Ascending eigenvalues of the depth-r Gram matrix of dita(M, N, Q).

    A Fourier transform over the r U-axes of `_structured_kernel` leaves one
    Hermitian N x N block per frequency in Z_M^r and coset; all M^r N^{r-1}
    blocks are solved in one batched eigensolve.
    """
    m, n = np.shape(q)
    kernel = _structured_kernel(q, r).reshape((m,) * r + (-1, n, n))
    blocks = np.fft.fftn(kernel, axes=tuple(range(r))).reshape(-1, n, n)
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def structured_moments(q, p, r, cap=DEFAULT_CAP):
    """c_p^r of the deformed Fourier matrix, as a power sum of
    `_structured_spectrum`; never materializes the (MN)^r dense X."""
    if p < 1 or r < 1:
        raise ValueError("p and r must be >= 1")
    m, n = np.shape(q)
    check_cap((m * n) ** r, cap)
    vals = _structured_spectrum(q, r)
    return float(spectra._moments_from_spectrum(vals, m * n, r, p)[p - 1])


def delta_nonzero_count(m, n, r):
    """Number of depth-r Gram entries passing the common-difference
    constraint: M^{2r} * N^{r+1}.  Verified against brute-force counting in
    the tests before being relied on."""
    return m ** (2 * r) * n ** (r + 1)


@dataclass(frozen=True)
class BenchReport:
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
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    h = matrices.dita(m, n, q)

    def dense_path():
        return spectra.moments_via_X(h, p, r, cap=cap)

    def structured_path():
        return structured_moments(q, p, r, cap=cap)

    dense_val = dense_path()
    structured_val = structured_path()
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
