"""Structure-exploiting kernels for deformed Fourier matrices.

For H built from F_M, F_N and a phase parameter matrix Q, the profile tensor
collapses to Kronecker deltas times the kernels

    R^x_{ab,cd} = (1/M) * sum_m w^{mx} Q_ma Q_md / (Q_mc Q_mb),   w = e^{2 pi i/M},

and the depth-r Gram matrix becomes, entrywise,

    X_{IA,JB} = delta(a_1-b_1 = ... = a_r-b_r) * prod_s R^{x_s}_{a_s b_s, a_{s+1} b_{s+1}},

with x_s = i_s + j_{s+1} - j_s - i_{s+1} (mod M).  Since x depends on the
M-part indices only through the difference I - J, X is a convolution operator
over Z_M^r; a discrete Fourier transform in those indices block-diagonalizes
it into M^r blocks of size N^r, which is what the fast moment path exploits.
The dense pipeline remains the oracle: every structured result is validated
against it in the tests and before any benchmark timing is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

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


def _delta_mask(n, r):
    """(N^r, N^r) mask of N-part multi-index pairs (A, B) whose differences
    a_s - b_s agree mod N for every s, the support of the Gram matrix."""
    adig = multi_indices(n, r)
    mask = np.ones((n**r, n**r), dtype=bool)
    for s in range(1, r):
        mask &= ((adig[:, s][:, None] - adig[:, s][None, :]) % n
                 == (adig[:, 0][:, None] - adig[:, 0][None, :]) % n)
    return mask


def structured_gram_matrix(q, r, cap=DEFAULT_CAP):
    """Full depth-r Gram matrix assembled from the kernels (dense layout,
    same index flattening as the generic pipeline)."""
    q = np.asarray(q, dtype=complex)
    m, n = q.shape
    size = m * n
    check_cap(size**r, cap)
    kernels = r_kernels(q)
    digits = multi_indices(size, r)
    idig = digits // n
    adig = digits % n
    aflat = adig @ n ** np.arange(r - 1, -1, -1)
    mask = _delta_mask(n, r)[aflat[:, None], aflat[None, :]]
    out = np.ones((size**r, size**r), dtype=complex)
    for s in range(r):
        sp = (s + 1) % r
        x = (idig[:, s][:, None] + idig[:, sp][None, :]
             - idig[:, s][None, :] - idig[:, sp][:, None]) % m
        out *= kernels[x, adig[:, s][:, None], adig[:, s][None, :],
                       adig[:, sp][:, None], adig[:, sp][None, :]]
    out[~mask] = 0.0
    return out


def structured_moments(q, p, r, cap=DEFAULT_CAP):
    """c_p^r of the deformed Fourier matrix via the block-diagonalized form.

    Builds the M^r convolution blocks of size N^r (only the delta-allowed
    entries are populated), Fourier-transforms over the M-part indices and
    sums traces of block powers.  Never materializes the (MN)^r dense X.
    """
    q = np.asarray(q, dtype=complex)
    m, n = q.shape
    if p < 1 or r < 1:
        raise ValueError("p and r must be >= 1")
    size = m * n
    check_cap((m**r) * (n**r), cap)
    kernels = r_kernels(q)
    adig = multi_indices(n, r)
    an = n**r
    mask = _delta_mask(n, r)
    f = np.zeros((m,) * r + (an, an), dtype=complex)
    for u in product(range(m), repeat=r):
        block = np.ones((an, an), dtype=complex)
        for s in range(r):
            sp = (s + 1) % r
            x = (u[s] - u[sp]) % m
            block *= kernels[x, adig[:, s][:, None], adig[:, s][None, :],
                             adig[:, sp][:, None], adig[:, sp][None, :]]
        block[~mask] = 0.0
        f[u] = block
    blocks = np.fft.fftn(f, axes=tuple(range(r))).reshape(m**r, an, an)
    total = 0.0
    for blk in blocks:
        acc = blk
        for _ in range(p - 1):
            acc = acc @ blk
        total += np.trace(acc).real
    return float(total / size**r)


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
