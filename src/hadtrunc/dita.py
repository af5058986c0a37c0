"""Entry points for deformed Fourier matrices dita(M, N, Q), on the phase matrix Q.

The depth-r Gram matrix of dita(M, N, Q) splits into one Gram block of
closed-form factors per frequency and coset, plus exact zeros; the derivation
and the recognition rule are in `hadtrunc.spectra`, whose one dispatch point
solves those blocks.  `structured_moments` hands it the matrix built from Q.
`structured_gram_matrix` lays the blocks out as the dense X, which the dense
pipeline checks entry by entry: every structured result is validated against
it in the tests and before any benchmark timing is reported.

Importing this module loads no numpy; each entry point imports what it runs.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .errors import DEFAULT_CAP, check_cap, float_power


def structured_gram_matrix(q, r, cap=DEFAULT_CAP):
    """Full depth-r Gram matrix rebuilt from `spectra._structured_factors` (dense
    layout, same index flattening as the generic pipeline).

    With U = I - J the difference of the M-parts, A = A_C + t (1, ..., 1) and
    B = A_C + t' (1, ..., 1), the entry X_{IA,JB} is

        k[U, C, t, t'] = M^{-r} sum_kappa w_M^{U . kappa} (V V^*)[kappa, C, t, t'],

    summed over the frequencies kappa with sum kappa = 0 (mod M), the only
    ones whose blocks are nonzero: one product of the M^r x M^{r-1} character
    table with the blocks V V^*.  The pairs whose N-parts lie in different
    cosets are zero.
    """
    import numpy as np

    from . import matrices, spectra
    from .magic import multi_indices

    if r < 1:
        raise ValueError("depth r must be >= 1")
    q = matrices._check_phase_matrix(q)
    m, n = q.shape
    check_cap(m * n, r, cap)
    v = spectra._structured_factors(q, r)
    udig = multi_indices(m, r)
    kappa = udig[udig.sum(axis=1) % m == 0]
    chars = np.exp(2j * np.pi * (udig @ kappa.T % m) / m) / m**r  # w_M^{U . kappa} / M^r
    blocks = (v @ v.swapaxes(-1, -2).conj()).reshape(len(kappa), -1)
    kernel = (chars @ blocks).reshape(m**r, -1, n, n)
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
    """c_p^r of the deformed Fourier matrix, as the p-th power sum of the
    Gram spectrum that `spectra._gram_spectra` solves from the structured
    blocks, whose exact zeros add nothing to it; never materializes the
    (MN)^r dense X.  M, N < 2 is rejected, since no such matrix has the
    structure and it would take the sector route, and so is a word whose
    (MN)^p, the scale of c_p^r, passes the float range: after r is admitted
    and before the spectrum is solved."""
    import numpy as np

    from . import matrices, spectra

    if p < 1 or r < 1:
        raise ValueError("p and r must be >= 1")
    m, n = np.shape(q)
    if min(m, n) < 2:
        raise ValueError(f"dita(M, N) needs M, N >= 2, got M = {m}, N = {n}")
    solved = spectra._gram_spectra(matrices.dita(m, n, q), [r], cap)  # admits r, solves nothing
    float_power(m * n, p)  # the scale of c_p^r, before the spectrum is solved
    [(vals, _)] = solved
    return float((vals**p).sum() / (m * n) ** r)


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
    from . import matrices, spectra

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
