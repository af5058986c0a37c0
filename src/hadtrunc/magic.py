"""The magic projection grid P_ij and the truncation tensors T_p.

P_ij is the rank-1 projection onto the entrywise ratio of rows i and j of a
Hadamard matrix; its closed entry formula is

    (P_ij)_kl = (1/N) * H_ik H_jl / (H_il H_jk).

Rows and columns of the grid each sum to the identity, which is exactly the
magic condition.  The truncation tensor T_p collects normalized traces of
p-fold products of grid entries and drives the truncated integration
functional: the (a, b) entry of T_p^r integrates the word u_{a1 b1}...u_{ap bp}
at truncation depth r.  T_p is built from the products of the two half-words
and multiplies grid projections only, so it stays an oracle independent of
the profile and Gram routes in `spectra`.  Its moments Tr(T_p^r) are taken by
`spectra.moments_via_T` as a contraction of two half powers, which forms no
second N^p x N^p array, so the oracle's peak at r <= 2 is that of
`truncation_tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DEFAULT_CAP, MagicGridError, check_cap

MAGIC_TOL = 1e-9


def multi_indices(n, length):
    """All multi-indices in [0,n)^length, row-major, first digit most significant.

    Returned as an (n^length, length) integer array whose k-th row is the
    digit expansion of k; length >= 1.
    """
    return np.indices((n,) * length).reshape(length, -1).T


@dataclass(frozen=True)
class MagicGrid:
    """N x N grid of N x N rank-1 projections; projections[i, j] is P_ij."""

    n: int
    projections: np.ndarray  # shape (N, N, N, N)

    def __post_init__(self):
        self.projections.setflags(write=False)


class MagicReport(NamedTuple):
    idempotency_dev: float
    self_adjointness_dev: float
    row_sum_dev: float
    col_sum_dev: float
    tolerance: float

    @property
    def passed(self):
        return max(self.idempotency_dev, self.self_adjointness_dev,
                   self.row_sum_dev, self.col_sum_dev) < self.tolerance

    def to_dict(self):
        return {
            "idempotency_dev": self.idempotency_dev,
            "self_adjointness_dev": self.self_adjointness_dev,
            "row_sum_dev": self.row_sum_dev,
            "col_sum_dev": self.col_sum_dev,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _grid_array(h):
    arr = h.array
    n = arr.shape[0]
    return np.einsum("ik,jl,il,jk->ijkl", arr, arr, arr.conj(), arr.conj()) / n


def _magic_deviations(p):
    """MagicReport of the projection array p, plus the idempotency and
    self-adjointness deviations of each P_ij as (N, N) arrays."""
    n = p.shape[0]
    eye = np.eye(n)
    idem = np.abs(p @ p - p).max(axis=(2, 3))
    sadj = np.abs(p - p.conj().transpose(0, 1, 3, 2)).max(axis=(2, 3))
    row = float(np.abs(p.sum(axis=1) - eye[None, :, :]).max())
    col = float(np.abs(p.sum(axis=0) - eye[None, :, :]).max())
    report = MagicReport(float(idem.max()), float(sadj.max()), row, col, MAGIC_TOL)
    return report, idem, sadj


def magic_grid(h):
    """Build the projection grid of H and abort if any invariant fails.

    Uses the closed entry formula throughout; the diagnostics name the first
    grid position whose idempotency or self-adjointness breaks.
    """
    p = _grid_array(h)
    report, idem, sadj = _magic_deviations(p)
    for devs, what in ((idem, "idempotency"), (sadj, "self-adjointness")):
        if devs.max() > MAGIC_TOL:
            i, j = np.unravel_index(int(devs.argmax()), devs.shape)
            raise MagicGridError(
                f"{what} fails at P_({i},{j}): deviation {devs.max():.3e} > {MAGIC_TOL:.1e}"
            )
    if not report.passed:
        raise MagicGridError(f"row/column sums fail: {report.to_dict()}")
    return MagicGrid(h.n, p)


def verify_magic(grid):
    """Max deviations from idempotency, self-adjointness and unit row/col sums."""
    return _magic_deviations(grid.projections)[0]


def truncation_tensor(grid, p, cap=DEFAULT_CAP):
    """Dense N^p x N^p tensor with entries tr(P_{i1 j1} ... P_{ip jp}).

    The trace is normalized (tr = Tr/N).  Multi-indices are flattened
    row-major with the first letter most significant.  A word splits into its
    first a = ceil(p/2) and last b = floor(p/2) letters, tr(AB) =
    (1/N) sum_kl A_kl B_lk, so only the half-word products
    W_k[I, J] = P_{i1 j1} ... P_{ik jk} for k <= a are multiplied out, level
    by level, and contracted as one batched matmul that writes the output in
    its own (I_a, I_b, J_a, J_b) layout.  W_a holds N^{2a+2} entries and the
    output N^{2p}, so from p = 4 on the output is the peak.
    """
    if p < 1:
        raise ValueError("word length p must be >= 1")
    n = grid.n
    dim = check_cap(n, p, cap)
    words = [np.eye(n, dtype=complex)[None, None]]  # words[k] is W_k
    for k in range(1, (p + 1) // 2 + 1):
        words.append((words[-1][:, None, :, None] @ grid.projections[None, :, None, :])
                     .reshape(n**k, n**k, n, n))
    w_a, w_b = words[(p + 1) // 2], words[p // 2].transpose(0, 3, 2, 1)  # xykl, uklv
    w_b = w_b.reshape(1, len(w_b), n * n, len(w_b)) / n
    out = w_a.reshape(len(w_a), 1, len(w_a), n * n) @ w_b
    return out.reshape(dim, dim)


def truncated_integral_word(h, r, a, b, cap=DEFAULT_CAP):
    """Truncated integral of the word u_{a1 b1}...u_{ap bp} at depth r.

    Returns the (a, b) entry of T_p^r, as row a of T_p times T_p r - 1
    times; depth 0 gives the Kronecker delta of the two index words.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b) or not a:
        raise ValueError("index lists must be nonempty and of equal length")
    n = h.n
    for idx in (*a, *b):
        if not 0 <= idx < n:
            raise IndexError(f"index {idx} out of range [0, {n})")
    if r < 0:
        raise ValueError("truncation depth must be >= 0")
    if r == 0:
        return complex(a == b)
    p = len(a)
    t = truncation_tensor(magic_grid(h), p, cap=cap)
    row = t[np.ravel_multi_index(a, (n,) * p)]
    for _ in range(r - 1):
        row = row @ t
    return complex(row[np.ravel_multi_index(b, (n,) * p)])


def grid_relations_check(h):
    """Max residual over the four entrywise grid relations for H, conj(H),
    H^t and H^*:

        P^{conj}_ij       = P_ji
        (P^{t})_ij[k,l]   = P_kl[i,j]
        (P^{*})_ij[k,l]   = P_lk[i,j]
        P_ij[k,l]         = P_ji[l,k]

    All four grids are recomputed from scratch; the identities are exact in
    exact arithmetic, so the residual certifies the implementation.
    """
    from . import matrices

    p = _grid_array(h)
    pc = _grid_array(matrices.conjugate(h))
    pt = _grid_array(matrices.transpose(h))
    pa = _grid_array(matrices.adjoint(h))
    residuals = [
        np.abs(pc - np.einsum("jikl->ijkl", p)).max(),
        np.abs(pt - np.einsum("klij->ijkl", p)).max(),
        np.abs(pa - np.einsum("lkij->ijkl", p)).max(),
        np.abs(p - np.einsum("jilk->ijkl", p)).max(),
    ]
    return float(max(residuals))
