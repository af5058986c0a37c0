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

Entrywise T_p(H) = X_p(H^*) / N, so the law, the moment table, the Cesaro
averages and the Haar moments all reduce one checked Gram spectrum
(`_gram_spectrum`); the grid-product T_p stays their oracle (`moments_via_T`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import magic as magic_mod
from . import matrices
from .errors import EigensolverError, MomentImagError
from .magic import DEFAULT_CAP, check_cap, multi_indices

EIGEN_RESIDUAL_TOL = 1e-9  # scaled by N for Hermiticity, relative for trace identities
CLUSTER_TOL_FACTOR = 1e-6  # default clustering tolerance is this times N

_HERMITIAN_BLOCK = 64  # rows of X compared with X^* per step of the guard


def profile(h):
    """Four-index profile tensor Q_{ab,cd}, indices in [0, N)."""
    arr = h.array
    n = arr.shape[0]
    return np.einsum("ia,ib,ic,id->abcd", arr, arr.conj(), arr.conj(), arr) / n


def _product_over_cycle(tensor, rows, cols, r):
    """prod_s tensor[rows_s, cols_s, rows_{s+1}, cols_{s+1}] over the cyclic
    word, for all (row, col) multi-index pairs at once."""
    k = rows.shape[0]
    out = np.ones((k, k), dtype=complex)
    for s in range(r):
        sp = (s + 1) % r
        out *= tensor[rows[:, s][:, None], cols[:, s][None, :],
                      rows[:, sp][:, None], cols[:, sp][None, :]]
    return out


def gram_vectors(h, r, cap=DEFAULT_CAP):
    """The N^r unit vectors whose Gram matrix is X, one per row.

    Vector a1...ar is the tensor product of the normalized column ratios
    (1/sqrt N) H_{a_s}/H_{a_{s+1}}, cyclically.
    """
    if r < 1:
        raise ValueError("depth r must be >= 1")
    n = h.n
    dim = n**r
    check_cap(dim, cap)
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

    `gram_vectors` gives the same matrix as explicit inner products and is the
    independent oracle for this route.
    """
    if r < 1:
        raise ValueError("depth r must be >= 1")
    n = h.n
    check_cap(n**r, cap)
    digits = multi_indices(n, r)
    return _product_over_cycle(profile(h), digits, digits, r)


def _gram_spectrum(h, r, cap=DEFAULT_CAP):
    """Ascending eigenvalues of the depth-r Gram matrix X, under the one
    spectral contract.  ||X - X^*||_F <= 1e-9 * N, summed over row blocks so no
    temporary is as large as X (else `MomentImagError`); as the solver reads
    one triangle, this bounds the eigenpair residual against the full X.  Then
    sum(l) = Tr X and sum(l^2) = ||X||_F^2 to 1e-9 relative (else
    `EigensolverError`), which catches a bad, lost or duplicated eigenvalue.
    """
    x = gram_matrix(h, r, cap=cap)
    tol = EIGEN_RESIDUAL_TOL * h.n
    skew_sq = frob_sq = 0.0
    # No block temporary may outlive the loop: a live one split the heap, and
    # the solver's own copy of X then raised peak RSS by the size of X.
    for start in range(0, x.shape[0], _HERMITIAN_BLOCK):
        rows = x[start:start + _HERMITIAN_BLOCK]
        skew_sq += np.linalg.norm(rows - x[:, start:start + _HERMITIAN_BLOCK].conj().T) ** 2
        frob_sq += np.linalg.norm(rows) ** 2
    if not skew_sq <= tol**2:  # also rejects NaN
        raise MomentImagError(f"depth-{r} Gram matrix is not Hermitian: "
                              f"||X - X^*||_F = {np.sqrt(skew_sq):.3e} > {tol:.1e}")
    vals = np.linalg.eigvalsh(x)
    for what, got, want in (("sum l", vals.sum(), np.trace(x).real),
                            ("sum l^2", vals @ vals, frob_sq)):
        if not abs(got - want) <= EIGEN_RESIDUAL_TOL * abs(want):
            raise EigensolverError(f"depth-{r} spectrum fails the trace identity "
                                   f"{what} = {want:.12g}: got {got:.12g}")
    return vals


def _truncation_spectrum(h, p, cap=DEFAULT_CAP):
    """Eigenvalues of the truncation tensor T_p(H), which lie in [0, 1].

    T_p(H) = X_p(H^*) / N entrywise, so T_p is never built: its spectrum is
    the depth-p Gram spectrum of the adjoint, scaled by 1/N.
    """
    return _gram_spectrum(matrices.adjoint(h), p, cap=cap) / h.n


@dataclass(frozen=True)
class SpectralMeasure:
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
    """Merge sorted spectrum values closer than tol into weighted atoms."""
    order = np.argsort(values)
    values = np.asarray(values)[order]
    weights = np.asarray(weights)[order]
    atoms = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            chunk_w = float(weights[start:i].sum())
            loc = float((values[start:i] * weights[start:i]).sum() / chunk_w)
            atoms.append((loc, chunk_w))
            start = i
    return tuple(atoms)


def measure_top_mass(measure):
    """Weight of the atom at N (within the measure's clustering tolerance)."""
    for x, w in measure.atoms:
        if abs(x - measure.n) <= measure.cluster_tol:
            return w
    return 0.0


def truncated_law(h, r, cap=DEFAULT_CAP, cluster_tol=None):
    """Truncated measure at depth r, from the Hermitian eigenvalues of X.

    Depth 0 is the point mass at N.  Each eigenvalue carries weight 1/N^r;
    eigenvalues within the clustering tolerance are merged into one atom at
    their mean.  The eigenvalues come from `_gram_spectrum`, so the law is
    trusted only once X passes its Hermiticity and trace-identity contract.
    """
    n = h.n
    if cluster_tol is None:
        cluster_tol = CLUSTER_TOL_FACTOR * n
    if r < 0:
        raise ValueError("depth r must be >= 0")
    if r == 0:
        return SpectralMeasure(n, 0, ((float(n), 1.0),), cluster_tol)
    vals = _gram_spectrum(h, r, cap=cap)
    weights = np.full(len(vals), 1.0 / n**r)
    return SpectralMeasure(n, r, cluster_atoms(vals, weights, cluster_tol), cluster_tol)


def _real_trace(value, scale, what):
    if abs(value.imag) > 1e-8 * scale:
        raise MomentImagError(
            f"{what} has imaginary part {value.imag:.3e} (scale {scale:g})"
        )
    return float(value.real)


def moments_via_T(h, p, r, cap=DEFAULT_CAP):
    """c_p^r as Tr(T_p^r), with T_p from the magic grid."""
    n = h.n
    if r == 0:
        return float(n**p)
    t = magic_mod.truncation_tensor(magic_mod.magic_grid(h), p, cap=cap)
    acc = t
    for _ in range(r - 1):
        acc = acc @ t
    return _real_trace(np.trace(acc), n**p, f"Tr(T_{p}^{r})")


def moments_via_X(h, p, r, cap=DEFAULT_CAP):
    """c_p^r as (1/N^r) Tr(X^p), with X the depth-r Gram matrix."""
    n = h.n
    if r == 0:
        return float(n**p)
    x = gram_matrix(h, r, cap=cap)
    acc = x
    for _ in range(p - 1):
        acc = acc @ x
    return _real_trace(np.trace(acc) / n**r, n**p, f"tr(X_{r}^{p})")


@dataclass(frozen=True)
class MomentTable:
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


def moment_table(h, p_max, r_max, cap=DEFAULT_CAP):
    """Fill the (p, r) moment grid through the Gram-matrix route.

    For each depth r the Hermitian spectrum of X is computed once and powers
    of the eigenvalues give every p at that depth.
    """
    if p_max < 1 or r_max < 0:
        raise ValueError("p_max must be >= 1 and r_max >= 0")
    n = h.n
    c = np.empty((p_max, r_max + 1))
    c[:, 0] = [float(n**p) for p in range(1, p_max + 1)]
    powers = np.arange(1, p_max + 1)[:, None]
    for r in range(1, r_max + 1):
        vals = _gram_spectrum(h, r, cap=cap)
        c[:, r] = (vals[None, :] ** powers).sum(axis=1) / n**r
    gamma = c / np.array([float(n**p) for p in range(1, p_max + 1)])[:, None]
    return MomentTable(n, p_max, r_max, c, gamma)


@dataclass(frozen=True)
class CesaroSequence:
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
    """Cesaro averages s_k = (1/k) sum_{r<=k} sum_lambda lambda^r, k = 1..k_max.

    One running power of the spectrum is kept, so memory is O(N^p + k_max)
    for any k_max.
    """
    power_sums = np.empty(k_max)
    power = lam.copy()
    for r in range(k_max):
        power_sums[r] = power.sum()
        power *= lam
    averages = np.cumsum(power_sums) / np.arange(1, k_max + 1)
    increment = float(abs(averages[-1] - averages[-2])) if k_max > 1 else float("nan")
    return CesaroSequence(p, averages, increment)


def cesaro_moments(h, p, k_max, cap=DEFAULT_CAP):
    """Cesaro averages of the depth-r moments c_p^r for r = 1..k_max.

    c_p^r = Tr(T_p^r) = sum_lambda lambda^r over the spectrum of T_p, which is
    that of X_p(H^*) / N; one Hermitian eigensolve of size N^p serves every
    depth, so deep truncations cost O(N^p) each.  No convergence claim is made
    here; the last increment is reported as a diagnostic only.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _cesaro_sequence(_truncation_spectrum(h, p, cap=cap), p, k_max)


@dataclass(frozen=True)
class HaarMomentEstimate:
    estimate: float
    rounded: int
    converged: bool
    gap: float

    def to_dict(self):
        return {"estimate": self.estimate, "rounded": self.rounded,
                "converged": self.converged, "gap": self.gap}


def haar_moment_estimate(h, p, k_max=32, tol=1e-8, cap=DEFAULT_CAP):
    """Exact p-th Haar moment plus its Cesaro estimate.

    T_p is PSD with spectrum in [0, 1], so the Cesaro limit of Tr(T_p^r) is
    the multiplicity of the eigenvalue 1: `rounded` counts the eigenvalues
    within tol of 1.  `estimate` is the Cesaro average s_{k_max}, and
    `converged` is set when the last two averages agree within tol and the
    estimate sits within tol of `rounded`.  `gap` is 1 minus the largest
    eigenvalue below 1 - tol (1.0 when there is none); it bounds the distance
    of s_k from the limit by N^p (1 - gap) / (k gap).
    """
    lam = _truncation_spectrum(h, p, cap=cap)
    seq = _cesaro_sequence(lam, p, max(k_max, 2))
    estimate = float(seq.partial_averages[-1])
    rounded = int((np.abs(lam - 1.0) <= tol).sum())
    converged = seq.last_increment < tol and abs(estimate - rounded) < tol
    gap = 1.0 - float(np.max(lam[lam < 1.0 - tol], initial=0.0))
    return HaarMomentEstimate(estimate, rounded, converged, gap)
