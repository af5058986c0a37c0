"""Complex Hadamard matrices: constructors, transforms, validation, serialization.

A complex Hadamard matrix is a square matrix with unimodular entries and
pairwise-orthogonal rows.  Everything here is double precision; the validation
tolerances, UNIMODULARITY_TOL and ORTHOGONALITY_TOL of `hadtrunc.errors`, are
fixed, and deliberately loose enough to absorb roundoff growth with the matrix
size.  Every construction, file load and command line verdict uses them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ORTHOGONALITY_TOL, UNIMODULARITY_TOL, HadamardValidationError
from .errors import SEED_LIMIT as _SEED_LIMIT

_PHASE_TOL = 1e-12  # largest ||z| - 1| of a phase parameter, or of an entry dephased to find one

_MASK64 = _SEED_LIMIT - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(seed, count):
    """First `count` outputs of the SplitMix64 generator, as Python ints."""
    state = int(seed) & _MASK64
    out = []
    for _ in range(count):
        state = (state + _SM64_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out.append(z)
    return out


def seeded_phase_matrix(m, n, seed):
    """M x N unimodular phase matrix from a seed.

    Each 64-bit word u maps to the angle 2*pi*u/2^64; entries are filled
    row-major, so the result is bit-reproducible for a given seed.  The seed
    is an integer in [0, 2^64), so that no two seeds give the same matrix.
    """
    integer = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (integer and 0 <= seed < _SEED_LIMIT):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    words = splitmix64(seed, m * n)
    angles = 2.0 * np.pi * np.array([u / 2.0**64 for u in words])
    return np.exp(1j * angles).reshape(m, n)


def _check_phase_matrix(q):
    q = np.ascontiguousarray(q, dtype=complex)
    if q.ndim != 2:
        raise ValueError("phase parameter matrix must be two-dimensional")
    dev = np.abs(np.abs(q) - 1.0).max()
    if not dev <= _PHASE_TOL:  # also rejects NaN
        raise ValueError(f"phase parameter matrix is not unimodular (deviation {dev:.3e})")
    return q


class ValidationReport(NamedTuple):
    n: int
    unimodularity_dev: float
    orthogonality_dev: float
    passed: bool
    unimodularity_tol: float
    orthogonality_tol: float

    def to_dict(self):
        return {
            "n": self.n,
            "unimodularity_dev": self.unimodularity_dev,
            "orthogonality_dev": self.orthogonality_dev,
            "unimodularity_tol": self.unimodularity_tol,
            "orthogonality_tol": self.orthogonality_tol,
            "passed": self.passed,
        }


def validate(matrix):
    """Check unimodularity and row orthogonality of a square complex matrix.

    The tolerances are fixed: UNIMODULARITY_TOL for max ||h_ij| - 1|, and
    ORTHOGONALITY_TOL times N for max |(H H^*)_ij - N delta_ij| (off-diagonal
    Gram entries of an exact Hadamard matrix vanish; diagonal ones equal N).
    The report carries both deviations, so another threshold can be applied
    to them by the caller.
    """
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    uni_dev = float(np.abs(np.abs(arr) - 1.0).max())
    gram = arr @ arr.conj().T
    orth_dev = float(np.abs(gram - n * np.eye(n)).max())
    passed = uni_dev <= UNIMODULARITY_TOL and orth_dev <= ORTHOGONALITY_TOL * n
    return ValidationReport(n, uni_dev, orth_dev, passed, UNIMODULARITY_TOL, ORTHOGONALITY_TOL * n)


@dataclass(frozen=True)
class HadamardMatrix:
    """Validated N x N Hadamard matrix plus a record of how it was built."""

    array: np.ndarray
    provenance: str = "unknown"

    @property
    def n(self):
        return self.array.shape[0]

    def __post_init__(self):
        self.array.setflags(write=False)


def hadamard(matrix, provenance="unknown", check=True):
    """Wrap a copy of a raw array as a HadamardMatrix, validating unless told
    otherwise; the copy is made read-only, the caller's array is left as it was."""
    arr = np.array(matrix, dtype=complex, order="C")
    if check:
        report = validate(arr)
        if not report.passed:
            raise HadamardValidationError(
                f"matrix is not Hadamard: unimodularity dev {report.unimodularity_dev:.3e}, "
                f"orthogonality dev {report.orthogonality_dev:.3e}"
            )
    return HadamardMatrix(arr, provenance)


def fourier(n):
    """Fourier matrix F_N = (w^{ij}) with w = exp(2*pi*i/N), the exponent
    reduced mod N so that the entries do not lose precision as N grows."""
    if n < 1:
        raise ValueError("Fourier order must be >= 1")
    idx = np.arange(n)
    arr = np.exp(2j * np.pi * (np.outer(idx, idx) % n) / n)
    return HadamardMatrix(arr, f"fourier:{n}")


def tensor(h, k):
    """Kronecker product, pair index (i,a) -> i*N_K + a on rows and columns."""
    arr = np.kron(h.array, k.array)
    return HadamardMatrix(
        np.ascontiguousarray(arr), f"tensor({h.provenance},{k.provenance})"
    )


def fourier_group(orders):
    """F_{N_1} (x) ... (x) F_{N_k}, the Fourier matrix of the product group."""
    orders = list(orders)
    if not orders:
        raise ValueError("fourier_group needs at least one order")
    out = fourier(orders[0])
    for n in orders[1:]:
        out = tensor(out, fourier(n))
    prov = "fouriergroup:" + "x".join(str(n) for n in orders)
    return HadamardMatrix(out.array, prov)


def dita(m, n, q, provenance=None):
    """Deformed Fourier matrix with entries Q_{ib} (F_M)_{ij} (F_N)_{ab}.

    Rows are indexed by (i,a) -> i*N + a and columns by (j,b) -> j*N + b.
    With Q identically 1 this is exactly tensor(fourier(M), fourier(N)).
    """
    q = _check_phase_matrix(q)
    if q.shape != (m, n):
        raise ValueError(f"phase parameter matrix has shape {q.shape}, expected {(m, n)}")
    fm = fourier(m).array
    fn = fourier(n).array
    arr = np.einsum("ib,ij,ab->iajb", q, fm, fn).reshape(m * n, m * n)
    if provenance is None:
        provenance = f"dita({m},{n};explicit)"
    return HadamardMatrix(np.ascontiguousarray(arr), provenance)


def conjugate(h):
    return HadamardMatrix(
        np.ascontiguousarray(h.array.conj()), f"conj({h.provenance})"
    )


def transpose(h):
    return HadamardMatrix(
        np.ascontiguousarray(h.array.T), f"transpose({h.provenance})"
    )


def adjoint(h):
    return HadamardMatrix(
        np.ascontiguousarray(h.array.conj().T), f"adjoint({h.provenance})"
    )


def _dephased(arr):
    """A new array: column j of arr divided by arr[0, j], then row i by the
    resulting (i, 0) entry, so the first row and column are 1 up to rounding."""
    out = arr / arr[0]
    out /= out[:, :1]
    return out


def dephase(h):
    """Equivalent matrix with first row and first column all equal to 1
    (`_dephased`).  Idempotent, and absorbs any row/column phase
    multiplications of the input.
    """
    return HadamardMatrix(np.ascontiguousarray(_dephased(h.array)), f"dephase({h.provenance})")


# -- JSON serialization -------------------------------------------------------

def matrix_to_dict(h):
    arr = h.array if isinstance(h, HadamardMatrix) else np.asarray(h, dtype=complex)
    return {
        "n": arr.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in arr],
    }


def _positive_int(data, key):
    value = data[key]
    if type(value) is not int or value < 1:  # a bool is no count
        raise ValueError(f"'{key}' must be a positive integer")
    return value


def _json_numbers(value, shape, what):
    """value, nested lists of JSON numbers of this shape, as a float array;
    a string, a bool or any other member that is no number is a ValueError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, or a member that is no number
        raise ValueError(f"{what} is not an array of numbers: {exc}") from None
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    members = value
    for _ in shape[1:]:
        members = [x for row in members for x in row]
    if not all(type(x) in (int, float) for x in members):  # np.asarray reads "1" and true
        raise ValueError(f"{what} has a member that is no number")
    return arr


def matrix_from_dict(data):
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ValueError("matrix JSON must be an object with 'n' and 'entries'")
    n = _positive_int(data, "n")
    pairs = _json_numbers(data["entries"], (n, n, 2), "'entries' (n x n [re, im] pairs)")
    if not np.isfinite(pairs).all():
        raise ValueError("matrix contains non-finite entries")
    return pairs.view(complex)[..., 0]


def save_matrix(h, path):
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(h), fh)


def load_matrix(path, check=True):
    with open(path) as fh:
        data = json.load(fh)
    return hadamard(matrix_from_dict(data), provenance=f"file={path}", check=check)


def load_phase_matrix(path):
    """Read an M x N angle matrix {"m", "n", "angles"} (radians) from JSON."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not {"m", "n", "angles"} <= set(data):
        raise ValueError("phase matrix JSON must be an object with 'm', 'n', 'angles'")
    shape = _positive_int(data, "m"), _positive_int(data, "n")
    theta = _json_numbers(data["angles"], shape, "angle array")
    if not np.isfinite(theta).all():
        raise ValueError("angle array has non-finite entries")
    return np.exp(1j * theta)
