"""Shared exception types, and the bounds they enforce: the dense size cap,
the float range of a power, the seed range, and the fixed tolerances of the
Hadamard validation and of the duality checks, which no caller sets.
Nothing here needs numpy, so a request can be refused before numpy is
loaded."""

import sys

DEFAULT_CAP = 4096
PASS_TOL = 1e-8
SEED_LIMIT = 1 << 64  # phase seeds are 64-bit: 0 <= seed < SEED_LIMIT
UNIMODULARITY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-8  # multiplied by N


def _bounded_power(base, exponent, limit):
    """base**exponent if max(base, 2)**exponent, the power checked, is at most
    limit, else None.  A base below 2 counts as 2, so one rule bounds every
    exponent for every base: 1^k never grows, yet 1^k is refused wherever 2^k
    would be.  The product stops at the first factor that passes the limit,
    so an exponent of any size is decided in at most log2(limit) + 1
    multiplications and a power past the limit is never formed."""
    checked = 1
    for _ in range(exponent):
        checked *= max(base, 2)
        if checked > limit:
            return None
    return base**exponent


def check_cap(base, exponent, cap):
    """base**exponent, the size of a dense object, once max(base, 2)**exponent
    fits the cap, else CapExceededError naming that power."""
    dim = _bounded_power(base, exponent, cap)
    if dim is None:
        raise CapExceededError(f"{max(base, 2)}^{exponent}", cap)
    return dim


def float_power(base, exponent):
    """base**exponent as a float once max(base, 2)**exponent is in the float
    range, else ValueError naming that power; like `check_cap`, it never
    forms a power past the range."""
    dim = _bounded_power(base, exponent, sys.float_info.max)
    if dim is None:
        raise ValueError(f"{max(base, 2)}^{exponent} exceeds the float range")
    return float(dim)


class SpecSyntaxError(ValueError):
    """Malformed matrix spec string.  Carries the character offset of the
    failure (a `file=` path may hold non-ASCII characters)."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at character {offset})")
        self.offset = offset


class HadamardValidationError(ValueError):
    """A matrix failed the unimodularity / row-orthogonality checks."""


class MagicGridError(ValueError):
    """A projection grid violated the magic-matrix invariants beyond tolerance."""


class CapExceededError(RuntimeError):
    """A requested dense object would exceed the configured size cap.
    `requested` names its dimension as a power, such as "3^100000"."""

    def __init__(self, requested, cap):
        super().__init__(f"requested dimension {requested} exceeds size cap {cap}")
        self.requested = requested
        self.cap = cap


class EigensolverError(RuntimeError):
    """A spectrum's values and exact zeros did not number N^r, or its values
    missed sum(l) = Tr X = N^r or sum(l^2) = ||X||_F^2 = Tr(K^r): an
    eigenvalue was lost, duplicated or wrong, or the blocks are not X's."""


class MomentImagError(RuntimeError):
    """A moment trace came out with a non-negligible imaginary part.

    This signals an index-convention bug, not a numerical issue, so it is
    raised rather than silently discarded.
    """
