"""Shared exception types, and the bounds they enforce: the dense size cap
and the pass tolerance of the duality checks."""

DEFAULT_CAP = 4096
PASS_TOL = 1e-8


def check_cap(base, exponent, cap):
    """base**exponent, the size of a dense object, once it fits the cap, else
    CapExceededError naming the power.  The product stops at the first
    factor that passes the cap, so an exponent of any size is refused in at
    most log2(cap) + 1 multiplications and the power is never formed."""
    dim = 1
    for _ in range(exponent if base > 1 else 0):
        dim *= base
        if dim > cap:
            break
    if dim > cap:
        raise CapExceededError(f"{base}^{exponent}", cap)
    return dim


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
    """A spectrum had not N^r eigenvalues, or missed sum(l) = Tr X = N^r or
    sum(l^2) = ||X||_F^2 = Tr(K^r): an eigenvalue was lost, duplicated or
    wrong, or the blocks are not X's."""


class MomentImagError(RuntimeError):
    """A moment trace came out with a non-negligible imaginary part.

    This signals an index-convention bug, not a numerical issue, so it is
    raised rather than silently discarded.
    """
