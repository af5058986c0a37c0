"""Shared exception types, and the bounds they enforce: the dense size cap
and the pass tolerance of the duality checks."""

DEFAULT_CAP = 4096
PASS_TOL = 1e-8


def check_cap(dim, cap):
    if dim > cap:
        raise CapExceededError(dim, cap)


class SpecSyntaxError(ValueError):
    """Malformed matrix spec string.  Carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class HadamardValidationError(ValueError):
    """A matrix failed the unimodularity / row-orthogonality checks."""


class MagicGridError(ValueError):
    """A projection grid violated the magic-matrix invariants beyond tolerance."""


class CapExceededError(RuntimeError):
    """A requested dense object would exceed the configured size cap."""

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
