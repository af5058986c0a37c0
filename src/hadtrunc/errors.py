"""Shared exception types."""


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
    """Eigenvalues of X missed sum(l) = Tr X or sum(l^2) = ||X||_F^2."""


class MomentImagError(RuntimeError):
    """A moment trace came out with a non-negligible imaginary part.

    This signals an index-convention bug, not a numerical issue, so it is
    raised rather than silently discarded.
    """
