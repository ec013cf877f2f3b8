"""Exception types raised across the package."""


class DipolePairError(Exception):
    """Base class for all library errors."""


class NotHermitian(DipolePairError):
    """Matrix fails the Hermiticity tolerance."""


class NotPSD(DipolePairError):
    """Matrix has an eigenvalue below the PSD floor."""


class NoNullSpace(DipolePairError):
    """Smallest singular value is not small enough to count as a kernel."""


class InvalidGeometry(DipolePairError):
    """Distance not finite and > 0, or nonpositive quality factor or photon number."""


class NotNormalized(DipolePairError):
    """State vector norm differs from one beyond tolerance."""


class InvalidState(DipolePairError):
    """Density-matrix invariants (Hermitian, unit trace, PSD) violated."""


class OutOfRange(DipolePairError, ValueError):
    """Scalar argument outside its documented domain (also a ValueError)."""


class InvalidRegime(DipolePairError):
    """Result requested outside its regime of validity (closed form or solve)."""
