"""Exception types raised across the library."""


class RtdError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(RtdError):
    """Operands have inconsistent shapes or element counts."""


class NonFinite(RtdError):
    """Input contains NaN or Inf."""


class BadRank(RtdError):
    """Requested rank is outside the valid range."""


class DivergenceDetected(RtdError):
    """Solver residual blew up past the divergence guard."""


class AllZeroSignal(RtdError):
    """A reference signal with zero energy makes the requested ratio undefined."""


class BadIndex(RtdError):
    """Component index or seed out of range."""


class DegenerateRank(RtdError):
    """Matrix is identically zero, so no tangent basis exists."""


class DimMismatch(RtdError):
    """Image dimensions are incompatible."""


class StrengthOutOfRange(RtdError):
    """Embedding strength must be finite and positive."""


class KeyMismatch(RtdError):
    """Stego key does not match the container (dims, mode, or version)."""


class MalformedHeader(RtdError):
    """File header does not parse as the declared format."""


class UnsupportedMaxval(RtdError):
    """Netpbm maxval other than 255 or 65535."""
