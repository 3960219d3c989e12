"""Exception types raised across the library, and the input rules that raise
them: integers (``check_ints``), counts (``check_count``) and finite positive
numbers (``check_positive``).  Each rule takes the class its caller raises."""

import math
import numbers
import operator


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


def check_ints(values, error, name):
    """``values`` as a tuple of Python ints, or ``error`` unless each is an
    integer.  The rule is ``operator.index``: NumPy integers pass, and a
    float is refused rather than truncated."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise error(f"{name} must be integers, got {values!r}") from None


def check_count(value, error, name, low=1):
    """``value`` as a Python int, or ``error`` unless it is an integer (the
    rule of ``check_ints``) of at least ``low``."""
    (value,) = check_ints((value,), error, name)
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return value


def check_positive(value, error, name):
    """``value`` as a Python float, or ``error`` unless it is a real number
    (NumPy's included, strings not), finite and > 0."""
    if isinstance(value, numbers.Real) and 0.0 < value < math.inf:
        return float(value)
    raise error(f"{name} must be finite and positive, got {value!r}")
