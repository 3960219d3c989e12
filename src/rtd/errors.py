"""Exception types raised across the library, and the input rules that raise
them: integers (``check_ints``), counts (``check_count``) and finite positive
numbers (``check_positive``).  Each rule takes the class its caller raises.
``quoted`` keeps a value a message quotes short."""

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


# A message quotes a value in full up to this many characters.
QUOTE_MAX = 60


def quoted(value):
    """``value`` as an error message quotes it: its repr up to QUOTE_MAX
    characters.  Past that a tuple is given by its length, an
    integer of more than 3 * QUOTE_MAX bits by its count of bits (its digits
    are never built: past ``sys.get_int_max_str_digits`` Python refuses
    them), and anything else is cut."""
    if isinstance(value, int) and value.bit_length() > 3 * QUOTE_MAX:
        return f"an integer of {value.bit_length()} bits"
    if not isinstance(value, tuple):
        text = repr(value)
        return text if len(text) <= QUOTE_MAX else f"{text[:QUOTE_MAX]}..."
    entries = ", ".join(map(quoted, value[:QUOTE_MAX]))
    text = f"({entries},)" if len(value) == 1 else f"({entries})"
    if len(value) <= QUOTE_MAX and len(text) <= QUOTE_MAX:
        return text
    return f"a tuple of length {len(value)}"


def check_ints(values, error, name):
    """``values`` as a tuple of Python ints, or ``error`` unless each is an
    integer.  The rule is ``operator.index``: NumPy integers pass, and a
    float is refused rather than truncated."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise error(f"{name} must be integers, got {quoted(values)}") from None


def check_count(value, error, name, low=1):
    """``value`` as a Python int, or ``error`` unless it is an integer (the
    rule of ``check_ints``) of at least ``low``."""
    (value,) = check_ints((value,), error, name)
    if value < low:
        raise error(f"{name} must be >= {low}, got {quoted(value)}")
    return value


def check_positive(value, error, name):
    """``value`` as a Python float, or ``error`` unless it is a real number
    (NumPy's included, strings not), finite and > 0."""
    if isinstance(value, numbers.Real) and 0.0 < value < math.inf:
        return float(value)
    raise error(f"{name} must be finite and positive, got {value!r}")
