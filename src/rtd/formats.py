"""On-disk formats: dense tensors, reshuffle operators, and the text framing
shared by every text file and CSV that rtd writes.

Tensors use a three-line text header followed by a little-endian float64
payload in canonical row-major order:

    rtd-tensor v1
    shape K I1 ... IK
    dtype f64

Operator files hold the fields (m, n, dst_shape, seed) of each
ReshuffleOp, never raw permutations, one operator per line:

    rtd-ops v1
    identity m n I1 ... IK
    seeded m n seed I1 ... IK

``read_ops`` returns ReshuffleOps and ``write_ops`` writes them.  Reading
checks every line's element counts and seed range and builds no
permutation: an operator builds its own on first use.

Text files (operator files, stego keys) are a magic line followed by one
record per line: ``lines_text`` ends every line with a newline, and
``read_lines`` strips lines and skips blank ones.  ``csv_text`` renders
every CSV rtd writes with one number format: booleans as 0/1, floats as
their repr, so they read back bit for bit, and anything else as str.
``write_text`` writes every text file rtd writes, the CLI's CSVs and
manifests included.

No input file is read past HEADER_MAX bytes before it is checked:
``read_header`` matches a binary header (tensors here, images in netpbm)
within that bound, and ``read_lines`` refuses a longer text file, or one
with a field longer than FIELD_MAX characters.
"""

import math
import os
import re

import numpy as np

from .errors import MalformedHeader
from .reshuffle import ReshuffleOp

TENSOR_MAGIC = "rtd-tensor v1"
OPS_MAGIC = "rtd-ops v1"
# Most bytes of any input file read before it is checked: the header of a
# tensor or image, or the whole of an operator or key file.  A shape line or
# an operator line with NumPy's 64 extents, each below 2**63, takes under
# 1.3 KB.
HEADER_MAX = 64 << 10
# Most characters of one whitespace-separated field of an operator or key
# file: the longest a valid file holds is a 24-character float repr, and a
# seed or extent has at most 20 digits.  So no later message quotes more.
FIELD_MAX = 32
# A number field has at most 20 digits: no more are needed below 2**64, and
# int() refuses strings of over 4300 digits with a ValueError.
_TENSOR_HEADER = re.compile(TENSOR_MAGIC.encode() + rb"\nshape (\d{1,20})((?: \d{1,20})*)\ndtype f64\n")


def write_tensor(X, path):
    X = np.ascontiguousarray(X, dtype=np.float64)
    header = f"{TENSOR_MAGIC}\nshape {X.ndim} {' '.join(str(e) for e in X.shape)}\ndtype f64\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(X.astype("<f8", copy=False).tobytes())


def read_header(fh, pattern, error):
    """The match of the compiled bytes ``pattern`` at the start of the open
    binary file ``fh``, within its first HEADER_MAX bytes, with ``fh`` left
    just past it.  No match raises ``error``, the reading format's own
    RtdError, with a message that quotes none of the file."""
    match = pattern.match(fh.read(HEADER_MAX))
    if match is None:
        raise error(f"{fh.name}: no valid header within its first {HEADER_MAX} bytes")
    fh.seek(match.end())
    return match


def read_tensor(path):
    """The tensor in the regular file at ``path``.  The three header lines
    must match the format exactly, with a shape of ndim >= 1 positive
    extents; they are checked, and the payload's size against the shape,
    before the payload is read.  Any mismatch raises MalformedHeader.  A
    pipe fails to seek (OSError)."""
    with open(path, "rb") as fh:
        match = read_header(fh, _TENSOR_HEADER, MalformedHeader)
        ndim, shape = int(match[1]), tuple(int(v) for v in match[2].split())
        if len(shape) != ndim or ndim < 1 or any(e < 1 for e in shape):
            raise MalformedHeader(f"inconsistent shape: ndim {ndim}, {len(shape)} extents, "
                                  f"least extent {min(shape, default=None)}")
        return read_payload(fh, math.prod(shape), np.dtype("<f8")).reshape(shape)


def read_payload(fh, count, dtype):
    """The ``count`` samples of NumPy dtype ``dtype`` that fill the rest of
    the regular file ``fh``, as float64.  The remaining size (from
    ``os.fstat``) is checked before anything is read, and the bytes read
    after: any other size raises MalformedHeader.  The samples are read
    into their own array, so a float64 payload is held once."""
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != count * dtype.itemsize:
        raise MalformedHeader(f"payload is {size} bytes, expected {count * dtype.itemsize}")
    samples = np.empty(count, dtype)
    if fh.readinto(samples) != size:
        raise MalformedHeader(f"payload ended before its {size} bytes")
    return samples.astype(np.float64, copy=False)


def lines_text(lines):
    """``lines`` as text, each ended by a newline."""
    return "\n".join(lines) + "\n"


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_text(header, rows):
    """CSV text: the header line, then one line per row of values."""
    return lines_text([header, *(",".join(_cell(v) for v in row) for row in rows)])


def write_text(path, text):
    """Write the string ``text`` as the text file at ``path``."""
    with open(path, "w") as fh:
        fh.write(text)


def read_lines(path, magic, error):
    """The stripped, nonblank lines of text file ``path`` after its magic line.

    A file larger than HEADER_MAX bytes, one that is not UTF-8 text, one
    whose first nonblank line is not ``magic``, or one with a field longer
    than FIELD_MAX characters raises ``error``, the reading format's own
    RtdError; a larger file is refused unread past that bound.  No message
    quotes more than 80 characters of the file.
    """
    with open(path, "rb") as fh:
        data = fh.read(HEADER_MAX + 1)
    if len(data) > HEADER_MAX:
        raise error(f"{path} is larger than {HEADER_MAX} bytes")
    try:
        lines = [ln.strip() for ln in data.decode().splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not text: {exc}") from None
    if not lines or lines[0] != magic:
        raise error(f"bad magic line in {path}: expected {magic!r}, got {str(lines[:1])[:80]}")
    long = [field for ln in lines for field in ln.split() if len(field) > FIELD_MAX]
    if long:
        raise error(f"{path}: a field over {FIELD_MAX} characters: {repr(long[0])[:80]}")
    return lines[1:]


def write_ops(ops, path):
    lines = [OPS_MAGIC]
    for op in ops:
        shape = " ".join(str(e) for e in op.dst_shape)
        if op.seed is None:
            lines.append(f"identity {op.m} {op.n} {shape}")
        else:
            lines.append(f"seeded {op.m} {op.n} {op.seed} {shape}")
    write_text(path, lines_text(lines))


def read_ops(path):
    ops = []
    for ln in read_lines(path, OPS_MAGIC, MalformedHeader):
        kind, *fields = ln.split()
        if kind not in ("identity", "seeded"):
            raise MalformedHeader(f"unknown operator kind {kind!r}")
        seeded = kind == "seeded"
        try:
            m, n = int(fields[0]), int(fields[1])
            seed = int(fields[2]) if seeded else None
            shape = tuple(int(v) for v in fields[2 + seeded:])
        except (IndexError, ValueError):
            raise MalformedHeader(f"malformed operator line {ln[:80]!r}") from None
        if not shape:
            raise MalformedHeader(f"operator line missing tensor shape: {ln[:80]!r}")
        ops.append(ReshuffleOp(m, n, shape, seed))
    if not ops:
        raise MalformedHeader(f"no operators listed in {path}")
    return ops
