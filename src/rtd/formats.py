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
record per line: ``write_lines`` ends every line with a newline, and
``read_lines`` strips lines and skips blank ones.  ``csv_text`` renders
every CSV rtd writes with one number format: booleans as 0/1, floats as
their repr, so they read back bit for bit, and anything else as str.
"""

import math
import os

import numpy as np

from .errors import MalformedHeader
from .reshuffle import ReshuffleOp

TENSOR_MAGIC = "rtd-tensor v1"
# Longest tensor header line read: a shape line for NumPy's 64 dimensions,
# each below 2**63, takes under 1.3 KB.
HEADER_LINE_MAX = 4096
OPS_MAGIC = "rtd-ops v1"


def write_tensor(X, path):
    X = np.ascontiguousarray(X, dtype=np.float64)
    header = f"{TENSOR_MAGIC}\nshape {X.ndim} {' '.join(str(e) for e in X.shape)}\ndtype f64\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(X.astype("<f8", copy=False).tobytes())


def read_tensor(path):
    """The tensor in the regular file at ``path``.  The three header lines
    are checked, and the payload's size (from ``os.fstat``) against the
    shape, before the payload is read; any mismatch raises MalformedHeader.
    A pipe has no size to check and fails to seek (OSError)."""
    with open(path, "rb") as fh:
        lines = [fh.readline(HEADER_LINE_MAX) for _ in range(3)]
        if not all(ln.endswith(b"\n") for ln in lines):
            raise MalformedHeader("truncated or overlong header")
        lines = [ln[:-1].decode("ascii", errors="replace") for ln in lines]
        if lines[0] != TENSOR_MAGIC:
            raise MalformedHeader(f"bad magic line {lines[0]!r}")
        fields = lines[1].split()
        if len(fields) < 2 or fields[0] != "shape":
            raise MalformedHeader(f"bad shape line {lines[1]!r}")
        try:
            ndim = int(fields[1])
            shape = tuple(int(v) for v in fields[2:])
        except ValueError:
            raise MalformedHeader(f"non-numeric shape line {lines[1]!r}") from None
        if len(shape) != ndim or ndim < 1 or any(e < 1 for e in shape):
            raise MalformedHeader(f"inconsistent shape line {lines[1]!r}")
        if lines[2] != "dtype f64":
            raise MalformedHeader(f"unsupported dtype line {lines[2]!r}")
        return read_payload(fh, math.prod(shape), np.dtype("<f8")).reshape(shape)


def read_payload(fh, count, dtype):
    """The ``count`` samples of NumPy dtype ``dtype`` that fill the rest of
    the regular file ``fh``, as float64.  The remaining size (from
    ``os.fstat``) is checked before anything is read: any other size raises
    MalformedHeader."""
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != count * dtype.itemsize:
        raise MalformedHeader(f"payload is {size} bytes, expected {count * dtype.itemsize}")
    return np.frombuffer(fh.read(), dtype=dtype).astype(np.float64)


def _text(lines):
    return "\n".join(lines) + "\n"


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_text(header, rows):
    """CSV text: the header line, then one line per row of values."""
    return _text([header, *(",".join(_cell(v) for v in row) for row in rows)])


def write_lines(path, lines):
    """Write ``lines`` as a text file, each ended by a newline."""
    with open(path, "w") as fh:
        fh.write(_text(lines))


def read_lines(path, magic, error):
    """The stripped, nonblank lines of text file ``path`` after its magic line.

    A file that is not UTF-8 text, or whose first nonblank line is not
    ``magic``, raises ``error``, the reading format's own RtdError.
    """
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not text: {exc}") from None
    if not lines or lines[0] != magic:
        raise error(f"bad magic line in {path}: expected {magic!r}, got {lines[:1]}")
    return lines[1:]


def write_ops(ops, path):
    lines = [OPS_MAGIC]
    for op in ops:
        shape = " ".join(str(e) for e in op.dst_shape)
        if op.seed is None:
            lines.append(f"identity {op.m} {op.n} {shape}")
        else:
            lines.append(f"seeded {op.m} {op.n} {op.seed} {shape}")
    write_lines(path, lines)


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
            raise MalformedHeader(f"malformed operator line {ln!r}") from None
        if not shape:
            raise MalformedHeader(f"operator line missing tensor shape: {ln!r}")
        ops.append(ReshuffleOp(m, n, shape, seed))
    if not ops:
        raise MalformedHeader(f"no operators listed in {path}")
    return ops
