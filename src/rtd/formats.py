"""On-disk formats: dense tensors and reshuffle-operator specs.

Tensors use a three-line text header followed by a little-endian float64
payload in canonical row-major order:

    rtd-tensor v1
    shape K I1 ... IK
    dtype f64

Operator files persist (m, n, dst_shape, seed) tuples, never raw
permutations, one operator per line:

    rtd-ops v1
    identity m n I1 ... IK
    seeded m n seed I1 ... IK
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedHeader
from .reshuffle import reshuffle_from_seed, reshuffle_identity

TENSOR_MAGIC = "rtd-tensor v1"
OPS_MAGIC = "rtd-ops v1"


def write_tensor(X, path):
    X = np.ascontiguousarray(X, dtype=np.float64)
    header = f"{TENSOR_MAGIC}\nshape {X.ndim} {' '.join(str(e) for e in X.shape)}\ndtype f64\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(X.astype("<f8", copy=False).tobytes())


def _split_header_lines(data, count):
    lines = []
    pos = 0
    for _ in range(count):
        end = data.find(b"\n", pos)
        if end < 0:
            raise MalformedHeader("truncated header")
        lines.append(data[pos:end].decode("ascii", errors="replace"))
        pos = end + 1
    return lines, pos


def read_tensor(path):
    with open(path, "rb") as fh:
        data = fh.read()
    lines, offset = _split_header_lines(data, 3)
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
    count = math.prod(shape)
    payload = data[offset:]
    if len(payload) != count * 8:
        raise MalformedHeader(f"payload is {len(payload)} bytes, expected {count * 8}")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)


@dataclass(frozen=True)
class OpSpec:
    """Constructible description of one reshuffle: kind + dims + optional seed."""

    kind: str
    m: int
    n: int
    dst_shape: tuple
    seed: int = None

    def __post_init__(self):
        if self.kind not in ("identity", "seeded"):
            raise MalformedHeader(f"unknown operator kind {self.kind!r}")
        if self.kind == "seeded" and self.seed is None:
            raise MalformedHeader("seeded operator needs a seed")
        object.__setattr__(self, "dst_shape", tuple(int(e) for e in self.dst_shape))

    def build(self):
        if self.kind == "identity":
            return reshuffle_identity(self.m, self.n, self.dst_shape)
        return reshuffle_from_seed(self.m, self.n, self.dst_shape, self.seed)


def write_ops(specs, path):
    lines = [OPS_MAGIC]
    for s in specs:
        shape = " ".join(str(e) for e in s.dst_shape)
        if s.kind == "identity":
            lines.append(f"identity {s.m} {s.n} {shape}")
        else:
            lines.append(f"seeded {s.m} {s.n} {s.seed} {shape}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ops(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != OPS_MAGIC:
        raise MalformedHeader(f"bad magic line in {path}")
    specs = []
    for ln in lines[1:]:
        fields = ln.split()
        try:
            if fields[0] == "identity":
                specs.append(OpSpec("identity", int(fields[1]), int(fields[2]),
                                    tuple(int(v) for v in fields[3:])))
            elif fields[0] == "seeded":
                specs.append(OpSpec("seeded", int(fields[1]), int(fields[2]),
                                    tuple(int(v) for v in fields[4:]), seed=int(fields[3])))
            else:
                raise MalformedHeader(f"unknown operator kind {fields[0]!r}")
        except (IndexError, ValueError):
            raise MalformedHeader(f"malformed operator line {ln!r}") from None
        if not specs[-1].dst_shape:
            raise MalformedHeader(f"operator line missing tensor shape: {ln!r}")
    if not specs:
        raise MalformedHeader(f"no operators listed in {path}")
    return specs
