import numpy as np
import pytest

from rtd.errors import MalformedHeader
from rtd.formats import (
    OPS_MAGIC,
    TENSOR_MAGIC,
    OpSpec,
    read_ops,
    read_tensor,
    write_ops,
    write_tensor,
)
from rtd.reshuffle import reshuffle_from_seed, reshuffle_identity
from rtd.rng import gaussians


def test_tensor_roundtrip_bitexact(tmp_path):
    X = gaussians(24, 3).reshape(2, 3, 4)
    path = tmp_path / "x.rtd"
    write_tensor(X, path)
    back = read_tensor(path)
    assert back.shape == (2, 3, 4)
    assert np.array_equal(back, X)
    # header is exactly three text lines before the payload
    blob = path.read_bytes()
    assert blob.startswith(b"rtd-tensor v1\nshape 3 2 3 4\ndtype f64\n")
    assert len(blob) == len(b"rtd-tensor v1\nshape 3 2 3 4\ndtype f64\n") + 24 * 8


def test_tensor_roundtrip_1d(tmp_path):
    X = np.array([1.5, -2.25, 0.0])
    path = tmp_path / "v.rtd"
    write_tensor(X, path)
    assert np.array_equal(read_tensor(path), X)


def test_tensor_malformed(tmp_path):
    cases = {
        "magic": b"rtd-tensor v2\nshape 1 2\ndtype f64\n" + b"\x00" * 16,
        "shape": b"rtd-tensor v1\nshape 2 2\ndtype f64\n" + b"\x00" * 16,
        "alpha": b"rtd-tensor v1\nshape 1 x\ndtype f64\n" + b"\x00" * 16,
        "dtype": b"rtd-tensor v1\nshape 1 2\ndtype f32\n" + b"\x00" * 16,
        "short": b"rtd-tensor v1\nshape 1 2\ndtype f64\n" + b"\x00" * 8,
        "trunc": b"rtd-tensor v1\nshape 1 2",
        "zero": b"rtd-tensor v1\nshape 1 0\ndtype f64\n",
    }
    for name, blob in cases.items():
        path = tmp_path / f"{name}.rtd"
        path.write_bytes(blob)
        with pytest.raises(MalformedHeader):
            read_tensor(path)


def test_read_tensor_overflowing_shape_is_malformed(tmp_path):
    # 2 * 2**32 * 2**32 wraps to 0 in int64; the count must not, or the
    # empty payload would pass the length check.
    path = tmp_path / "huge.rtd"
    path.write_bytes(f"{TENSOR_MAGIC}\nshape 2 4294967296 4294967296\ndtype f64\n".encode())
    with pytest.raises(MalformedHeader):
        read_tensor(path)


def test_ops_roundtrip(tmp_path):
    specs = [
        OpSpec("identity", 4, 6, (2, 12)),
        OpSpec("seeded", 4, 6, (24,), seed=99),
    ]
    path = tmp_path / "ops.txt"
    write_ops(specs, path)
    assert path.read_text() == (
        "rtd-ops v1\nidentity 4 6 2 12\nseeded 4 6 99 24\n"
    )
    back = read_ops(path)
    assert back == specs


def test_opspec_build_matches_constructors():
    ident = OpSpec("identity", 3, 4, (12,)).build()
    assert np.array_equal(ident.perm, reshuffle_identity(3, 4, (12,)).perm)
    seeded = OpSpec("seeded", 3, 4, (2, 6), seed=7).build()
    assert np.array_equal(seeded.perm, reshuffle_from_seed(3, 4, (2, 6), 7).perm)
    assert seeded.dst_shape == (2, 6)


def test_opspec_validation():
    with pytest.raises(MalformedHeader):
        OpSpec("rotate", 2, 2, (4,))
    with pytest.raises(MalformedHeader):
        OpSpec("seeded", 2, 2, (4,))


def test_read_ops_malformed(tmp_path):
    path = tmp_path / "ops.txt"
    for text in (
        "rtd-ops v2\nidentity 2 2 4\n",
        "rtd-ops v1\n",
        "rtd-ops v1\nrotate 2 2 4\n",
        "rtd-ops v1\nidentity 2 x 4\n",
        "rtd-ops v1\nseeded 2 2 7\n",
        "rtd-ops v1\nidentity 2 2\n",
    ):
        path.write_text(text)
        with pytest.raises(MalformedHeader):
            read_ops(path)
    path.write_bytes(b"rtd-ops v1\nidentity 2 2 \xff\n")
    with pytest.raises(MalformedHeader, match="not text"):
        read_ops(path)


def test_magics_exported():
    assert TENSOR_MAGIC == "rtd-tensor v1"
    assert OPS_MAGIC == "rtd-ops v1"
