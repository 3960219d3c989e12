import tracemalloc

import numpy as np
import pytest

from rtd.errors import MalformedHeader, ShapeMismatch
from rtd.formats import (
    OPS_MAGIC,
    TENSOR_MAGIC,
    csv_text,
    read_ops,
    read_tensor,
    write_ops,
    write_tensor,
)
from rtd.reshuffle import ReshuffleOp
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
        "keyword": b"rtd-tensor v1\nsize 1 2\ndtype f64\n" + b"\x00" * 16,
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


def test_read_tensor_checks_the_header_before_reading_the_payload(tmp_path):
    # Sparse 64 MiB files: a bad magic line, a payload of the wrong size and
    # a header line that never ends are refused with the payload unread.
    cases = {
        "magic": b"rtd-tensor v0\nshape 1 1000\ndtype f64\n",
        "size": f"{TENSOR_MAGIC}\nshape 1 1000\ndtype f64\n".encode(),
        "endless": f"{TENSOR_MAGIC}\n".encode(),
    }
    for name, header in cases.items():
        path = tmp_path / f"{name}.rtd"
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(MalformedHeader):
                read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, name


def test_ops_roundtrip(tmp_path):
    ops = [ReshuffleOp(4, 6, (2, 12)), ReshuffleOp(4, 6, (24,), 99)]
    path = tmp_path / "ops.txt"
    write_ops(ops, path)
    assert path.read_text() == (
        "rtd-ops v1\nidentity 4 6 2 12\nseeded 4 6 99 24\n"
    )
    assert read_ops(path) == ops


def test_read_ops_malformed(tmp_path):
    path = tmp_path / "ops.txt"
    for text in (
        "rtd-ops v1\n",
        "rtd-ops v1\nrotate 2 2 4\n",
        "rtd-ops v1\nidentity 2 x 4\n",
        "rtd-ops v1\nseeded 2 2 7\n",
        "rtd-ops v1\nidentity 2 2\n",
    ):
        path.write_text(text)
        with pytest.raises(MalformedHeader):
            read_ops(path)
    for text in ("rtd-ops v2\nidentity 2 2 4\n", "", " \n\n", "identity 2 2 4\nrtd-ops v1\n"):
        path.write_text(text)
        with pytest.raises(MalformedHeader, match="bad magic line"):
            read_ops(path)
    for blob in (b"rtd-ops v1\nidentity 2 2 \xff\n", b"\xff\xfe"):
        path.write_bytes(blob)
        with pytest.raises(MalformedHeader, match="not text"):
            read_ops(path)
    # Lines are stripped and blank lines skipped, the magic line included.
    path.write_text("\n  rtd-ops v1\t\n\n identity 2 2 4 \n\n")
    assert read_ops(path) == [ReshuffleOp(2, 2, (4,))]


def test_read_ops_checks_element_counts(tmp_path):
    path = tmp_path / "ops.txt"
    path.write_text("rtd-ops v1\nseeded 2 2 7 5\n")
    with pytest.raises(ShapeMismatch, match="element counts differ"):
        read_ops(path)


def test_magics_exported():
    assert TENSOR_MAGIC == "rtd-tensor v1"
    assert OPS_MAGIC == "rtd-ops v1"


def test_csv_text_renders_every_value_kind_one_way():
    row = (
        True, np.bool_(False), 3, np.int64(-4), np.float64(0.1), 1 / 3, 2.0, float("nan"),
        "not falsified",
    )
    assert csv_text("a,b,c,d,e,f,g,h,i", [row, (False, np.float32(0.5))]) == (
        "a,b,c,d,e,f,g,h,i\n"
        "1,0,3,-4,0.1,0.3333333333333333,2.0,nan,not falsified\n"
        "0,0.5\n"
    )
    assert csv_text("only", []) == "only\n"
    # A float's repr reads back to the same bits.
    value = float(np.nextafter(0.1, 1.0))
    assert float(csv_text("v", [(value,)]).split("\n")[1]) == value
