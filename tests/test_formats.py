import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rtd.errors import KeyMismatch, MalformedHeader, ShapeMismatch
from rtd.formats import (
    FIELD_MAX,
    HEADER_MAX,
    OPS_MAGIC,
    TENSOR_MAGIC,
    csv_text,
    read_ops,
    read_payload,
    read_tensor,
    write_ops,
    write_tensor,
)
from rtd.reshuffle import ReshuffleOp
from rtd.rng import gaussians
from rtd.stego import FORMAT_VERSION, StegoKey, read_key, write_key


def _sparse(path, head):
    """``path`` as a sparse 64 MiB file that starts with ``head``."""
    with open(path, "wb") as fh:
        fh.write(head)
        fh.truncate(64 << 20)
    return path


def _refusal(read, path, error):
    """The tracemalloc peak of ``read(path)``, which must raise ``error``,
    and the error's message."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as exc:
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, str(exc.value)


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
        peak, message = _refusal(read_tensor, _sparse(tmp_path / f"{name}.rtd", header),
                                 MalformedHeader)
        assert peak <= 1 << 20, name
        assert len(message) < 300, name


def test_read_tensor_holds_its_payload_once(tmp_path):
    path = tmp_path / "x.rtd"
    write_tensor(np.arange(1 << 20, dtype=np.float64), path)
    tracemalloc.start()
    try:
        X = read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(X, np.arange(1 << 20, dtype=np.float64))
    assert peak <= 8.5 * (1 << 20)


def test_read_payload_refuses_a_short_read(tmp_path):
    # A file that reads shorter than its size said, as one truncated between
    # the size check and the read does.
    (tmp_path / "long").write_bytes(bytes(16))
    (tmp_path / "short").write_bytes(bytes(8))
    with open(tmp_path / "long", "rb") as long, open(tmp_path / "short", "rb") as short:
        fh = SimpleNamespace(fileno=long.fileno, tell=short.tell, readinto=short.readinto)
        with pytest.raises(MalformedHeader, match="ended"):
            read_payload(fh, 2, np.dtype("<f8"))


def test_text_files_past_the_bound_are_refused_unread(tmp_path):
    # Sparse 64 MiB operator and key files, all NUL bytes or a valid magic
    # line and then NUL bytes, are refused with the rest of the file unread.
    for read, magic, error in ((read_ops, OPS_MAGIC, MalformedHeader),
                               (read_key, FORMAT_VERSION, KeyMismatch)):
        for head in (b"", f"{magic}\n".encode()):
            peak, message = _refusal(read, _sparse(tmp_path / "big.txt", head), error)
            assert peak <= 1 << 20, (magic, head)
            assert len(message) < 300, (magic, head)
    # A file of exactly HEADER_MAX bytes is read whole; one byte more is not.
    path = tmp_path / "ops.txt"
    text = "rtd-ops v1\nidentity 2 2 4\n"
    path.write_text(text + " " * (HEADER_MAX - len(text)))
    assert read_ops(path) == [ReshuffleOp(2, 2, (4,))]
    path.write_text(text + " " * (HEADER_MAX + 1 - len(text)))
    with pytest.raises(MalformedHeader, match="larger than"):
        read_ops(path)


KEY_TEXT = f"{FORMAT_VERSION}\nseed {{seed}}\ncover 4 4\nsecret 4 4\nstrength {{strength}}\nmode {{mode}}\n"

# Files inside HEADER_MAX whose one overlong field made the error quote it
# whole: 60,037 to 60,098 characters, or 4,050 to 8,040 for a 4,000-digit
# number.
LONG_FIELD_FILES = {
    "ops kind": (read_ops, f"{OPS_MAGIC}\n{'k' * 60000} 2 2 4\n"),
    "ops field": (read_ops, f"{OPS_MAGIC}\nidentity 2 {'x' * 60000}\n"),
    "ops seed": (read_ops, f"{OPS_MAGIC}\nseeded 2 2 {'9' * 4000} 4\n"),
    "ops extent": (read_ops, f"{OPS_MAGIC}\nidentity 2 2 {'9' * 4000}\n"),
    "key seed": (read_key, KEY_TEXT.format(seed="9" * 4000, strength="0.05", mode="float")),
    "key strength": (read_key, KEY_TEXT.format(seed=1, strength="x" * 60000, mode="float")),
    "key mode": (read_key, KEY_TEXT.format(seed=1, strength="0.05", mode="m" * 60000)),
}


@pytest.mark.parametrize("name", LONG_FIELD_FILES)
def test_a_long_field_is_refused_with_a_short_message(tmp_path, name):
    read, text = LONG_FIELD_FILES[name]
    path = tmp_path / "file.txt"
    path.write_text(text)
    error = MalformedHeader if read is read_ops else KeyMismatch
    with pytest.raises(error, match=f"a field over {FIELD_MAX} characters") as info:
        read(path)
    assert len(str(info.value)) < 300


def test_the_longest_valid_fields_pass(tmp_path):
    # A 20-digit seed in both formats, and a 23-character strength repr.
    path = tmp_path / "ops.txt"
    ops = [ReshuffleOp(2, 2, (4,), (1 << 64) - 1)]
    write_ops(ops, path)
    assert read_ops(path) == ops
    key = StegoKey((1 << 64) - 1, (4, 4), (4, 4), 1.2345678901234567e-300)
    write_key(key, path)
    assert read_key(path) == key


def test_a_many_field_operator_line_is_quoted_in_part(tmp_path):
    path = tmp_path / "ops.txt"
    path.write_text(f"{OPS_MAGIC}\nidentity 2 {'x ' * 30000}\n")
    with pytest.raises(MalformedHeader, match="malformed operator line") as info:
        read_ops(path)
    assert len(str(info.value)) < 300


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
