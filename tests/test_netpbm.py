import tracemalloc

import numpy as np
import pytest

from rtd.errors import DimMismatch, MalformedHeader, UnsupportedMaxval
from rtd.netpbm import GrayImage, RgbImage, quantize, read_image, write_image


def test_gray_8bit_roundtrip_on_levels(tmp_path):
    # data already on 8-bit levels survives a write/read cycle exactly
    levels = np.arange(12, dtype=np.float64).reshape(3, 4) * 20.0 / 255.0
    path = tmp_path / "g.pgm"
    write_image(GrayImage(levels), path, maxval=255)
    back = read_image(path)
    assert isinstance(back, GrayImage)
    assert back.pixels.shape == (3, 4)
    assert np.array_equal(back.pixels, levels)


def test_gray_16bit_quantization_error(tmp_path):
    rng = np.random.default_rng(1)
    img = GrayImage(rng.uniform(size=(5, 7)))
    path = tmp_path / "g16.pgm"
    write_image(img, path, maxval=65535)
    back = read_image(path)
    assert np.max(np.abs(back.pixels - img.pixels)) <= 0.5 / 65535 + 1e-12


def test_rgb_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    img = RgbImage(rng.uniform(size=(4, 6, 3)))
    path = tmp_path / "c.ppm"
    write_image(img, path, maxval=255)
    back = read_image(path)
    assert isinstance(back, RgbImage)
    assert back.pixels.shape == (4, 6, 3)
    assert np.max(np.abs(back.pixels - img.pixels)) <= 0.5 / 255 + 1e-12


def test_read_image_keeps_maxval(tmp_path):
    for maxval in (255, 65535):
        for name, img in (("g.pgm", GrayImage(np.zeros((2, 3)))),
                          ("c.ppm", RgbImage(np.zeros((2, 3, 3))))):
            path = tmp_path / f"{maxval}{name}"
            write_image(img, path, maxval=maxval)
            assert read_image(path).maxval == maxval
    assert GrayImage(np.zeros((2, 3))).maxval is None
    assert RgbImage(np.zeros((2, 3, 3))).maxval is None


@pytest.mark.parametrize("kind,shape", [
    (GrayImage, (2, 3, 3)), (GrayImage, (0, 3)), (GrayImage, (3, 0)), (GrayImage, (6,)),
    (RgbImage, (2, 3)), (RgbImage, (2, 3, 4)), (RgbImage, (0, 3, 3)), (RgbImage, (2, 3, 3, 1)),
])
def test_an_image_refuses_a_shape_not_its_own(kind, shape):
    with pytest.raises(DimMismatch, match=f"{kind.__name__} pixels must be h x w"):
        kind(np.zeros(shape))


def test_an_image_refuses_an_unsupported_maxval():
    for maxval in (1023, 0, 256):
        with pytest.raises(UnsupportedMaxval):
            GrayImage(np.zeros((2, 2)), maxval)
        with pytest.raises(UnsupportedMaxval):
            RgbImage(np.zeros((2, 2, 3)), maxval)


def test_valid_images_round_trip_byte_for_byte(tmp_path):
    rng = np.random.default_rng(3)
    for maxval in (255, 65535):
        for img in (GrayImage(rng.uniform(size=(1, 1))), GrayImage(rng.uniform(size=(3, 5))),
                    RgbImage(rng.uniform(size=(4, 2, 3)))):
            first, second = tmp_path / "first", tmp_path / "second"
            write_image(img, first, maxval=maxval)
            back = read_image(first)
            assert type(back) is type(img) and back.pixels.shape == img.pixels.shape
            write_image(back, second, maxval=back.maxval)
            assert second.read_bytes() == first.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "h.pgm"
    write_image(GrayImage(np.zeros((2, 3))), path, maxval=255)
    data = path.read_bytes()
    assert data == b"P5\n3 2\n255\n" + b"\x00" * 6


def test_writes_clamp(tmp_path):
    img = GrayImage(np.array([[-0.5, 2.0]]))
    path = tmp_path / "clamp.pgm"
    write_image(img, path, maxval=255)
    back = read_image(path)
    assert back.pixels[0, 0] == 0.0
    assert back.pixels[0, 1] == 1.0


def test_quantize_values_and_dtype():
    q8 = quantize(np.array([0.0, 0.5, 1.0]), 255)
    assert q8.dtype == np.dtype("u1")
    assert q8.tolist() == [0, 128, 255]
    q16 = quantize(np.array([1.0]), 65535)
    assert q16.dtype == np.dtype(">u2")
    assert int(q16[0]) == 65535
    with pytest.raises(UnsupportedMaxval):
        quantize(np.zeros(2), 300)


def test_comments_in_header(tmp_path):
    path = tmp_path / "comment.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n# another\n255\n\x07\x09")
    img = read_image(path)
    assert img.pixels.shape == (1, 2)
    assert np.allclose(img.pixels * 255, [[7, 9]])


def test_16bit_is_big_endian(tmp_path):
    path = tmp_path / "be.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x01\x00")
    img = read_image(path)
    assert img.pixels[0, 0] == pytest.approx(256 / 65535, abs=1e-12)


def test_malformed_inputs(tmp_path):
    cases = {
        "magic.pgm": b"P4\n1 1\n255\n\x00",
        "trunc.pgm": b"P5\n2 2",
        "short.pgm": b"P5\n2 2\n255\n\x00\x00",
        "long.pgm": b"P5\n1 1\n255\n\x00\x00",
        "alpha.pgm": b"P5\nx 2\n255\n\x00\x00",
        "zero.pgm": b"P5\n0 2\n255\n",
    }
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(MalformedHeader):
            read_image(path)
    # An unterminated comment, and no whitespace after maxval.
    for blob in (b"P5\n# no newline", b"P5\n1 1\n255"):
        path = tmp_path / "header.pgm"
        path.write_bytes(blob)
        with pytest.raises(MalformedHeader, match="no valid header"):
            read_image(path)
    bad = tmp_path / "maxval.pgm"
    bad.write_bytes(b"P5\n1 1\n300\n\x00")
    with pytest.raises(UnsupportedMaxval):
        read_image(bad)


def test_read_image_checks_the_header_before_reading_the_payload(tmp_path):
    # Sparse 64 MiB files: a bad magic number and a payload of the wrong
    # size are refused with the payload unread.
    for name, header in (("magic", b"P4\n1000 1000\n255\n"), ("size", b"P5\n1000 1000\n255\n")):
        path = tmp_path / f"{name}.pgm"
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(MalformedHeader) as exc:
                read_image(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, name
        assert len(str(exc.value)) < 300, name
