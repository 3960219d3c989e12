"""Binary netpbm IO: grayscale PGM (P5) and color PPM (P6).

Samples are exposed as float64 in [0, 1]; only maxval 255 and 65535 are
accepted, with 16-bit payloads big-endian per the format. Writing rounds
clamp(x, 0, 1) * maxval to the nearest integer level. An image read from a
file keeps its maxval, which fixes the precision its samples are known to;
an image made in memory has maxval None.  An image's height and width are
the first two axes of its pixels.  Every image checks its own shape and
maxval when it is made, so any image ``write_image`` takes writes a file
that ``read_image`` reads back.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, MalformedHeader, UnsupportedMaxval, quoted
from .formats import read_header, read_payload

# The sample type of each accepted maxval.
DTYPES = {255: np.dtype("u1"), 65535: np.dtype(">u2")}
# The magic number, then width, height and maxval, each after whitespace and
# # comments, then the one whitespace byte that ends the header.
_HEADER = re.compile(rb"(P[56])" + rb"(?:\s|#[^\n]*\n)+(\d{1,20})" * 3 + rb"\s")


@dataclass(frozen=True)
class _Image:
    """Samples and the maxval they are known to (None if exact).

    The pixels have height and width >= 1 and then the class's channel axes;
    any other shape raises DimMismatch, and a maxval other than None, 255
    or 65535 raises UnsupportedMaxval.  Values are not range-checked, as a
    float container exceeds 1; writing clamps them.  Equality holds only
    between images of the same class.
    """

    pixels: np.ndarray
    maxval: int | None = None
    # The axes of the pixels after height and width.
    _CHANNELS = ()

    def __post_init__(self):
        shape = self.pixels.shape
        if len(shape) < 2 or shape[2:] != self._CHANNELS or min(shape[:2]) < 1:
            dims = " x ".join(("h", "w", *map(str, self._CHANNELS)))
            raise DimMismatch(f"{type(self).__name__} pixels must be {dims} with h, w >= 1, "
                              f"got shape {quoted(shape)}")
        if self.maxval is not None:
            _dtype(self.maxval)


class GrayImage(_Image):
    """Grayscale image: pixels (h, w) float64, nominally in [0, 1]."""


class RgbImage(_Image):
    """Color image: pixels (h, w, 3) float64, nominally in [0, 1]."""

    _CHANNELS = (3,)


def _dtype(maxval):
    """The sample type of ``maxval``; any maxval not in DTYPES raises
    UnsupportedMaxval."""
    if maxval not in DTYPES:
        raise UnsupportedMaxval(f"maxval must be one of {tuple(DTYPES)}, got {maxval}")
    return DTYPES[maxval]


def read_image(path):
    """Read a P5 file as GrayImage or a P6 file as RgbImage.

    The header must match the format within the file's first
    formats.HEADER_MAX bytes.  It is checked, and the payload's size
    against it, before the payload is read; any mismatch raises
    MalformedHeader, and a maxval other than 255 or 65535 raises
    UnsupportedMaxval.  A pipe fails to seek (OSError).
    """
    with open(path, "rb") as fh:
        magic, *fields = read_header(fh, _HEADER, MalformedHeader).groups()
        width, height, maxval = map(int, fields)
        if width < 1 or height < 1:
            raise MalformedHeader(f"bad dimensions {width}x{height}")
        channels = 1 if magic == b"P5" else 3
        samples = read_payload(fh, width * height * channels, _dtype(maxval)) / maxval
    if channels == 1:
        return GrayImage(samples.reshape(height, width), maxval)
    return RgbImage(samples.reshape(height, width, 3), maxval)


def quantize(samples, maxval):
    """Integer sample levels for float data: round(clamp(x, 0, 1) * maxval)."""
    dtype = _dtype(maxval)
    return np.rint(np.clip(samples, 0.0, 1.0) * maxval).astype(dtype)


def write_image(img, path, maxval=255):
    """Write GrayImage as P5 or RgbImage as P6 at the given maxval."""
    magic = b"P5" if isinstance(img, GrayImage) else b"P6"
    height, width = img.pixels.shape[:2]
    body = quantize(img.pixels, maxval).tobytes()
    header = f"{magic.decode()}\n{width} {height}\n{maxval}\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + body)
