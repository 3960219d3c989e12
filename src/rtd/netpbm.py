"""Binary netpbm IO: grayscale PGM (P5) and color PPM (P6).

Samples are exposed as float64 in [0, 1]; only maxval 255 and 65535 are
accepted, with 16-bit payloads big-endian per the format. Writing rounds
clamp(x, 0, 1) * maxval to the nearest integer level. An image read from a
file keeps its maxval, which fixes the precision its samples are known to;
an image made in memory has maxval None.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MalformedHeader, UnsupportedMaxval
from .formats import read_payload

# The sample type of each accepted maxval.
DTYPES = {255: np.dtype("u1"), 65535: np.dtype(">u2")}
# Longest header read: the magic number, the three numbers and any comments.
HEADER_MAX = 4096


@dataclass(frozen=True)
class _Image:
    """Samples in [0, 1] and the maxval they are known to (None if exact).

    Equality holds only between images of the same class.
    """

    pixels: np.ndarray
    maxval: int | None = None

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]


class GrayImage(_Image):
    """Grayscale image: pixels (h, w) float64 in [0, 1]."""


class RgbImage(_Image):
    """Color image: pixels (h, w, 3) float64 in [0, 1]."""


def _read_tokens(data, count):
    """First `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last one.
    """
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise MalformedHeader("truncated header")
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise MalformedHeader("unterminated comment")
            pos = end + 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedHeader("missing whitespace after maxval")
    return tokens, pos + 1


def _parse_dims(tokens):
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise MalformedHeader(f"non-numeric header fields: {tokens}") from None
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    if maxval not in DTYPES:
        raise UnsupportedMaxval(f"maxval must be one of {tuple(DTYPES)}, got {maxval}")
    return width, height, maxval


def read_image(path):
    """Read a P5 file as GrayImage or a P6 file as RgbImage.

    The header, which must fit in its first HEADER_MAX bytes, is checked,
    and the payload's size (from ``os.fstat``) against it, before the
    payload is read; any mismatch raises MalformedHeader.  A pipe has no
    size to check and fails to seek (OSError).
    """
    with open(path, "rb") as fh:
        head = fh.read(HEADER_MAX)
        magic = head[:2]
        if magic not in (b"P5", b"P6"):
            raise MalformedHeader(f"not a binary PGM/PPM file: magic {magic!r}")
        tokens, offset = _read_tokens(head[2:], 3)
        width, height, maxval = _parse_dims(tokens)
        channels = 1 if magic == b"P5" else 3
        fh.seek(2 + offset)
        samples = read_payload(fh, width * height * channels, DTYPES[maxval]) / maxval
    if channels == 1:
        return GrayImage(samples.reshape(height, width), maxval)
    return RgbImage(samples.reshape(height, width, 3), maxval)


def quantize(samples, maxval):
    """Integer sample levels for float data: round(clamp(x, 0, 1) * maxval)."""
    if maxval not in DTYPES:
        raise UnsupportedMaxval(f"maxval must be one of {tuple(DTYPES)}, got {maxval}")
    levels = np.rint(np.clip(samples, 0.0, 1.0) * maxval)
    return levels.astype(DTYPES[maxval])


def write_image(img, path, maxval=255):
    """Write GrayImage as P5 or RgbImage as P6 at the given maxval."""
    magic = b"P5" if isinstance(img, GrayImage) else b"P6"
    body = quantize(img.pixels, maxval).tobytes()
    header = f"{magic.decode()}\n{img.width} {img.height}\n{maxval}\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + body)
