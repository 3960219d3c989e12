"""Image steganography on top of the reshuffled decomposition.

A 3-channel secret is hidden inside a grayscale cover by adding its
strength-scaled, seed-reshuffled channels; the reshuffle seeds act as the
key.  Revealing solves a 4-component decomposition: the cover under the
identity reshuffle plus one seeded reshuffle per channel.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import sir, tsir
from .errors import DimMismatch, KeyMismatch, StrengthOutOfRange, UnsupportedMaxval
from .netpbm import GrayImage, RgbImage
from .reshuffle import reshuffle_from_seed, reshuffle_identity
from .rng import derive_seed
from .solver import Problem, SolverConfig, at_noise_floor, decompose

MODES = ("float", "q8")
FORMAT_VERSION = "rtd-stego v1"

# The reveal's tolerance floor per container maxval, in units of the rounding
# rms.  At 8 bits the rounding is about as large as a 0.05-strength secret, and
# a floor at 1 rms costs 0.2-1.3 dB of secret tSIR.  A 16-bit container written
# by a file-based hide carries two roundings (the cover read, the container
# written), about sqrt(2) rms: its residual levels off at 1.2-1.4 rms and
# below that the solve only fits noise, so 1.5 stops on the way in.
FLOOR_FACTOR = {255: 0.1, 65535: 1.5}


def rounding_rms(maxval):
    """rms of the uniform error from rounding [0, 1] samples to maxval levels."""
    return 1.0 / (2.0 * maxval * np.sqrt(3.0))


@dataclass(frozen=True)
class StegoKey:
    master_seed: int
    cover_dims: tuple
    secret_dims: tuple
    strength: float
    mode: str = "float"

    def __post_init__(self):
        if not 0 < self.strength < np.inf:
            raise StrengthOutOfRange(f"strength must be finite and positive, got {self.strength}")
        if self.mode not in MODES:
            raise KeyMismatch(f"mode must be one of {MODES}, got {self.mode!r}")
        ch, cw = (int(d) for d in self.cover_dims)
        sh, sw = (int(d) for d in self.secret_dims)
        if min(ch, cw, sh, sw) < 1:
            raise DimMismatch(f"dimensions must be >= 1, got {self.cover_dims}, {self.secret_dims}")
        if ch * cw != sh * sw:
            raise DimMismatch(
                f"pixel counts differ: cover {ch}x{cw} vs secret channel {sh}x{sw}"
            )
        object.__setattr__(self, "cover_dims", (ch, cw))
        object.__setattr__(self, "secret_dims", (sh, sw))
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "strength", float(self.strength))

    def channel_ops(self):
        sh, sw = self.secret_dims
        return [
            reshuffle_from_seed(sh, sw, self.cover_dims, derive_seed(self.master_seed, c))
            for c in range(3)
        ]


def conceal(cover, secret, strength=0.05, master_seed=0, mode="float"):
    """Embed the secret's reshuffled channels into the cover.

    Returns the container image and the key holding everything needed to
    reveal except the images themselves.  A q8 container is rounded to
    maxval 255; a float one is exact (maxval None).
    """
    key = StegoKey(master_seed, cover.pixels.shape, secret.pixels.shape[:2], strength, mode)
    pixels = cover.pixels.astype(np.float64).copy()
    for c, op in enumerate(key.channel_ops()):
        pixels += key.strength * op.apply(secret.pixels[:, :, c])
    if mode == "q8":
        pixels = np.rint(np.clip(pixels, 0.0, 1.0) * 255.0) / 255.0
        return GrayImage(pixels, 255), key
    return GrayImage(pixels), key


def _reveal_config(container, config):
    """config, with a rounded container's tolerance raised to its rounding floor."""
    if config is None:
        config = SolverConfig()
    if container.maxval is None:
        return config
    if container.maxval not in FLOOR_FACTOR:
        raise UnsupportedMaxval(
            f"maxval must be one of {tuple(FLOOR_FACTOR)} or None, got {container.maxval}"
        )
    sigma = FLOOR_FACTOR[container.maxval] * rounding_rms(container.maxval)
    return at_noise_floor(config, container.pixels, sigma)


def reveal(container, key, config=None, ref_secret=None, ref_cover=None):
    """Decompose the container back into cover and secret estimates.

    The container is a GrayImage whose maxval (255 or 65535) is the
    precision its pixels were rounded to, or None when they are exact; a
    rounded container stops at its rounding floor.  Channel estimates are
    divided by the key strength and clamped to [0, 1].  Metrics always
    carry the solver diagnostics, the tolerance in effect and why the
    solve stopped; reference images add SIR numbers for whatever they
    cover.
    """
    if container.pixels.shape != key.cover_dims:
        raise KeyMismatch(
            f"container is {container.pixels.shape}, key says {key.cover_dims}"
        )
    for ref, kind, dims in ((ref_secret, RgbImage, key.secret_dims),
                            (ref_cover, GrayImage, key.cover_dims)):
        if ref is not None and not (isinstance(ref, kind) and ref.pixels.shape[:2] == dims):
            raise DimMismatch(f"reference image must be a {dims[0]}x{dims[1]} {kind.__name__}")
    config = _reveal_config(container, config)
    ch, cw = key.cover_dims
    ops = [reshuffle_identity(ch, cw, (ch, cw))] + key.channel_ops()
    result = decompose(Problem(container.pixels, ops), config)
    cover_est = GrayImage(np.clip(result.components[0], 0.0, 1.0))
    channels = [
        np.clip(comp / key.strength, 0.0, 1.0) for comp in result.components[1:]
    ]
    secret_est = RgbImage(np.stack(channels, axis=-1))
    metrics = {
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "residual": result.residual_history[-1],
        "tol": config.tol,
    }
    if ref_secret is not None:
        refs = [ref_secret.pixels[:, :, c] for c in range(3)]
        for c, name in enumerate("rgb"):
            metrics[f"sir_{name}_db"] = sir(refs[c], channels[c])
        metrics["secret_tsir_db"] = tsir(refs, channels)
    if ref_cover is not None:
        metrics["cover_sir_db"] = sir(ref_cover.pixels, cover_est.pixels)
    return secret_est, cover_est, metrics


def write_key(key, path):
    lines = [
        FORMAT_VERSION,
        f"seed {key.master_seed}",
        f"cover {key.cover_dims[0]} {key.cover_dims[1]}",
        f"secret {key.secret_dims[0]} {key.secret_dims[1]}",
        f"strength {key.strength!r}",
        f"mode {key.mode}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key(path):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise KeyMismatch(f"key file {path} is not text: {exc}") from None
    if not lines or lines[0] != FORMAT_VERSION:
        raise KeyMismatch(f"unsupported key file version: {lines[:1]}")
    fields = {}
    for ln in lines[1:]:
        name, _, rest = ln.partition(" ")
        fields[name] = rest.split()
    try:
        return StegoKey(
            master_seed=int(fields["seed"][0]),
            cover_dims=tuple(int(v) for v in fields["cover"]),
            secret_dims=tuple(int(v) for v in fields["secret"]),
            strength=float(fields["strength"][0]),
            mode=fields["mode"][0],
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise KeyMismatch(f"malformed key file {path}: {exc}") from None
