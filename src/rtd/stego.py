"""Image steganography on top of the reshuffled decomposition.

A 3-channel secret is hidden inside a grayscale cover by adding its
strength-scaled, seed-reshuffled channels; the reshuffle seeds act as the
key.  The key's ``ops`` are the model's four operators: the cover under the
identity reshuffle plus one seeded reshuffle per channel.  Concealing is
the forward model ``observe`` through them, and revealing solves the
4-component decomposition with them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import sir, tsir
from .errors import DimMismatch, KeyMismatch, StrengthOutOfRange
from .errors import check_ints, check_positive
from .formats import csv_text, lines_text, read_lines, write_text
from .netpbm import GrayImage, RgbImage, quantize
from .reshuffle import observe, reshuffle_from_seed, reshuffle_identity
from .rng import check_seed, derive_seed
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
        strength = check_positive(self.strength, StrengthOutOfRange, "strength")
        object.__setattr__(self, "strength", strength)
        if self.mode not in MODES:
            raise KeyMismatch(f"mode must be one of {MODES}, got {self.mode!r}")
        cover = check_ints(self.cover_dims, DimMismatch, "cover dimensions")
        secret = check_ints(self.secret_dims, DimMismatch, "secret dimensions")
        for name, dims in (("cover", cover), ("secret", secret)):
            if len(dims) != 2:
                raise DimMismatch(f"{name} dimensions must have 2 entries, got {dims}")
        (ch, cw), (sh, sw) = cover, secret
        if min(ch, cw, sh, sw) < 1:
            raise DimMismatch(f"dimensions must be >= 1, got {self.cover_dims}, {self.secret_dims}")
        if ch * cw != sh * sw:
            raise DimMismatch(
                f"pixel counts differ: cover {ch}x{cw} vs secret channel {sh}x{sw}"
            )
        object.__setattr__(self, "cover_dims", (ch, cw))
        object.__setattr__(self, "secret_dims", (sh, sw))
        object.__setattr__(self, "master_seed", check_seed(self.master_seed, "master seed"))

    @cached_property
    def ops(self):
        """The cover's identity reshuffle, then the three channel reshuffles:
        the operators conceal observes through and reveal solves with,
        built once per key and shared by conceal and every reveal with it."""
        seeds = (derive_seed(self.master_seed, c) for c in range(3))
        return (reshuffle_identity(*self.cover_dims, self.cover_dims),
                *(reshuffle_from_seed(*self.secret_dims, self.cover_dims, s) for s in seeds))


def conceal(cover, secret, strength=0.05, master_seed=0, mode="float"):
    """Embed the secret's reshuffled channels into the cover.

    The container is ``observe(key.ops, [cover, *(strength * channel)])``:
    the cover plus each strength-scaled channel under its reshuffle.
    Returns the container image and the key holding everything needed to
    reveal except the images themselves.  A q8 container is rounded to
    maxval 255; a float one is exact (maxval None).
    """
    if not (isinstance(cover, GrayImage) and isinstance(secret, RgbImage)):
        raise DimMismatch("conceal needs a GrayImage cover and an RgbImage secret")
    key = StegoKey(master_seed, cover.pixels.shape, secret.pixels.shape[:2], strength, mode)
    channels = key.strength * np.moveaxis(secret.pixels, -1, 0)
    pixels = observe(key.ops, [cover.pixels, *channels])
    if mode == "q8":
        pixels = quantize(pixels, 255) / 255.0
        return GrayImage(pixels, 255), key
    return GrayImage(pixels), key


def _reveal_config(container, config):
    """config, with a rounded container's tolerance raised to its rounding floor."""
    if config is None:
        config = SolverConfig()
    if container.maxval is None:
        return config
    sigma = FLOOR_FACTOR[container.maxval] * rounding_rms(container.maxval)
    return at_noise_floor(config, container.pixels, sigma)


def reveal(container, key, config=None, ref_secret=None, ref_cover=None):
    """Decompose the container back into cover and secret estimates: the
    decomposition of its pixels under ``key.ops``.

    The container is a GrayImage (DimMismatch otherwise) whose maxval (255
    or 65535) is the precision its pixels were rounded to, or None when they
    are exact; a rounded container stops at its rounding floor.  Channel
    estimates are divided by the key strength and clamped to [0, 1].
    Metrics always carry the solver diagnostics, the tolerance in effect
    and why the solve stopped; reference images add SIR numbers for
    whatever they cover.
    """
    if not isinstance(container, GrayImage):
        raise DimMismatch("reveal needs a GrayImage container")
    if container.pixels.shape != key.cover_dims:
        raise KeyMismatch(
            f"container is {container.pixels.shape}, key says {key.cover_dims}"
        )
    for ref, kind, dims in ((ref_secret, RgbImage, key.secret_dims),
                            (ref_cover, GrayImage, key.cover_dims)):
        if ref is not None and not (isinstance(ref, kind) and ref.pixels.shape[:2] == dims):
            raise DimMismatch(f"reference image must be a {dims[0]}x{dims[1]} {kind.__name__}")
    config = _reveal_config(container, config)
    result = decompose(Problem(container.pixels, key.ops), config)
    cover_est = GrayImage(np.clip(result.components[0], 0.0, 1.0))
    # One stacked copy of the channels, scaled and clipped in place, with
    # the metrics reading views of it: separate clipped copies would set the
    # reveal's peak memory.
    pixels = np.stack(result.components[1:], axis=-1)
    pixels /= key.strength
    secret_est = RgbImage(np.clip(pixels, 0.0, 1.0, out=pixels))
    channels = [pixels[:, :, c] for c in range(3)]
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


def metrics_csv(metrics):
    """reveal's metrics as "metric,value" lines: booleans as 0/1, floats as
    their repr."""
    return csv_text("metric,value", metrics.items())


def write_key(key, path):
    lines = [
        FORMAT_VERSION,
        f"seed {key.master_seed}",
        f"cover {key.cover_dims[0]} {key.cover_dims[1]}",
        f"secret {key.secret_dims[0]} {key.secret_dims[1]}",
        f"strength {key.strength!r}",
        f"mode {key.mode}",
    ]
    write_text(path, lines_text(lines))


def read_key(path):
    fields = {}
    for ln in read_lines(path, FORMAT_VERSION, KeyMismatch):
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
