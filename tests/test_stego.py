import numpy as np
import pytest

import rtd.stego as stego
from rtd.analysis import tsir
from rtd.errors import DimMismatch, KeyMismatch, StrengthOutOfRange, UnsupportedMaxval
from rtd.netpbm import GrayImage, RgbImage
from rtd.solver import SolverConfig
from rtd.stego import (
    StegoKey,
    _reveal_config,
    conceal,
    read_key,
    reveal,
    write_key,
)

from conftest import low_rank_image


def small_pair(h=32, w=32, seed=0, cover_rank=3, channel_rank=1):
    cover = GrayImage(low_rank_image(h, w, cover_rank, seed))
    channels = [low_rank_image(h, w, channel_rank, seed + 1 + c) for c in range(3)]
    secret = RgbImage(np.stack(channels, axis=-1))
    return cover, secret


def test_conceal_is_affine_in_the_secret():
    cover, secret = small_pair()
    zero = RgbImage(np.zeros_like(secret.pixels))
    base, _ = conceal(cover, zero, strength=0.05, master_seed=7)
    one, _ = conceal(cover, secret, strength=0.05, master_seed=7)
    # halving the secret halves the embedded part (up to the rounding of
    # the addition into the cover, a few ulps)
    half, _ = conceal(cover, RgbImage(0.5 * secret.pixels), strength=0.05, master_seed=7)
    emb_one = one.pixels - base.pixels
    emb_half = half.pixels - base.pixels
    assert np.allclose(emb_one, 2.0 * emb_half, atol=1e-14)
    assert np.array_equal(base.pixels, cover.pixels)


def test_container_stays_close_to_cover():
    cover, secret = small_pair()
    container, _ = conceal(cover, secret, strength=0.01, master_seed=3)
    assert np.max(np.abs(container.pixels - cover.pixels)) <= 0.01 * 3 + 1e-12


def test_conceal_deterministic_and_seed_sensitive():
    cover, secret = small_pair()
    a, _ = conceal(cover, secret, strength=0.05, master_seed=1)
    b, _ = conceal(cover, secret, strength=0.05, master_seed=1)
    c, _ = conceal(cover, secret, strength=0.05, master_seed=2)
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_q8_container_is_byte_quantized():
    cover, secret = small_pair()
    container, key = conceal(cover, secret, strength=0.05, master_seed=5, mode="q8")
    assert isinstance(container, GrayImage)
    assert container.maxval == 255
    assert key.mode == "q8"
    levels = container.pixels * 255.0
    assert np.allclose(levels, np.rint(levels), atol=1e-9)
    assert container.pixels.min() >= 0.0 and container.pixels.max() <= 1.0


def test_reveal_roundtrip_small():
    cover, secret = small_pair(seed=4)
    container, key = conceal(cover, secret, strength=0.05, master_seed=11)
    est_secret, est_cover, metrics = reveal(
        container, key, ref_secret=secret, ref_cover=cover
    )
    assert metrics["converged"]
    assert est_secret.pixels.shape == secret.pixels.shape
    assert est_cover.pixels.shape == cover.pixels.shape
    assert metrics["secret_tsir_db"] >= 25.0
    assert metrics["cover_sir_db"] >= 25.0
    for name in "rgb":
        assert metrics[f"sir_{name}_db"] >= 20.0


@pytest.mark.parametrize("seed", [1, 2])
def test_default_schedule_keeps_the_secret(seed):
    # The penalty growth rho sits at the edge of what the reveal tolerates:
    # on these seeds rho = 1.03 still stops on tol, but at 91-96 dB after
    # 470-500 iterations, against about 113 dB in about 220 at the default.
    cover, secret = small_pair(64, 64, seed, cover_rank=5, channel_rank=2)
    container, key = conceal(cover, secret, strength=0.05, master_seed=seed)
    _, _, metrics = reveal(container, key, ref_secret=secret)
    assert metrics["stop_reason"] == "tol"
    assert metrics["secret_tsir_db"] >= 100.0


def test_reveal_without_refs_has_solver_metrics_only():
    cover, secret = small_pair(seed=6)
    container, key = conceal(cover, secret, strength=0.05, master_seed=13)
    _, _, metrics = reveal(container, key)
    assert set(metrics) == {"iterations", "converged", "stop_reason", "residual", "tol"}
    assert metrics["stop_reason"] == "tol"
    assert metrics["tol"] == SolverConfig().tol


def test_wrong_seed_reveals_noise():
    cover, secret = small_pair(seed=8)
    container, key = conceal(cover, secret, strength=0.05, master_seed=21)
    wrong = StegoKey(22, key.cover_dims, key.secret_dims, key.strength)
    _, _, metrics = reveal(container, wrong, ref_secret=secret)
    assert metrics["secret_tsir_db"] <= 10.0


def test_strength_scaling_consistency():
    # halving the strength halves the embedded signal; after the reveal
    # divides by it, both settings should recover the same channels
    cover, secret = small_pair(seed=10)
    c1, k1 = conceal(cover, secret, strength=0.08, master_seed=17)
    c2, k2 = conceal(cover, secret, strength=0.04, master_seed=17)
    s1, _, _ = reveal(c1, k1)
    s2, _, _ = reveal(c2, k2)
    assert np.allclose(s1.pixels, s2.pixels, atol=1e-5)


def test_key_validation():
    for strength in (0.0, np.nan, np.inf):
        with pytest.raises(StrengthOutOfRange):
            StegoKey(0, (4, 4), (4, 4), strength)
    with pytest.raises(DimMismatch):
        StegoKey(0, (4, 4), (4, 5), 0.05)
    with pytest.raises(DimMismatch):
        StegoKey(0, (0, 4), (2, 2), 0.05)
    with pytest.raises(KeyMismatch):
        StegoKey(0, (4, 4), (2, 8), 0.05, mode="hex")
    StegoKey(0, (4, 4), (2, 8), 0.05)


def test_reveal_rejects_mismatched_key():
    cover, secret = small_pair()
    container, key = conceal(cover, secret, strength=0.05)
    bad_dims = StegoKey(key.master_seed, (16, 64), (16, 64), key.strength)
    with pytest.raises(KeyMismatch):
        reveal(container, bad_dims)


def test_key_file_roundtrip(tmp_path):
    key = StegoKey(12345, (32, 32), (16, 64), 0.0625, mode="q8")
    path = tmp_path / "stego.key"
    write_key(key, path)
    text = path.read_text()
    assert text == (
        "rtd-stego v1\n"
        "seed 12345\n"
        "cover 32 32\n"
        "secret 16 64\n"
        "strength 0.0625\n"
        "mode q8\n"
    )
    assert read_key(path) == key


def test_read_key_rejects_garbage(tmp_path):
    path = tmp_path / "bad.key"
    path.write_text("rtd-stego v2\nseed 1\n")
    with pytest.raises(KeyMismatch):
        read_key(path)
    path.write_text("rtd-stego v1\nseed 1\ncover 4 4\n")
    with pytest.raises(KeyMismatch):
        read_key(path)
    path.write_text("rtd-stego v1\nseed x\ncover 4 4\nsecret 4 4\nstrength 0.1\nmode float\n")
    with pytest.raises(KeyMismatch):
        read_key(path)
    path.write_text("rtd-stego v1\nseed 1\ncover 4 4\nsecret 4 4\nstrength nan\nmode float\n")
    with pytest.raises(StrengthOutOfRange):
        read_key(path)
    path.write_bytes(b"rtd-stego v1\nseed \xfe\n")
    with pytest.raises(KeyMismatch, match="not text"):
        read_key(path)


def test_custom_config_passes_through():
    cover, secret = small_pair(seed=12)
    container, key = conceal(cover, secret, strength=0.05, master_seed=31)
    _, _, metrics = reveal(container, key, config=SolverConfig(max_iter=3, tol=1e-30))
    assert metrics["iterations"] == 3
    assert not metrics["converged"]
    assert metrics["stop_reason"] == "max_iter"


def _rounded(pixels, maxval):
    return np.rint(np.clip(pixels, 0.0, 1.0) * maxval) / maxval


def test_reveal_config_floor_follows_maxval():
    cover, secret = small_pair(seed=14)
    config = SolverConfig()
    exact, _ = conceal(cover, secret, strength=0.05, master_seed=3)
    assert exact.maxval is None
    assert _reveal_config(exact, config) is config
    q8, _ = conceal(cover, secret, strength=0.05, master_seed=3, mode="q8")
    pixels = q8.pixels
    old_q8 = 0.1 * (1.0 / (510.0 * np.sqrt(3.0))) * np.sqrt(pixels.size)
    old_q8 /= np.linalg.norm(pixels)
    assert _reveal_config(q8, config).tol == old_q8
    # a floor below the requested tolerance leaves the tolerance alone
    assert _reveal_config(q8, SolverConfig(tol=1.0)).tol == 1.0


def test_reveal_rejects_other_maxvals_before_solving(monkeypatch):
    cover, secret = small_pair(h=8, w=8)
    container, key = conceal(cover, secret)

    def refuse(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(stego, "decompose", refuse)
    with pytest.raises(UnsupportedMaxval):
        reveal(GrayImage(container.pixels, maxval=1023), key)


def test_16bit_container_stops_at_its_rounding_floor():
    # As a file-based hide leaves it: cover and secret read from 16-bit
    # files, the container written back at 16 bits.
    cover, secret = small_pair(h=48, w=48, seed=2)
    cover = GrayImage(_rounded(cover.pixels, 65535))
    secret = RgbImage(_rounded(secret.pixels, 65535))
    container, key = conceal(cover, secret, strength=0.05, master_seed=5)
    pixels = _rounded(container.pixels, 65535)
    refs = [secret.pixels[:, :, c] for c in range(3)]
    runs = []
    for maxval in (65535, None):
        est, _, metrics = reveal(GrayImage(pixels, maxval=maxval), key)
        assert metrics["converged"]
        est8 = _rounded(est.pixels, 255)
        runs.append((metrics["iterations"], tsir(refs, [est8[:, :, c] for c in range(3)])))
    (floored, floored_db), (exact, exact_db) = runs
    assert floored <= exact // 2
    assert abs(floored_db - exact_db) <= 0.1
