import dataclasses
import tracemalloc

import numpy as np
import pytest

import rtd.netpbm as netpbm
import rtd.reshuffle as reshuffle
import rtd.stego as stego
from rtd.analysis import tsir
from rtd.errors import BadIndex, DimMismatch, KeyMismatch, StrengthOutOfRange, UnsupportedMaxval
from rtd.netpbm import GrayImage, RgbImage, quantize
from rtd.reshuffle import ReshuffleOp
from rtd.rng import derive_seed, random_permutation
from rtd.solver import Problem, SolverConfig, decompose
from rtd.stego import (
    StegoKey,
    _reveal_config,
    conceal,
    read_key,
    reveal,
    write_key,
)

from conftest import assert_same_run, low_rank_image, relabelled


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
    # The solver's penalty growth RHO = 1.02 and dual step GAMMA = 1.4 keep
    # the secret at about 112 dB in 196-206 iterations on these seeds.  A
    # growth of 1.03 still stops on tol, but at 102-106 dB after about 155
    # iterations at GAMMA = 1.4, and at 91-96 dB after 470-500 at GAMMA = 1.
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


def test_one_key_builds_its_permutations_once(monkeypatch):
    calls = []
    real = reshuffle.random_permutation

    def spy(count, seed):
        calls.append(count)
        return real(count, seed)

    monkeypatch.setattr(reshuffle, "random_permutation", spy)
    cover, secret = small_pair(16, 16)
    container, key = conceal(cover, secret)
    for _ in range(2):
        reveal(container, key, SolverConfig(max_iter=2))
    assert calls == [256] * 3


def test_a_key_holds_one_permutation_per_channel():
    cover, secret = small_pair()
    container, key = conceal(cover, secret, strength=0.05)
    reveal(container, key, config=SolverConfig(max_iter=3))
    arrays = [v for op in key.ops[1:] for v in vars(op).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 3
    assert all(a.dtype == np.uint16 and a.shape == (32 * 32,) for a in arrays)


def test_conceal_observes_the_scaled_channels_through_the_key_ops():
    cover, secret = small_pair(seed=5)
    for mode in stego.MODES:
        container, key = conceal(cover, secret, strength=0.05, master_seed=9, mode=mode)
        channels = [key.strength * secret.pixels[:, :, c] for c in range(3)]
        expect = reshuffle.observe(key.ops, [cover.pixels, *channels])
        if mode == "q8":
            expect = quantize(expect, 255) / 255.0
        assert container.pixels.tobytes() == expect.tobytes()
        assert key.ops[0] == ReshuffleOp(32, 32, (32, 32)) and key.ops[0].seed is None
        assert key.ops[1:] == tuple(
            ReshuffleOp(32, 32, (32, 32), derive_seed(9, c)) for c in range(3))
        # ops is built once per key, and it is all the key caches.
        fields = {f.name for f in dataclasses.fields(key)}
        assert set(vars(key)) - fields == {"ops"} and key.ops is key.ops
        arrays = [v for op in key.ops[1:] for v in vars(op).values()
                  if isinstance(v, np.ndarray)]
        assert len(arrays) == 3


def test_a_reveal_does_not_change_when_the_cells_are_relabelled():
    # All four key operators move by one permutation P, the identity cover
    # operator included, so its inverse must come from its own perm.
    # Measured: 142 and 151 sweeps on both sides, residual and dual
    # histories equal; with the identity's inverse taken as its perm, 899
    # and 902 sweeps.
    for seed in (0, 1):
        container, key = conceal(*small_pair(seed=seed), master_seed=42)
        X = container.pixels
        moved_X, moved_ops = relabelled(X, key.ops, random_permutation(X.size, 1))
        base = decompose(Problem(X, key.ops))
        result = decompose(Problem(moved_X, moved_ops))
        assert_same_run(result, base, seed)


def test_a_256_reveal_holds_its_components_as_factors():
    # Four 256 x 256 components.  Measured under tracemalloc: a 8.60 MiB
    # peak when each was a dense array through the solve, 5.54 MiB holding
    # them as factors and forming them after the sweep's arrays are freed.
    cover, secret = small_pair(256, 256, 0, cover_rank=5, channel_rank=2)
    container, key = conceal(cover, secret, strength=0.05, master_seed=42)
    tracemalloc.start()
    try:
        _, _, metrics = reveal(container, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metrics["stop_reason"] == "tol"
    assert peak < 7 << 20


def test_a_256_reveal_scales_its_channels_in_one_stack():
    # With both reference images.  Measured under tracemalloc: a 6.53 MiB
    # peak when the clipped channels and their stack were separate copies,
    # 5.09 MiB dividing and clipping one stack in place and reading the
    # metric channels as its views.
    cover, secret = small_pair(256, 256, 0, cover_rank=5, channel_rank=2)
    container, key = conceal(cover, secret, strength=0.05, master_seed=42)
    tracemalloc.start()
    try:
        _, _, metrics = reveal(container, key, ref_secret=secret, ref_cover=cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metrics["secret_tsir_db"] >= 25.0 and metrics["cover_sir_db"] >= 25.0
    assert peak < 5.6 * 2**20


def test_every_readable_maxval_has_a_reveal_floor():
    assert set(stego.FLOOR_FACTOR) == set(netpbm.DTYPES)


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


def test_conceal_refuses_swapped_image_kinds():
    cover, secret = small_pair(8, 8)
    for pair in ((cover, cover), (secret, secret), (secret, cover)):
        with pytest.raises(DimMismatch, match="GrayImage cover and an RgbImage secret"):
            conceal(*pair)


def test_key_validation():
    for strength in (0.0, np.nan, np.inf):
        with pytest.raises(StrengthOutOfRange):
            StegoKey(0, (4, 4), (4, 4), strength)
    with pytest.raises(DimMismatch):
        StegoKey(0, (4, 4), (4, 5), 0.05)
    with pytest.raises(DimMismatch):
        StegoKey(0, (0, 4), (2, 2), 0.05)
    with pytest.raises(DimMismatch, match="cover dimensions must be integers"):
        StegoKey(0, (2.5, 4), (4, 2.9), 0.1)  # int() would make this a 2x4 and a 4x2
    with pytest.raises(DimMismatch, match="secret dimensions must be integers"):
        StegoKey(0, (4, 4), (4.0, 4), 0.1)
    for cover_dims, secret_dims in (((4, 4, 1), (4, 4)), ((4, 4), (16,)), ((4, 4), ())):
        with pytest.raises(DimMismatch, match="must have 2 entries"):
            StegoKey(1, cover_dims, secret_dims, 0.05)
    key = StegoKey(0, (np.int64(4), np.int32(4)), (2, np.uint8(8)), 0.05)
    assert key.cover_dims == (4, 4) and type(key.secret_dims[1]) is int
    with pytest.raises(KeyMismatch):
        StegoKey(0, (4, 4), (2, 8), 0.05, mode="hex")
    StegoKey(0, (4, 4), (2, 8), 0.05)
    for seed in (-1, 1 << 64, 1.5):
        with pytest.raises(BadIndex, match="master seed"):
            StegoKey(seed, (4, 4), (4, 4), 0.05)
    assert StegoKey(np.uint64((1 << 64) - 1), (4, 4), (4, 4), 0.05).master_seed == (1 << 64) - 1


def test_reveal_rejects_mismatched_key():
    cover, secret = small_pair()
    container, key = conceal(cover, secret, strength=0.05)
    bad_dims = StegoKey(key.master_seed, (16, 64), (16, 64), key.strength)
    with pytest.raises(KeyMismatch):
        reveal(container, bad_dims)


def test_reveal_needs_a_gray_container():
    cover, secret = small_pair()
    _, key = conceal(cover, secret, strength=0.05)
    # A color image of the cover's height and width is refused for its kind,
    # not for its shape.
    color = RgbImage(np.repeat(cover.pixels[:, :, None], 3, axis=2))
    with pytest.raises(DimMismatch, match="reveal needs a GrayImage container"):
        reveal(color, key)


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
    for text in ("rtd-stego v2\nseed 1\n", "", "\n \n"):
        path.write_text(text)
        with pytest.raises(KeyMismatch, match="bad magic line"):
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
    path.write_bytes(b"\xfe")
    with pytest.raises(KeyMismatch, match="not text"):
        read_key(path)
    path.write_text("rtd-stego v1\nseed -1\ncover 4 4\nsecret 4 4\nstrength 0.1\nmode float\n")
    with pytest.raises(BadIndex, match="master seed"):
        read_key(path)
    path.write_text(
        "\n  rtd-stego v1 \n\nseed 1\n cover 4 4\nsecret 4 4\n\nstrength 0.1\nmode float"
    )
    assert read_key(path) == StegoKey(1, (4, 4), (4, 4), 0.1)


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


def test_black_q8_container_reveals_a_black_secret():
    # A floor that dwarfs an all-zero container raises tol far above 1,
    # and the first sweep, which fits zero exactly, stops on it.
    cover = GrayImage(np.zeros((16, 16)))
    secret = RgbImage(np.zeros((16, 16, 3)))
    container, key = conceal(cover, secret, strength=0.05, master_seed=4, mode="q8")
    est, _, metrics = reveal(container, key)
    assert metrics["tol"] > 1.0
    assert metrics["stop_reason"] == "tol"
    assert metrics["iterations"] == 1
    assert not est.pixels.any()


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
