import tracemalloc

import numpy as np
import pytest

from rtd.errors import BadIndex, ShapeMismatch
from rtd.rng import (
    GOLDEN,
    bulk_u64,
    check_seed,
    derive_seed,
    gaussians,
    mix64,
    random_permutation,
)

MASK = (1 << 64) - 1


def reference_stream(seed, count):
    """Straight-line splitmix64, kept independent of the library code."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def reference_permutation(count, seed):
    draws = reference_stream(seed, max(count - 1, 0))
    perm = list(range(count))
    t = 0
    for i in range(count - 1, 0, -1):
        j = (draws[t] * (i + 1)) >> 64
        t += 1
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def test_bulk_matches_sequential():
    seq = reference_stream(7, 100)
    assert list(bulk_u64(7, 100)) == seq
    assert list(bulk_u64(7, 10)) == seq[:10]


def test_permutation_frozen_trace():
    # hand-executed from the documented shuffle before implementation
    assert list(random_permutation(4, 0)) == [2, 0, 1, 3]
    assert list(random_permutation(6, 7)) == [5, 4, 1, 3, 0, 2]
    assert list(random_permutation(6, 8)) == [4, 0, 1, 2, 5, 3]


def test_permutation_matches_reference():
    for count, seed in [(1, 0), (2, 3), (17, 11), (64, 9)]:
        assert list(random_permutation(count, seed)) == reference_permutation(count, seed)
    for seed in (0, 1, (1 << 63) + 5, (1 << 64) - 1):
        for count in range(401):
            assert random_permutation(count, seed).tolist() == reference_permutation(count, seed)
    assert random_permutation(100003, 21).tolist() == reference_permutation(100003, 21)


def test_permutation_peak_memory_per_entry():
    # A swap loop over Python lists peaks near 116 bytes per entry.
    count = 1 << 17
    tracemalloc.start()
    try:
        random_permutation(count, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 72 * count


def test_permutation_matches_bounded_draws():
    # Stego keys depend on these exact values, up to 2**16 entries.
    for count in (0, 1, 2, 65536):
        assert random_permutation(count, count + 3).tolist() == reference_permutation(
            count, count + 3
        )


def test_permutation_count_guard():
    # Checked before anything is allocated.
    with pytest.raises(ShapeMismatch):
        random_permutation((1 << 32) + 1, 0)


def test_permutation_is_bijection():
    perm = random_permutation(257, 5)
    assert sorted(perm.tolist()) == list(range(257))


def test_permutation_deterministic():
    a = random_permutation(50, 42)
    b = random_permutation(50, 42)
    assert a.tolist() == b.tolist()


def test_seeds_separate():
    assert list(random_permutation(6, 7)) != list(random_permutation(6, 8))


def test_derive_seed_is_stream_output():
    # deriving by index walks the parent stream
    assert derive_seed(99, 0) == reference_stream(99, 1)[0]
    assert derive_seed(99, 4) == reference_stream(99, 5)[4]


def test_mix64_golden():
    assert mix64(0) == 0
    assert mix64(GOLDEN) == reference_stream(0, 1)[0]


def test_gaussians_deterministic_and_standard():
    g1 = gaussians(4096, 13)
    g2 = gaussians(4096, 13)
    assert np.array_equal(g1, g2)
    big = gaussians(200000, 17)
    assert abs(big.mean()) < 0.01
    assert abs(big.std() - 1.0) < 0.01


def test_gaussians_odd_count():
    assert gaussians(7, 1).shape == (7,)


def test_gaussians_zero_count():
    assert gaussians(0, 1).shape == (0,)


def test_gaussians_seed_separation():
    assert not np.array_equal(gaussians(64, 1), gaussians(64, 2))


def test_check_seed_accepts_exactly_the_64_bit_unsigned_integers():
    for seed in (0, 7, MASK, np.uint64(MASK), np.int32(3), True):
        assert check_seed(seed) == int(seed) and type(check_seed(seed)) is int
    assert check_seed(None, optional=True) is None
    for seed in (-1, MASK + 1, 1.0, "3", None):
        with pytest.raises(BadIndex, match=r"master seed must be an integer in \[0, 2\*\*64\)"):
            check_seed(seed, "master seed")
    with pytest.raises(BadIndex, match="must be None or an integer"):
        check_seed(-1, optional=True)
