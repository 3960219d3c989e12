"""Deterministic random primitives shared by the whole library.

Every source of randomness (permutations, Gaussian draws, derived seeds)
is built on the splitmix64 sequence so that results reproduce bit-for-bit
from a single 64-bit seed on any platform.  The k-th output of the stream
is a pure function of the seed, which lets large batches be generated with
vectorized NumPy arithmetic instead of a Python loop.
"""

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def mix64(z):
    """splitmix64 output function on a 64-bit state."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed, index):
    """The (index+1)-th output of the stream seeded with ``seed``.

    Used to split one master seed into independent sub-seeds (per component,
    per channel, per grid cell, ...).
    """
    return mix64((seed + (index + 1) * GOLDEN) & _MASK)


def bulk_u64(seed, count, start=0):
    """Outputs start+1 .. start+count of the stream, as a uint64 array.

    Output k is ``mix64(seed + k * GOLDEN)``: the state steps by the golden
    gamma and each output mixes the new state.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_permutation(count, seed):
    """Uniform permutation of range(count) via Fisher-Yates over splitmix64.

    The shuffle walks i = count-1 .. 1 and swaps position i with
    j = (u64 * (i+1)) >> 64 where u64 is the next stream output.  All j are
    computed at once as a multiply-high on 32-bit limbs, which is exact
    while i+1 <= 2**32; only the swaps run in Python.
    """
    if count > 1 << 32:
        raise ValueError(f"permutation of {count} entries exceeds 2**32")
    perm = list(range(count))
    if count >= 2:
        u = bulk_u64(seed, count - 1)
        bound = np.arange(count, 1, -1, dtype=np.uint64)  # i + 1
        low = (u & np.uint64(0xFFFFFFFF)) * bound
        high = (u >> np.uint64(32)) * bound
        draws = (high + (low >> np.uint64(32))) >> np.uint64(32)
        for i, j in zip(range(count - 1, 0, -1), draws.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
    return np.asarray(perm, dtype=np.intp)


def gaussians(count, seed):
    """``count`` standard normals via Box-Muller over splitmix64 uniforms.

    Pair t consumes stream outputs 2t+1 and 2t+2:
    u1 = 1 - (out >> 11) * 2**-53 in (0, 1], u2 = (out >> 11) * 2**-53 in
    [0, 1); the pair yields r*cos(2*pi*u2), r*sin(2*pi*u2) with
    r = sqrt(-2 ln u1).
    """
    pairs = (count + 1) // 2
    if pairs == 0:
        return np.empty(0)
    u = bulk_u64(seed, 2 * pairs).reshape(pairs, 2)
    u1 = 1.0 - (u[:, 0] >> np.uint64(11)) * 2.0**-53
    u2 = (u[:, 1] >> np.uint64(11)) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]
