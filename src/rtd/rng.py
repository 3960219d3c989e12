"""Deterministic random primitives shared by the whole library.

Every source of randomness (permutations, Gaussian draws, derived seeds)
is built on the splitmix64 sequence so that results reproduce bit-for-bit
from a single 64-bit seed on any platform.  The k-th output of the stream
is a pure function of the seed, which lets large batches be generated with
vectorized NumPy arithmetic instead of a Python loop.
"""

import operator

import numpy as np

from .errors import BadIndex, ShapeMismatch, check_count

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


def check_seed(seed, name="seed", optional=False):
    """``seed`` as a Python int, or BadIndex unless it is an integer in [0, 2**64).

    The stream reduces seeds modulo 2**64, so a seed outside that range
    would build the same draws as another one that compares unequal.  An
    ``optional`` seed may also be None, which is returned as it is.
    """
    if optional and seed is None:
        return None
    try:
        if 0 <= operator.index(seed) <= _MASK:
            return operator.index(seed)
    except TypeError:
        pass
    raise BadIndex(f"{name} must be {'None or ' * optional}an integer in [0, 2**64), got {seed!r}")


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


MAX_PERMUTATION = 1 << 32  # draws and sort keys work on 32-bit limbs


def index_dtype(count):
    """The narrowest unsigned dtype that holds every index of range(count):
    uint8 up to 256 entries, uint16 up to 2**16, uint32 up to 2**32."""
    return np.min_scalar_type(max(count - 1, 0))


def random_permutation(count, seed):
    """Uniform permutation of range(count) via Fisher-Yates over splitmix64.

    The result holds the swap loop's exact values in ``index_dtype(count)``;
    the work arrays are intp, since pointer jumping gathers through them.
    ``count`` must be an integer in [0, 2**32], or ShapeMismatch, and the
    seed pass ``check_seed``.

    The shuffle walks i = count-1 .. 1 and swaps position i with
    j = (u64 * (i+1)) >> 64 where u64 is the next stream output.  All j are
    computed at once as a multiply-high on 32-bit limbs, which is exact
    while i+1 <= 2**32.

    The swaps are resolved with array operations and give the swap loop's
    exact output.  Step i takes from position j what the previous step into
    j left there, or j itself if no earlier step targeted j.  What step p
    carries away from its own position, ``carried[p]``, is what the last
    earlier step into p brought there: the ``carried`` of the smallest
    i > p with j_i == p.  Pointer jumping follows these links to the
    untouched position each chain starts from.  One sort of the packed key
    (j << 32) | t, t = count-1-i, puts each j's steps in the order the
    shuffle runs them.  Position 0 is never a step and ends as
    ``carried[0]``; so does every i with j_i == i.
    """
    count = check_count(count, ShapeMismatch, "permutation size", low=0)
    seed = check_seed(seed)
    if count > MAX_PERMUTATION:
        raise ShapeMismatch(f"permutation of {count} entries exceeds 2**32")
    if count < 2:
        return np.arange(count, dtype=index_dtype(count))
    carried = np.arange(count, dtype=np.intp)
    u = bulk_u64(seed, count - 1)
    bound = np.arange(count, 1, -1, dtype=np.uint64)  # i + 1
    low = (u & np.uint64(0xFFFFFFFF)) * bound
    high = (u >> np.uint64(32)) * bound
    draws = (high + (low >> np.uint64(32))) >> np.uint64(32)  # j of step t
    del u, bound, low, high
    moved = np.flatnonzero(draws != carried[:0:-1].view(np.uint64))  # t where i != j
    key = draws[moved]
    del draws
    key <<= np.uint64(32)
    key |= moved.view(np.uint64)
    del moved
    key.sort()
    # The sorted steps' j and i sit at offset 1: the -1 on each side of
    # sorted_j closes the first and last run of equal j, and sorted_i[k] is
    # the i of the step sorted just before step k.
    sorted_j = np.full(len(key) + 2, -1, dtype=np.intp)
    np.right_shift(key, np.uint64(32), out=sorted_j[1:-1].view(np.uint64))
    sorted_i = np.zeros(len(key) + 1, dtype=np.intp)
    np.bitwise_and(key, np.uint64(0xFFFFFFFF), out=sorted_i[1:].view(np.uint64))
    del key
    np.subtract(count - 1, sorted_i[1:], out=sorted_i[1:])
    runs = np.flatnonzero(sorted_j[1:] != sorted_j[:-1])  # run starts, then len(key)
    first, last = runs[:-1], runs[1:] - 1  # the first and last step into each j
    j, i = sorted_j[1:-1], sorted_i[1:]
    carried[j[last]] = i[last]
    while True:
        jumped = carried[carried]
        if (jumped == carried).all():
            break
        carried = jumped
    taken = carried[sorted_i[:-1]]  # what the previous step into j left
    taken[first] = j[first]
    carried[i] = taken
    return carried.astype(index_dtype(count))


def gaussians(count, seed):
    """``count`` standard normals via Box-Muller over splitmix64 uniforms.

    Pair t consumes stream outputs 2t+1 and 2t+2:
    u1 = 1 - (out >> 11) * 2**-53 in (0, 1], u2 = (out >> 11) * 2**-53 in
    [0, 1); the pair yields r*cos(2*pi*u2), r*sin(2*pi*u2) with
    r = sqrt(-2 ln u1).  ``count`` must be an integer >= 0, or
    ShapeMismatch, and the seed pass ``check_seed``.
    """
    count = check_count(count, ShapeMismatch, "count", low=0)
    seed = check_seed(seed)
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
