"""Reshuffling operators: bijective entry relocations between matrices and tensors.

A reshuffle maps every entry of an m x n matrix to exactly one entry of a
tensor with the same element count.  Classical folding is the identity
permutation under the canonical row-major linearization (last index
fastest), which this module uses for both matrices and tensors.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeMismatch, check_count, check_ints, quoted
from .rng import MAX_PERMUTATION, check_seed, index_dtype, random_permutation


# The most dimensions a NumPy array has (NumPy >= 2.0), and so the most
# extents a tensor has.
MAX_EXTENTS = 64


def _check_counts(m, n, dst_shape):
    m, n = (check_count(e, ShapeMismatch, "matrix extents") for e in (m, n))
    dst_shape = check_ints(dst_shape, ShapeMismatch, "tensor extents")
    if not 1 <= len(dst_shape) <= MAX_EXTENTS:
        raise ShapeMismatch(f"a tensor has 1 to {MAX_EXTENTS} extents, got {len(dst_shape)}")
    if any(e < 1 for e in dst_shape):
        raise ShapeMismatch(f"tensor extents must be >= 1, got {quoted(dst_shape)}")
    if m * n != math.prod(dst_shape):
        raise ShapeMismatch(f"element counts differ: {quoted(m)}x{quoted(n)} = {quoted(m * n)}"
                            f" vs {quoted(dst_shape)} = {quoted(math.prod(dst_shape))}")
    return dst_shape


@dataclass(frozen=True)
class ReshuffleOp:
    """Bijection between an m x n matrix and a tensor of equal element count.

    The operator is fully described by its fields: ``seed`` None is classical
    folding (the identity), a seed in [0, 2**64) the uniformly random
    reshuffle of ``random_permutation(m * n, seed)``.  The fields are checked
    at construction: the extents must be integers and the seed None or in
    range, and a seeded operator may relocate at most 2**32 entries.  The
    permutations are built on first use, so an operator that is never
    applied allocates nothing.  ``perm`` maps matrix linear index k to
    tensor linear index perm[k] (both row-major), and it is the one
    permutation the operator stores: apply scatters through it and adjoint
    gathers through it.  It is held in ``rng.index_dtype(size)``, the
    narrowest unsigned type of its largest index: 1 byte per entry up to 256
    entries, 2 up to 2**16 and 4 up to 2**32.  ``inv_perm``, its inverse in
    the same dtype, is built from ``perm`` afresh on each read, for the
    identity as for any other operator.
    """

    m: int
    n: int
    dst_shape: tuple
    seed: int = None

    def __post_init__(self):
        object.__setattr__(self, "dst_shape", _check_counts(self.m, self.n, self.dst_shape))
        object.__setattr__(self, "seed", check_seed(self.seed, "operator seed", optional=True))
        if self.seed is not None and self.size > MAX_PERMUTATION:
            raise ShapeMismatch(
                f"a seeded operator relocates at most 2**32 entries, got {quoted(self.size)}"
            )

    @property
    def size(self):
        return self.m * self.n

    @cached_property
    def perm(self):
        if self.seed is None:
            return _freeze(np.arange(self.size, dtype=index_dtype(self.size)))
        return _freeze(random_permutation(self.size, self.seed))

    @property
    def inv_perm(self):
        inv_perm = np.empty_like(self.perm)
        inv_perm[self.perm] = np.arange(self.size, dtype=inv_perm.dtype)
        return _freeze(inv_perm)

    def apply(self, A):
        """Relocate matrix ``A`` into a tensor of shape ``dst_shape``."""
        A = np.asarray(A)
        if A.shape != (self.m, self.n):
            raise ShapeMismatch(
                f"expected {quoted(self.m)}x{quoted(self.n)} matrix, got {quoted(A.shape)}")
        out = np.empty(self.size, dtype=A.dtype)
        out[self.perm] = A.ravel()
        return out.reshape(self.dst_shape)

    def adjoint(self, Y):
        """Inverse relocation: pull tensor ``Y`` back to an m x n matrix."""
        Y = np.asarray(Y)
        if Y.shape != self.dst_shape:
            raise ShapeMismatch(
                f"expected tensor of shape {quoted(self.dst_shape)}, got {quoted(Y.shape)}")
        return Y.ravel()[self.perm].reshape(self.m, self.n)


def _freeze(a):
    a.setflags(write=False)
    return a


def reshuffle_identity(m, n, dst_shape):
    """Classical folding: the identity permutation under row-major order."""
    return ReshuffleOp(m, n, dst_shape)


def reshuffle_from_seed(m, n, dst_shape, seed):
    """Uniformly random reshuffle, reproducible from (m, n, dst_shape, seed)."""
    return ReshuffleOp(m, n, dst_shape, seed)


def observe(ops, matrices):
    """The observation sum_i R_i(A_i): matrix ``matrices[i]`` relocated by
    ``ops[i]``, summed in list order from zero.  The operators must share
    one tensor shape."""
    if not ops or len(ops) != len(matrices):
        raise ShapeMismatch(f"{len(matrices)} matrices for {len(ops)} operators")
    total = np.zeros(ops[0].dst_shape)
    for op, A in zip(ops, matrices):
        if op.dst_shape != total.shape:
            raise ShapeMismatch(
                f"operators map into {quoted(total.shape)} and {quoted(op.dst_shape)}")
        total += op.apply(A)
    return total


def cross_map(op_i, op_j):
    """Entry permutation realizing adjoint(op_j) o apply(op_i).

    Entry k of the source matrix lands at entry cross[k] of the destination
    matrix, i.e. cross = inv_perm_j o perm_i.  Read the other way round, it
    is a gather: M.ravel()[cross_map(op_j, op_i)] is the flattened
    adjoint(op_j)(apply(op_i)(M)).
    """
    if op_i.size != op_j.size:
        raise ShapeMismatch(
            f"operators relocate different element counts: {quoted(op_i.size)} vs {quoted(op_j.size)}"
        )
    return op_j.inv_perm[op_i.perm].astype(np.intp)

