import numpy as np

from rtd.reshuffle import ReshuffleOp
from rtd.rng import derive_seed, gaussians


def low_rank_image(h, w, rank, seed, peak=0.8):
    """Nonnegative rank-`rank` test image with values in [0, peak]."""
    F = np.abs(gaussians(h * rank, derive_seed(seed, 0)).reshape(h, rank))
    G = np.abs(gaussians(w * rank, derive_seed(seed, 1)).reshape(w, rank))
    M = F @ G.T
    return M * (peak / M.max())


def with_perm(op, perm, m, n):
    """A fresh m x n ReshuffleOp with op's tensor shape and seed, whose cached
    ``perm`` is set to a frozen, contiguous copy of ``perm``.  The copy must
    keep op's dtype, as a built permutation does."""
    moved = ReshuffleOp(m, n, op.dst_shape, op.seed)
    perm = np.array(perm, order="C")
    assert perm.dtype == op.perm.dtype
    perm.flags.writeable = False
    moved.__dict__["perm"] = perm  # perm is a cached_property
    return moved


def relabelled(X, ops, P):
    """The observation X and its operators with the tensor's cells relabelled
    by the permutation P: cell k moves to P[k], so each perm becomes P[perm]."""
    moved_X = np.empty(X.size)
    moved_X[P] = X.ravel()
    return moved_X.reshape(X.shape), [with_perm(op, P[op.perm], op.m, op.n) for op in ops]


def assert_same_run(result, base, label):
    """Equal sweeps, byte-identical components and objective and kappa
    histories, and residual and dual histories within 4 ulp."""
    assert result.iterations == base.iterations, label
    for got, want in zip(result.components, base.components):
        assert np.array_equal(got, want), label
    assert result.objective_history == base.objective_history, label
    assert result.kappa_history == base.kappa_history, label
    eps = np.finfo(np.float64).eps
    np.testing.assert_allclose(result.residual_history, base.residual_history, rtol=4 * eps)
    np.testing.assert_allclose(result.dual_history, base.dual_history, rtol=4 * eps)
