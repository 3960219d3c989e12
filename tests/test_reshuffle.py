import tracemalloc

import numpy as np
import pytest
from test_rng import reference_permutation

import rtd.reshuffle as reshuffle
from rtd.errors import BadIndex, ShapeMismatch
from rtd.reshuffle import (
    MAX_EXTENTS,
    ReshuffleOp,
    cross_map,
    observe,
    reshuffle_from_seed,
    reshuffle_identity,
)
from rtd.rng import gaussians, random_permutation
from rtd.solver import Problem, SolverConfig, decompose


def test_identity_perm_values():
    assert reshuffle_identity(2, 2, (2, 2)).perm.tolist() == [0, 1, 2, 3]
    assert reshuffle_identity(2, 3, (3, 2)).perm.tolist() == [0, 1, 2, 3, 4, 5]
    assert reshuffle_identity(4, 4, (2, 2, 4)).perm.tolist() == list(range(16))


def test_identity_is_classical_folding():
    A = np.arange(6.0).reshape(2, 3)
    op = reshuffle_identity(2, 3, (3, 2))
    Y = op.apply(A)
    # entry (0, 2) of the matrix lands at tensor multi-index (1, 0)
    assert Y[1, 0] == A[0, 2]
    assert np.array_equal(Y, A.reshape(3, 2))


def test_apply_identity_keeps_entries():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    Y = reshuffle_identity(2, 2, (2, 2)).apply(A)
    assert np.array_equal(Y, A)


def test_roundtrip_exact():
    op = reshuffle_from_seed(5, 8, (2, 20), 3)
    A = gaussians(40, 1).reshape(5, 8)
    assert np.array_equal(op.adjoint(op.apply(A)), A)
    Y = gaussians(40, 2).reshape(2, 20)
    assert np.array_equal(op.apply(op.adjoint(Y)), Y)


def test_perm_is_bijection_with_inverse():
    op = reshuffle_from_seed(6, 7, (42,), 11)
    assert sorted(op.perm.tolist()) == list(range(42))
    assert np.array_equal(op.inv_perm[op.perm], np.arange(42))


def test_adjoint_inner_product_exact_on_integers():
    op = reshuffle_from_seed(4, 6, (3, 8), 5)
    rng = np.random.default_rng(0)
    A = rng.integers(-9, 10, size=(4, 6)).astype(float)
    Y = rng.integers(-9, 10, size=(3, 8)).astype(float)
    assert float(np.sum(op.apply(A) * Y)) == float(np.sum(A * op.adjoint(Y)))


def test_norm_preserved():
    op = reshuffle_from_seed(9, 4, (6, 6), 2)
    A = gaussians(36, 5).reshape(9, 4)
    Y = op.apply(A)
    # entries are relocated verbatim, so the multiset is preserved exactly
    assert np.array_equal(np.sort(Y.ravel()), np.sort(A.ravel()))
    assert np.linalg.norm(Y) == pytest.approx(np.linalg.norm(A), rel=1e-13)


def test_linearity_exact():
    op = reshuffle_from_seed(3, 5, (15,), 8)
    A = gaussians(15, 1).reshape(3, 5)
    B = gaussians(15, 2).reshape(3, 5)
    assert np.array_equal(op.apply(2.0 * A + 0.5 * B), 2.0 * op.apply(A) + 0.5 * op.apply(B))


def test_zero_maps_to_zero():
    op = reshuffle_from_seed(3, 4, (12,), 1)
    assert not op.apply(np.zeros((3, 4))).any()
    assert not op.adjoint(np.zeros(12)).any()


def test_deterministic_per_seed():
    a = reshuffle_from_seed(4, 4, (16,), 9)
    b = reshuffle_from_seed(4, 4, (16,), 9)
    assert np.array_equal(a.perm, b.perm)


def test_shape_mismatch_errors():
    with pytest.raises(ShapeMismatch):
        reshuffle_identity(2, 3, (7,))
    with pytest.raises(ShapeMismatch):
        reshuffle_from_seed(2, 2, (2, 3), 0)
    op = reshuffle_from_seed(2, 2, (4,), 0)
    with pytest.raises(ShapeMismatch):
        op.apply(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        op.adjoint(np.zeros(5))
    with pytest.raises(ShapeMismatch):
        reshuffle_identity(0, 3, (0,))
    with pytest.raises(ShapeMismatch, match="tensor extents"):
        reshuffle_identity(2, 2, (4, 0))
    with pytest.raises(ShapeMismatch, match="integers"):
        ReshuffleOp(2.5, 2, (5,))
    with pytest.raises(ShapeMismatch, match="integers"):
        ReshuffleOp(2, 2, (4.7,))
    op = ReshuffleOp(np.int64(2), np.int32(2), (np.int64(4),))
    assert op.dst_shape == (4,) and type(op.dst_shape[0]) is int
    # A seeded permutation holds at most 2**32 entries; the identity has no
    # such limit.  Neither check builds a permutation.
    tracemalloc.start()
    try:
        with pytest.raises(ShapeMismatch, match="at most 2\\*\\*32"):
            reshuffle_from_seed(1 << 17, 1 << 16, (1 << 33,), 1)
        reshuffle_identity(1 << 17, 1 << 16, (1 << 33,))
        reshuffle_from_seed(1 << 16, 1 << 16, (1 << 32,), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_observe_is_the_sum_of_applies_bit_for_bit():
    ops = [
        reshuffle_identity(3, 4, (2, 6)),
        reshuffle_from_seed(3, 4, (2, 6), 5),
        reshuffle_from_seed(4, 3, (2, 6), 6),
    ]
    # Magnitudes far apart, so a different summation order rounds differently.
    mats = [gaussians(12, s).reshape(op.m, op.n) * 1e8**s for s, op in enumerate(ops)]
    total = np.zeros((2, 6))
    for op, A in zip(ops, mats):
        total += op.apply(A)
    assert observe(ops, mats).tobytes() == total.tobytes()
    assert observe(ops[:1], mats[:1]).tobytes() == ops[0].apply(mats[0]).tobytes()
    with pytest.raises(ShapeMismatch, match="operators map into"):
        observe([ops[0], reshuffle_identity(3, 4, (12,))], mats[:2])


def test_seed_must_be_a_64_bit_unsigned_integer():
    for seed in (1 << 64, -1, 1.0, "3"):
        with pytest.raises(BadIndex, match="operator seed"):
            ReshuffleOp(2, 2, (4,), seed)
    op = ReshuffleOp(2, 2, (4,), np.uint64((1 << 64) - 1))
    assert op == ReshuffleOp(2, 2, (4,), (1 << 64) - 1)
    assert op.perm.tolist() == random_permutation(4, (1 << 64) - 1).tolist()


def test_fields_describe_the_operator():
    op = ReshuffleOp(3, 4, [2, 6], 7)
    assert op == reshuffle_from_seed(3, 4, (2, 6), 7)
    assert op.dst_shape == (2, 6)
    assert op.perm.tolist() == random_permutation(12, 7).tolist()
    assert op.inv_perm[op.perm].tolist() == list(range(12))
    ident = ReshuffleOp(3, 4, (12,))
    assert ident == reshuffle_identity(3, 4, (12,))
    assert ident.seed is None and np.array_equal(ident.inv_perm, ident.perm)


def test_shapes_are_checked_before_any_permutation_is_built(monkeypatch):
    def refuse(count, seed):
        raise AssertionError(f"built a permutation of {count} entries")

    monkeypatch.setattr(reshuffle, "random_permutation", refuse)
    # 4e8 entries: building this permutation would need gigabytes
    op = reshuffle_from_seed(20000, 20000, (400000000,), 1)
    with pytest.raises(ShapeMismatch, match="operator maps into"):
        Problem(np.zeros(16), [op])


def test_a_long_shape_is_refused_with_a_short_message():
    # NumPy holds at most MAX_EXTENTS dimensions, so a longer shape would
    # pass here and make apply raise NumPy's own ValueError.  A shape of
    # MAX_EXTENTS extents of 10**18 holds 10**1152 entries; in full, its
    # message quoted 2,534 characters.
    for shape, match in (((1,) * (MAX_EXTENTS + 1), f"1 to {MAX_EXTENTS} extents, got 65"),
                         ((), f"1 to {MAX_EXTENTS} extents, got 0"),
                         ((1,) * 30000, "got 30000"),
                         ((10**18,) * MAX_EXTENTS, "element counts differ")):
        with pytest.raises(ShapeMismatch, match=match) as info:
            ReshuffleOp(1, 1, shape)
        assert len(str(info.value)) < 300
    op = ReshuffleOp(1, 1, (1,) * MAX_EXTENTS)
    assert op.apply(np.ones((1, 1))).shape == (1,) * MAX_EXTENTS
    with pytest.raises(ShapeMismatch, match=f"operator maps into a tuple of length {MAX_EXTENTS}") as info:
        Problem(np.zeros(1), [op])
    assert len(str(info.value)) < 300


def test_cross_map_self_is_identity():
    op = reshuffle_from_seed(4, 4, (16,), 3)
    assert cross_map(op, op).tolist() == list(range(16))


def test_cross_map_with_identity():
    ident = reshuffle_identity(4, 4, (16,))
    op = reshuffle_from_seed(4, 4, (16,), 3)
    assert np.array_equal(cross_map(ident, op), op.inv_perm)


def test_cross_map_agrees_with_two_path():
    op_i = reshuffle_from_seed(4, 6, (24,), 1)
    op_j = reshuffle_from_seed(3, 8, (24,), 2)
    A = gaussians(24, 4).reshape(4, 6)
    via_ops = op_j.adjoint(op_i.apply(A))
    cross = cross_map(op_i, op_j)
    scattered = np.empty(24)
    scattered[cross] = A.ravel()
    assert np.array_equal(scattered.reshape(3, 8), via_ops)


def test_cross_map_gathers_one_layout_into_another():
    # The solver's relayout step: a gather through cross_map(op_j, op_i)
    # takes a matrix in op_i's layout to op_j's, across matrix shapes.
    ops = [
        reshuffle_from_seed(4, 6, (2, 3, 4), 1),
        reshuffle_from_seed(3, 8, (2, 3, 4), 2),
        reshuffle_identity(4, 6, (2, 3, 4)),
    ]
    for op_i in ops:
        M = gaussians(24, 5).reshape(op_i.m, op_i.n)
        for op_j in ops:
            want = op_j.adjoint(op_i.apply(M)).ravel()
            assert np.array_equal(M.ravel()[cross_map(op_j, op_i)], want)


def test_apply_scatter_matches_the_inverse_gather_bit_for_bit():
    for op in (reshuffle_from_seed(4, 6, (3, 8), 9), reshuffle_identity(4, 6, (24,))):
        floats = gaussians(24, 3)
        floats[:3] = (-0.0, np.nan, np.inf)
        ints = np.arange(-12, 12, dtype=np.int64)
        for values in (floats, ints):
            A = values.reshape(4, 6)
            out = op.apply(A)
            assert out.dtype == A.dtype and out.shape == op.dst_shape
            assert out.tobytes() == A.ravel()[op.inv_perm].tobytes()


def test_an_operator_stores_one_permutation():
    op = reshuffle_from_seed(6, 6, (36,), 8)
    other = reshuffle_from_seed(4, 9, (36,), 9)
    A = gaussians(36, 4).reshape(6, 6)
    X = observe([op, other], [A, gaussians(36, 5).reshape(4, 9)])
    op.adjoint(X)
    decompose(Problem(X, [op, other]), SolverConfig(max_iter=3))
    assert [k for k, v in vars(op).items() if isinstance(v, np.ndarray)] == ["perm"]
    first, second = op.inv_perm, op.inv_perm
    assert np.array_equal(first, second) and first is not second
    assert not first.flags.writeable and not second.flags.writeable


@pytest.mark.parametrize(
    "size, dtype",
    [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32)],
)
def test_perm_is_held_in_the_narrowest_unsigned_dtype(size, dtype):
    ident = reshuffle_identity(1, size, (size,))
    op = reshuffle_from_seed(1, size, (size,), size + 5)
    assert ident.perm.dtype == dtype and ident.perm.tolist() == list(range(size))
    assert op.perm.dtype == dtype
    assert op.perm.tolist() == reference_permutation(size, size + 5)
    wide = op.perm.astype(np.intp)
    inv = op.inv_perm
    assert inv.dtype == dtype and not inv.flags.writeable
    assert inv[wide].tolist() == list(range(size))
    for op_i in (ident, op):
        for op_j in (ident, op):
            assert cross_map(op_i, op_j).dtype == np.intp
    A = gaussians(size, 7).reshape(1, size)
    scattered = np.empty(size)
    scattered[wide] = A.ravel()
    assert op.apply(A).tobytes() == scattered.tobytes()
    assert op.adjoint(scattered).tobytes() == scattered[wide].tobytes()


def test_cross_map_size_mismatch():
    with pytest.raises(ShapeMismatch):
        cross_map(reshuffle_identity(2, 2, (4,)), reshuffle_identity(2, 3, (6,)))


def test_perm_arrays_frozen():
    op = reshuffle_from_seed(3, 3, (9,), 4)
    with pytest.raises(ValueError):
        op.perm[0] = 5
