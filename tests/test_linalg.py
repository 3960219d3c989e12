import numpy as np
import pytest

import rtd.linalg as linalg_mod
from rtd.errors import BadRank, NonFinite
from rtd.linalg import (
    OVERSAMPLE,
    POWER_STEPS,
    RANK_CUTOFF,
    TAIL_BELOW,
    _semi_orthonormal,
    nuclear_norm,
    numerical_rank,
    random_semi_orthonormal_pair,
    spectral_norm,
    svd_full,
    svt,
    svt_with_values,
)
from rtd.rng import derive_seed, gaussians


def random_matrix(m, n, seed):
    return gaussians(m * n, seed).reshape(m, n)


def test_svd_full_reconstructs():
    M = random_matrix(5, 3, 1)
    f = svd_full(M)
    assert np.allclose((f.U * f.S) @ f.V.T, M, rtol=0, atol=1e-8 * spectral_norm(M))
    assert f.U.shape == (5, 3) and f.S.shape == (3,) and f.V.shape == (3, 3)
    assert np.all(np.diff(f.S) <= 0) and np.all(f.S >= 0)
    assert np.allclose(f.U.T @ f.U, np.eye(3), atol=1e-10)
    assert np.allclose(f.V.T @ f.V, np.eye(3), atol=1e-10)


def test_svt_matches_scalar_shrinkage():
    for seed in range(10):
        M = random_matrix(4, 5, seed)
        for alpha in (0.1, 0.5, 2.0):
            f = svd_full(M)
            shrunk = np.maximum(f.S - alpha, 0.0)
            expect = (f.U * shrunk) @ f.V.T
            assert np.allclose(svt(M, alpha), expect, atol=1e-10)


def test_svt_values_are_thresholded_spectrum():
    M = np.diag([3.0, 1.0, 0.2])
    step = svt_with_values(M, 0.5)
    assert step.rank == 2 and not step.partial
    assert step.nuclear == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(step.out, np.diag([2.5, 0.5, 0.0]), atol=1e-12)


def test_svt_zero_alpha_is_identity():
    M = random_matrix(4, 4, 3)
    assert np.allclose(svt(M, 0.0), M, atol=1e-12)


def test_svt_large_alpha_gives_zero():
    M = random_matrix(4, 4, 3)
    step = svt_with_values(M, 10.0 * spectral_norm(M))
    assert not step.out.any()
    assert step.rank == 0 and step.nuclear == 0.0


def prox_objective(Z, M, alpha):
    return alpha * nuclear_norm(Z) + 0.5 * np.sum((Z - M) ** 2)


def test_svt_minimizes_prox_objective():
    rng = np.random.default_rng(7)
    for seed in range(5):
        M = random_matrix(3, 4, seed + 20)
        for alpha in (0.1, 0.5, 2.0):
            Z = svt(M, alpha)
            base = prox_objective(Z, M, alpha)
            for _ in range(200):
                pert = Z + rng.normal(scale=10.0 ** rng.uniform(-4, 0), size=Z.shape)
                assert prox_objective(pert, M, alpha) >= base - 1e-12


def test_spectral_and_nuclear_on_knowns():
    M = np.diag([3.0, 2.0, 1.0])
    assert spectral_norm(M) == pytest.approx(3.0, abs=1e-12)
    assert nuclear_norm(M) == pytest.approx(6.0, abs=1e-12)
    # rank-1: outer(u, v) has single singular value |u||v|
    u = np.array([3.0, 4.0])
    v = np.array([1.0, 2.0, 2.0])
    R = np.outer(u, v)
    assert spectral_norm(R) == pytest.approx(15.0, rel=1e-12)
    assert nuclear_norm(R) == pytest.approx(15.0, rel=1e-12)


def test_numerical_rank():
    assert numerical_rank(np.array([3.0, 2.0, 1.0])) == 3
    assert numerical_rank(np.array([1.0, 1e-15, 0.0])) == 1
    assert numerical_rank(np.array([1.0, 2 * RANK_CUTOFF, 0.0])) == 2
    assert numerical_rank(np.array([0.0, 0.0])) == 0
    assert numerical_rank(np.array([])) == 0


def test_nonfinite_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFinite):
        svd_full(bad)
    with pytest.raises(NonFinite):
        svt(bad, 0.1)
    with pytest.raises(NonFinite):
        spectral_norm(np.array([[np.inf]]))
    with pytest.raises(NonFinite):
        nuclear_norm(np.ones(3))  # not 2-D


def test_semi_orthonormal_pair_properties():
    U, V = random_semi_orthonormal_pair(12, 4, 0)
    assert U.shape == (12, 4) and V.shape == (12, 4)
    assert np.allclose(U.T @ U, np.eye(4), atol=1e-10)
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-10)
    A = U @ V.T
    S = svd_full(A).S
    assert numerical_rank(S) == 4
    assert np.allclose(S[:4], 1.0, atol=1e-10)
    # Frobenius norm squared of a rank-r product of orthonormal factors is r
    assert np.sum(A * A) == pytest.approx(4.0, rel=1e-12)


def test_semi_orthonormal_pair_deterministic_and_independent():
    U1, V1 = random_semi_orthonormal_pair(8, 2, 5)
    U2, V2 = random_semi_orthonormal_pair(8, 2, 5)
    assert np.array_equal(U1, U2) and np.array_equal(V1, V2)
    U3, _ = random_semi_orthonormal_pair(8, 2, 6)
    assert not np.array_equal(U1, U3)
    assert not np.array_equal(U1, V1)


def test_semi_orthonormal_bad_rank():
    with pytest.raises(BadRank):
        random_semi_orthonormal_pair(4, 0, 0)
    with pytest.raises(BadRank):
        random_semi_orthonormal_pair(4, 5, 0)


def orthonormal(n, k, seed):
    return np.linalg.qr(random_matrix(n, k, seed))[0]


def gapped_matrix(m, n, top, seed, tail=0.3):
    """Singular values ``top`` followed by a geometric tail from ``tail`` down."""
    k = min(m, n)
    U = orthonormal(m, k, derive_seed(seed, 0))
    V = orthonormal(n, k, derive_seed(seed, 1))
    S = np.concatenate([top, tail * 0.9 ** np.arange(k - len(top))])
    return (U * S) @ V.T


@pytest.fixture
def qr_calls(monkeypatch):
    """Shapes of the blocks orthonormalised while thresholding."""
    calls = []
    real = linalg_mod._orth

    def spy(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(linalg_mod, "_orth", spy)
    return calls


@pytest.fixture
def gaussian_draws(monkeypatch):
    """Count of Gaussian blocks drawn while thresholding."""
    draws = []
    real = linalg_mod.gaussians

    def spy(count, seed):
        draws.append(count)
        return real(count, seed)

    monkeypatch.setattr(linalg_mod, "gaussians", spy)
    return draws


def test_warm_partial_svt_matches_full(qr_calls):
    for m, n, seed in ((80, 60, 1), (60, 80, 2), (100, 100, 3)):
        M = gapped_matrix(m, n, [9.0, 7.0, 5.0, 4.0, 3.0], seed)
        nearby = M + 0.01 * gaussians(m * n, derive_seed(seed, 7)).reshape(m, n)
        # A one-column block misses, so the first call takes the full SVD.
        first = svt_with_values(nearby, 1.0, orthonormal(n, 1, seed))
        assert not first.partial
        assert first.basis.shape == (n, 5 + OVERSAMPLE)
        qr_calls.clear()
        step = svt_with_values(M, 1.0, first.basis)
        assert step.partial
        # One QR per power step, none for the Rayleigh-Ritz step.
        assert qr_calls == [(n, 5 + OVERSAMPLE)] * POWER_STEPS
        expect = svt_with_values(M, 1.0)
        assert step.rank == expect.rank == 5
        assert np.abs(step.out - expect.out).max() <= 1e-8
        assert abs(step.nuclear - expect.nuclear) <= 1e-8
        assert step.basis.shape == (n, 5 + OVERSAMPLE)


def test_seeded_warm_start_thresholds_its_first_call_partially():
    width = OVERSAMPLE + TAIL_BELOW
    for m, n, seed in ((80, 60, 4), (60, 80, 5), (100, 100, 6)):
        start = _semi_orthonormal(n, width, seed)
        # An orthonormal Gaussian block, a pure function of the seed.
        assert start.shape == (n, width)
        assert np.abs(start.T @ start - np.eye(width)).max() <= 1e-12
        assert np.array_equal(_semi_orthonormal(n, width, seed), start)
        assert not np.array_equal(_semi_orthonormal(n, width, seed + 1), start)
        M = gapped_matrix(m, n, [9.0, 7.0, 5.0], seed, tail=0.01)
        step = svt_with_values(M, 1.0, start)
        assert step.partial
        expect = svt_with_values(M, 1.0)
        assert step.rank == expect.rank == 3
        assert np.abs(step.out - expect.out).max() <= 1e-8
        assert abs(step.nuclear - expect.nuclear) <= 1e-8
        assert step.basis.shape == (n, width)


def test_svt_step_records_what_it_did():
    # Three singular values above alpha.  A block with room for the kept
    # rank, OVERSAMPLE and TAIL_BELOW vectors is accepted; a one-column block
    # misses the tail and the full SVD runs.
    alpha = 1.0
    for m, n, seed in ((80, 60, 11), (60, 80, 12)):
        M = gapped_matrix(m, n, [9.0, 7.0, 5.0], seed, tail=0.01)
        S = np.linalg.svd(M, compute_uv=False)
        kept = S[S > alpha] - alpha
        accepted = svt_with_values(M, alpha, orthonormal(n, 3 + OVERSAMPLE + TAIL_BELOW, seed))
        missed = svt_with_values(M, alpha, orthonormal(n, 1, seed))
        assert accepted.partial and not missed.partial
        for step in (accepted, missed):
            assert step.rank == kept.size == 3
            assert step.nuclear == pytest.approx(kept.sum(), rel=1e-12)
            assert step.basis.shape == (n, step.rank + OVERSAMPLE)
            assert np.abs(step.basis.T @ step.basis - np.eye(step.rank + OVERSAMPLE)).max() <= 1e-12
        assert np.abs(accepted.out - svt(M, alpha)).max() <= 1e-8
        assert np.array_equal(missed.out, svt(M, alpha))


def test_partial_svt_missed_block_runs_the_full_svd(gaussian_draws):
    # Ten singular values above alpha: a 3-column block misses the tail, and
    # the full SVD runs in place of a wider block.
    M = gapped_matrix(120, 120, np.arange(11.0, 1.0, -1.0), 4, tail=0.01)
    step = svt_with_values(M, 0.5, orthonormal(120, 3, 5))
    assert not step.partial and gaussian_draws == []
    expect = svt_with_values(M, 0.5)
    assert np.array_equal(step.out, expect.out)
    assert step.nuclear == expect.nuclear and step.rank == expect.rank == 10
    assert step.basis.shape == (120, 10 + OVERSAMPLE)


def test_partial_svt_falls_back_above_half_size(qr_calls, gaussian_draws):
    M = random_matrix(40, 40, 6)
    expect = svt(M, 1e-3)
    # A start block wider than min(m, n) // 2 goes straight to the full SVD.
    step = svt_with_values(M, 1e-3, orthonormal(40, 21, 7))
    assert np.array_equal(step.out, expect)
    assert not step.partial and qr_calls == [] and gaussian_draws == []
    # A block of half the size runs the subspace iteration.  A full-rank
    # matrix misses with any block, and the full SVD runs once.
    step = svt_with_values(M, 1e-3, orthonormal(40, 20, 7))
    assert np.array_equal(step.out, expect)
    assert not step.partial and gaussian_draws == []
    assert qr_calls == [(40, 20)] * POWER_STEPS


def test_warm_partial_svt_keeps_a_wide_dynamic_range():
    # Kept singular values down to 1e-4 relative, far above the sqrt(eps)
    # limit of squaring the spectrum within a power step.
    top = [1.0, 1e-1, 1e-2, 1e-3, 1e-4]
    for m, n, seed in ((100, 100, 1), (80, 60, 2), (60, 80, 3)):
        M = gapped_matrix(m, n, top, seed, tail=1e-6)
        nearby = M + 1e-7 * gaussians(m * n, derive_seed(seed, 7)).reshape(m, n)
        first = svt_with_values(nearby, 5e-5, _semi_orthonormal(n, OVERSAMPLE + TAIL_BELOW, seed))
        step = svt_with_values(M, 5e-5, first.basis)
        assert step.partial
        expect = svt_with_values(M, 5e-5)
        assert step.rank == expect.rank == 5
        assert np.linalg.norm(step.out - expect.out) <= 1e-12 * np.linalg.norm(expect.out)
        assert abs(step.nuclear - expect.nuclear) <= 1e-12 * spectral_norm(expect.out)


def test_partial_svt_large_alpha_gives_zero():
    M = gapped_matrix(64, 64, [4.0, 2.0], 8)
    step = svt_with_values(M, spectral_norm(M), orthonormal(64, OVERSAMPLE, 9))
    assert step.partial
    assert not step.out.any()
    assert step.rank == 0 and step.nuclear == 0.0
    assert step.basis.shape == (64, OVERSAMPLE)


def test_partial_svt_reruns_identical():
    def run():
        basis = orthonormal(96, 2, 3)
        outs = []
        for seed in range(4):
            M = gapped_matrix(96, 96, np.arange(8.0, 0.0, -1.0), 10 + seed)
            step = svt_with_values(M, 0.5, basis)
            basis = step.basis
            outs += [step.out.tobytes(), step.nuclear, step.rank, step.partial, basis.tobytes()]
        return outs

    assert run() == run()
