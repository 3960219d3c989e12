import numpy as np
import pytest

from rtd.analysis import (
    DB_CAP,
    certificate_csv,
    certificate_threshold,
    estimate_component_count,
    incoherence_lower_bound,
    recovery_bound_min_n,
    sir,
    tangent_basis,
    tangent_project,
    tsir,
)
from rtd.errors import AllZeroSignal, BadIndex, DegenerateRank, ShapeMismatch
from rtd.linalg import random_semi_orthonormal_pair
from rtd.reshuffle import reshuffle_from_seed, reshuffle_identity
from rtd.rng import gaussians


def test_sir_examples():
    a = np.ones(4)
    assert sir(a, a) == DB_CAP
    # error energy one tenth of the signal energy: exactly 10 dB
    est = a.copy()
    est[0] += np.sqrt(0.4)
    assert sir(a, est) == pytest.approx(10.0, abs=1e-12)
    assert sir(a, np.zeros(4)) == pytest.approx(0.0, abs=1e-12)


def test_sir_scale_invariance():
    a = gaussians(20, 1)
    b = a + 0.1 * gaussians(20, 2)
    assert sir(3.0 * a, 3.0 * b) == pytest.approx(sir(a, b), rel=1e-12)


def test_sir_errors():
    with pytest.raises(AllZeroSignal):
        sir(np.zeros(3), np.ones(3))
    with pytest.raises(ShapeMismatch):
        sir(np.ones(3), np.ones(4))


def test_tsir_pools_energy():
    a1, a2 = np.ones(4), np.zeros(4)
    b1 = a1.copy()
    b1[0] += 2.0
    # pooled: signal 4, error 4 -> 0 dB even though component 2 is exact
    assert tsir([a1, a2], [b1, a2]) == pytest.approx(0.0, abs=1e-12)
    assert tsir([a1], [a1]) == DB_CAP
    with pytest.raises(ShapeMismatch):
        tsir([a1], [a1, a2])
    with pytest.raises(ShapeMismatch):
        tsir([np.ones(3)], [np.ones(4)])
    with pytest.raises(AllZeroSignal):
        tsir([np.zeros(2)], [np.zeros(2)])


def test_tsir_cap_is_monotone():
    # Error energies from 1e-20 down to 1e-40 of the signal's, then none:
    # the score rises to the cap and stays there, never past it.
    a = np.array([1.0, 0.0])
    scores = [tsir([a], [np.array([1.0, d])]) for d in 10.0 ** -np.arange(10.0, 21.0)]
    scores.append(tsir([a], [a]))
    assert all(x <= y for x, y in zip(scores, scores[1:]))
    assert max(scores) == DB_CAP
    assert scores[4] == pytest.approx(280.0, abs=1e-9)
    # One unit in the last place of one entry of two is 316 dB uncapped.
    assert tsir([np.ones(2)], [np.array([1.0, 1.0 + 2.0**-52])]) == DB_CAP


def test_tsir_and_component_count_do_not_change_with_scale():
    # pytest turns warnings into errors here, so an under- or overflow in
    # the energies fails.
    truth = [gaussians(30, seed).reshape(5, 6) for seed in (1, 2, 3)]
    est = [a + 0.05 * gaussians(30, 10 + i).reshape(5, 6) for i, a in enumerate(truth)]
    comps = [truth[0], 0.5 * truth[1], 1e-3 * truth[2]]
    base, count = tsir(truth, est), estimate_component_count(comps, 0.1)
    assert count == 2

    def scaled(c):
        return tsir([c * a for a in truth], [c * b for b in est])

    for c in (2.0**-560, 2.0**560):
        assert scaled(c) == base, c
    for c in (1e-170, 1e170):
        assert abs(scaled(c) - base) <= 2 * np.spacing(base), c
    for c in (2.0**-560, 2.0**560, 1e-170, 1e170):
        assert estimate_component_count([c * a for a in comps], 0.1) == count, c


def test_tsir_of_an_estimate_far_larger_than_its_reference_is_finite():
    # pytest turns warnings into errors here, so an overflow in the error
    # energy fails.  The ratio is (1e-300 / 1e10)**2, -6,200 dB.
    for c in (1.0, 2.0**-20, 2.0**900):
        got = tsir([c * 1e-300 * np.ones(4)], [c * 1e10 * np.ones(4)])
        assert got == pytest.approx(-6200.0, abs=1e-9), c
    assert tsir([1e-308 * np.ones(4)], [-1e308 * np.ones(4)]) == pytest.approx(-12320.0, abs=1e-9)


def test_recovery_bound_values():
    assert recovery_bound_min_n(1, 1) == 2
    assert recovery_bound_min_n(2, 1) == 17
    assert recovery_bound_min_n(2, 4) == 65
    assert recovery_bound_min_n(3, 1) == 50
    assert recovery_bound_min_n(5, 2) == 339
    with pytest.raises(ValueError):
        recovery_bound_min_n(0, 1)
    with pytest.raises(ValueError):
        recovery_bound_min_n(1, 0)


def test_recovery_bound_growth():
    # linear in r, quadratic in the operator count
    for N in range(1, 5):
        c = (3 * N - 2) ** 2
        for r in range(1, 5):
            assert recovery_bound_min_n(N, r) == c * r + 1


def test_certificate_threshold_values():
    expect = {1: 1.0, 2: 0.25, 3: 1.0 / 7.0, 4: 0.1, 5: 1.0 / 13.0}
    for N, v in expect.items():
        assert certificate_threshold(N) == pytest.approx(v, abs=1e-15)
    with pytest.raises(ValueError):
        certificate_threshold(0)


def test_exact_recovery_certificate():
    # Certified iff no component's verdict is "falsified": max mu_i < 1/(3N - 2).
    def certified(mu_values):
        return ",falsified\n" not in certificate_csv(mu_values)

    assert certified([0.9])  # N=1 threshold is 1
    assert certified([0.2, 0.24])
    assert not certified([0.2, 0.25])
    assert not certified([0.05, 0.5, 0.01])


def test_tangent_basis_orthonormal():
    U, V = random_semi_orthonormal_pair(8, 3, 2)
    T = tangent_basis(U @ V.T)
    assert T.U.shape[1] == 3
    assert np.allclose(T.U.T @ T.U, np.eye(3), atol=1e-10)
    assert np.allclose(T.V.T @ T.V, np.eye(3), atol=1e-10)
    with pytest.raises(DegenerateRank):
        tangent_basis(np.zeros((4, 4)))


def test_tangent_project_properties():
    U, V = random_semi_orthonormal_pair(7, 2, 3)
    A = U @ V.T
    T = tangent_basis(A)
    M = gaussians(49, 5).reshape(7, 7)
    P = tangent_project(T, M)
    # idempotent
    assert np.allclose(tangent_project(T, P), P, atol=1e-10)
    # fixes the range: A itself and U W^T + Z V^T directions
    assert np.allclose(tangent_project(T, A), A, atol=1e-10)
    W = gaussians(14, 6).reshape(7, 2)
    D = U @ W.T + W @ V.T
    assert np.allclose(tangent_project(T, D), D, atol=1e-10)
    # self-adjoint: <P(M), G> == <M, P(G)>
    G = gaussians(49, 7).reshape(7, 7)
    lhs = float(np.sum(P * G))
    rhs = float(np.sum(M * tangent_project(T, G)))
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # contraction in Frobenius norm
    assert np.linalg.norm(P) <= np.linalg.norm(M) + 1e-12
    with pytest.raises(ShapeMismatch):
        tangent_project(T, np.zeros((3, 3)))


def test_incoherence_identical_ops_is_one():
    U, V = random_semi_orthonormal_pair(6, 2, 1)
    A = U @ V.T
    op = reshuffle_from_seed(6, 6, (36,), 5)
    est = incoherence_lower_bound(A, [op, op], 0, restarts=4, iters=50, seed=0)
    # identical operators make the cross map the identity, where the
    # supremum over the unit-spectral-norm tangent set is exactly 1
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_incoherence_single_op_vacuous():
    A = np.eye(3)
    op = reshuffle_identity(3, 3, (9,))
    est = incoherence_lower_bound(A, [op], 0)
    assert est.value == 0.0
    assert est.restart_values == [0.0] * est.restarts
    assert all(est.converged)


def test_incoherence_is_lower_bound_and_monotone_in_restarts():
    A = np.outer([2.0, 1.0], [1.0, 1.0])
    ops = [reshuffle_from_seed(2, 2, (4,), 3), reshuffle_from_seed(2, 2, (4,), 17)]
    prev = 0.0
    for restarts in (1, 2, 4, 8):
        est = incoherence_lower_bound(A, ops, 0, restarts=restarts, iters=50, seed=0)
        assert est.value >= prev
        assert est.value == max(est.restart_values)
        assert len(est.restart_values) == restarts
        prev = est.value
    # permutations preserve Frobenius norm, so for 2x2 matrices the value
    # can never exceed sqrt(2) times the unit spectral norm of the input
    assert prev <= np.sqrt(2.0) + 1e-12


def test_incoherence_validation():
    A = np.eye(2)
    ops = [reshuffle_identity(2, 2, (4,)), reshuffle_from_seed(2, 2, (4,), 1)]
    with pytest.raises(BadIndex):
        incoherence_lower_bound(A, ops, 2)
    with pytest.raises(ShapeMismatch):
        incoherence_lower_bound(np.eye(3), ops, 0)
    with pytest.raises(ValueError):
        incoherence_lower_bound(A, ops, 0, restarts=0)
    for seed in (-1, 1 << 64):
        with pytest.raises(BadIndex):
            incoherence_lower_bound(A, ops, 0, seed=seed)


def test_estimate_component_count():
    comps = [np.full((2, 2), 1.0), np.full((2, 2), 0.9), np.full((2, 2), 1e-4), np.zeros((2, 2))]
    assert estimate_component_count(comps, 0.1) == 2
    assert estimate_component_count(comps, 1e-5) == 3
    assert estimate_component_count([np.zeros((2, 2))], 0.1) == 0
    assert estimate_component_count([], 0.1) == 0
    with pytest.raises(ValueError):
        estimate_component_count(comps, 0.0)


def test_certificate_csv_golden():
    text = certificate_csv([0.2, 0.3])
    assert text == (
        "component,mu_lower_bound,threshold,verdict\n"
        "0,0.2,0.25,not falsified\n"
        "1,0.3,0.25,falsified\n"
    )


@pytest.mark.parametrize("check", [certificate_csv])
@pytest.mark.parametrize("mu_values", [[], [-0.1], [0.1, -0.1]])
def test_mu_list_must_be_nonempty_and_nonnegative(check, mu_values):
    with pytest.raises(ValueError):
        check(mu_values)
