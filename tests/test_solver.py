import dataclasses
import sys

import numpy as np
import pytest

import rtd.linalg as linalg_mod
import rtd.solver as solver_mod
from rtd.analysis import tsir
from rtd.errors import DivergenceDetected, NonFinite, ShapeMismatch
from rtd.experiments import make_instance
from rtd.linalg import nuclear_norm, random_semi_orthonormal_pair, svt
from rtd.reshuffle import observe, reshuffle_from_seed, reshuffle_identity
from rtd.rng import gaussians, random_permutation
from rtd.solver import (
    Problem,
    SolverConfig,
    at_noise_floor,
    decompose,
    default_kappa0,
    history_csv,
)

from conftest import assert_same_run, relabelled, with_perm


def relative_residual(X, ops, comps):
    """||X - sum_i R_i(A_i)||_F / ||X||_F."""
    return np.linalg.norm(X - observe(ops, comps)) / np.linalg.norm(X)


def two_component_problem(n=12, r=1, seed=0):
    ops = [reshuffle_from_seed(n, n, (n * n,), seed + i) for i in range(2)]
    comps = []
    X = np.zeros(n * n)
    for i, op in enumerate(ops):
        U, V = random_semi_orthonormal_pair(n, r, seed + 10 + i)
        A = U @ V.T
        comps.append(A)
        X += op.apply(A)
    return Problem(X, ops), comps


def test_single_component_exact():
    op = reshuffle_from_seed(10, 10, (4, 25), 3)
    U, V = random_semi_orthonormal_pair(10, 2, 7)
    A = U @ V.T
    problem = Problem(op.apply(A), [op])
    result = decompose(problem)
    assert result.converged
    assert result.stop_reason == "tol"
    err = np.linalg.norm(result.components[0] - A) / np.linalg.norm(A)
    assert err <= 1e-6


def test_two_components_exact():
    problem, truth = two_component_problem(n=16, r=1, seed=4)
    result = decompose(problem)
    assert result.converged
    for got, want in zip(result.components, truth):
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-5


def test_zero_observation():
    op = reshuffle_identity(3, 3, (9,))
    result = decompose(Problem(np.zeros(9), [op]))
    assert result.converged
    assert result.iterations == 1
    assert not result.components[0].any()


def test_result_histories_align():
    problem, _ = two_component_problem()
    result = decompose(problem)
    n = result.iterations
    assert len(result.residual_history) == n
    assert len(result.objective_history) == n
    assert len(result.kappa_history) == n
    assert len(result.dual_history) == n
    assert result.residual_history[-1] <= 1e-7


def test_geometric_kappa_schedule_exact():
    problem, _ = two_component_problem()
    result = decompose(problem, SolverConfig(max_iter=5, tol=1e-30))
    want = [default_kappa0(problem)]
    for _ in range(4):
        want.append(want[-1] * solver_mod.RHO)
    assert result.kappa_history == want


def test_default_kappa0_value():
    op = reshuffle_identity(2, 2, (4,))
    X = op.apply(np.diag([4.0, 1.0]))
    problem = Problem(X, [op])
    assert default_kappa0(problem) == pytest.approx(1.25 / 4.0, rel=1e-12)
    assert default_kappa0(Problem(np.zeros(4), [op])) == 1.0


def test_deterministic_reruns():
    problem, _ = two_component_problem(seed=9)
    r1 = decompose(problem)
    r2 = decompose(problem)
    assert r1.residual_history == r2.residual_history
    for a, b in zip(r1.components, r2.components):
        assert np.array_equal(a, b)


def test_divergence_detected(monkeypatch):
    real = solver_mod.svt_with_values

    def amplify(R, alpha, previous):
        # Ten times each threshold A: R + A stays the thresholded matrix, so
        # R gives up 9 A more, and the held factor L is ten times as large.
        step = real(R, alpha, previous)
        R -= 9 * step.out
        return dataclasses.replace(step, L=10 * step.L)

    monkeypatch.setattr(solver_mod, "svt_with_values", amplify)
    problem, _ = two_component_problem()
    with pytest.raises(DivergenceDetected):
        decompose(problem, SolverConfig(max_iter=2000, tol=1e-12))


def _reference_decompose(problem, iterations):
    """The update of decompose's docstring, transcribed without its running
    vector or its power-of-two scaling: a fresh sum of the other components
    per update, the full-SVD threshold ``svt``, kappa = kappa0 * RHO**(k - 1)
    and the dual step GAMMA * kappa."""
    x, ops = problem.X, problem.ops
    kappa0, rho, gamma = default_kappa0(problem), solver_mod.RHO, solver_mod.GAMMA
    y = np.zeros_like(x)
    comps = [np.zeros((op.m, op.n)) for op in ops]
    residuals = []
    for k in range(1, iterations + 1):
        kappa = kappa0 * rho ** (k - 1)
        for i, op in enumerate(ops):
            others = sum(ops[j].apply(comps[j]) for j in range(len(ops)) if j != i)
            comps[i] = svt(op.adjoint(x - others + y / kappa), 1.0 / kappa)
        diff = x - observe(ops, comps)
        y = y + gamma * kappa * diff
        residuals.append(np.linalg.norm(diff) / np.linalg.norm(x))
    return comps, residuals


def mixed_shape_problem(count):
    """An identity 12x12 operator, then seeded 8x18 and 24x6 ones, into a
    12x12 tensor: the first ``count`` of them, each with a rank-1 component."""
    ops = [
        reshuffle_identity(12, 12, (12, 12)),
        reshuffle_from_seed(8, 18, (12, 12), 21),
        reshuffle_from_seed(24, 6, (12, 12), 22),
    ][:count]
    comps = [np.outer(gaussians(op.m, 30 + i), gaussians(op.n, 40 + i)) for i, op in enumerate(ops)]
    return Problem(observe(ops, comps), ops)


def seeded_problem(shapes, size):
    """Seeded operators of the given matrix shapes into a flat tensor of
    ``size`` entries, each with a rank-1 component."""
    ops = [reshuffle_from_seed(m, n, (size,), 50 + i) for i, (m, n) in enumerate(shapes)]
    comps = [np.outer(gaussians(op.m, 60 + i), gaussians(op.n, 70 + i)) for i, op in enumerate(ops)]
    return Problem(observe(ops, comps), ops)


@pytest.mark.parametrize(
    "problem",
    [two_component_problem(n=12)[0], two_component_problem(n=16)[0],
     *(mixed_shape_problem(count) for count in (1, 2, 3)),
     seeded_problem([(16, 16), (8, 32)], 256), seeded_problem([(1, 257), (257, 1)], 257),
     seeded_problem([(20, 1000), (40, 500)], 20000)],
    ids=["12", "16", "mixed-N1", "mixed-N2", "mixed-N3", "seeded-256", "seeded-257",
         "factored-20000"],
)
def test_running_vector_matches_the_plain_update(problem, monkeypatch):
    # Every threshold is a full SVD, as in the reference.  The mixed-shape
    # problems carry the running vector through layouts of other shapes
    # than the tensor's, and at N = 1 through the wrap-around step alone.
    # The seeded problems store their permutations as uint8 (256 entries)
    # and uint16 (257 entries).  The 20,000-entry one holds its components
    # as factors (more than FACTORED_ABOVE entries), so its update is the
    # product of two factor pairs; measured: components within 2.1e-15
    # relative.
    monkeypatch.setattr(linalg_mod, "_partial_svd", lambda M, alpha, V: None)
    config = SolverConfig(max_iter=200, tol=1e-30)
    result = decompose(problem, config)
    assert result.iterations == 200
    comps, residuals = _reference_decompose(problem, 200)
    # In the 257-entry problem every component has rank <= 1, so its nuclear
    # norm is its Frobenius norm, and every split (t x, (1 - t) x) has the
    # same total ||x||: the optimum is not unique.  From A_i = 0 both solves
    # put all of x into the first component, so the second is zero to
    # rounding and is compared at the scale of x instead of its own.
    norm_x = np.linalg.norm(problem.X)
    for got, want in zip(result.components, comps):
        scale = np.linalg.norm(want)
        if scale < 1e-12 * norm_x:
            scale = norm_x
        assert np.linalg.norm(got - want) <= 1e-12 * scale
    total = sum(nuclear_norm(a) for a in comps)
    assert sum(nuclear_norm(a) for a in result.components) == pytest.approx(total, rel=1e-12)
    assert np.allclose(result.residual_history, residuals, rtol=0.0, atol=1e-13)


def test_first_two_sweeps_take_no_full_svd(monkeypatch):
    # Y = 0 and a seeded Gaussian start block keep the first thresholds low
    # rank, so every one of them is a partial SVD.
    steps = []
    real = solver_mod.svt_with_values

    def spy(R, alpha, previous):
        steps.append(real(R, alpha, previous))
        return steps[-1]

    monkeypatch.setattr(solver_mod, "svt_with_values", spy)
    for seed in range(3):
        _, ops, X = make_instance(60, 2, 2, seed)
        steps.clear()
        decompose(Problem(X, ops), SolverConfig(max_iter=2, tol=1e-30))
        assert len(steps) == 4 and all(step.partial for step in steps), seed


def test_kappa_overflow_raises_nonfinite(monkeypatch):
    problem, _ = two_component_problem()
    # kappa is about 1 / ||X||, so a tiny X overflows it in the units of X
    # long before the solve's own scaled kappa would.
    tiny = Problem(2.0**-1000 * problem.X, problem.ops)
    with pytest.raises(NonFinite, match="kappa overflows"):
        decompose(tiny, SolverConfig(tol=1e-30))
    for rho in (1.5, 1e200, 1e308):
        monkeypatch.setattr(solver_mod, "RHO", rho)
        with pytest.raises(NonFinite, match="kappa overflows"):
            decompose(problem, SolverConfig(tol=1e-30))
    # A run that stops before kappa would overflow returns normally.
    monkeypatch.setattr(solver_mod, "RHO", 1e200)
    assert decompose(problem).converged


def test_kappa_grows_only_before_a_sweep_that_runs(monkeypatch):
    # The last sweep grows no kappa: max_iter=2 ends with the second kappa
    # finite, and only a third sweep would need the overflowing one.
    problem, _ = two_component_problem()
    monkeypatch.setattr(solver_mod, "RHO", 1e200)
    result = decompose(problem, SolverConfig(max_iter=2, tol=1e-30))
    assert result.iterations == 2 and not result.converged
    assert result.kappa_history == [1.1026540819323745, 1.1026540819323744e200]
    with pytest.raises(NonFinite, match="before iteration 3$"):
        decompose(problem, SolverConfig(max_iter=3, tol=1e-30))


def test_results_do_not_change_with_the_scale_of_the_observation():
    truth, ops, X = make_instance(40, 2, 2, seed=3)
    base = decompose(Problem(X, ops))
    base_db = tsir(truth, base.components)
    for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        result = decompose(Problem(c * X, ops))
        assert abs(result.iterations - base.iterations) <= 1, c
        assert abs(tsir([c * a for a in truth], result.components) - base_db) <= 1.0, c
        residual = relative_residual(c * X, ops, result.components)
        assert residual == pytest.approx(result.residual_history[-1], rel=1e-6)
    # Far out, where squaring the entries under- or overflows.
    for c in (1e-160, 1e155):
        result = decompose(Problem(c * X, ops))
        assert abs(tsir([c * a for a in truth], result.components) - base_db) <= 0.01, c
    # A power of two is an exact scale, and the solve runs at one scale.
    for c in (2.0**-600, 2.0**500):
        result = decompose(Problem(c * X, ops))
        for got, want in zip(result.components, base.components):
            assert np.array_equal(got, c * want), c
        assert result.residual_history == base.residual_history, c


# make_instance cases for the invariance relations: (60, 4, 4, 2) is left
# out for time (0.3 s a solve).
RELATION_CASES = ((40, 2, 2, 5), (100, 4, 3, 1), (20, 4, 2, 7))


@pytest.fixture(scope="module")
def relation_runs():
    """(case, ops, X, decompose's result) for each of RELATION_CASES."""
    runs = []
    for case in RELATION_CASES:
        _, ops, X = make_instance(*case)
        runs.append((case, ops, X, decompose(Problem(X, ops))))
    return runs


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_results_do_not_change_when_the_cells_are_relabelled(relation_runs):
    # Relabel the tensor's cells by one permutation P: each operator's perm
    # becomes P[perm] and X moves with it.  The sweep works in the
    # components' layouts, so only the sum behind ||X|| changes order.
    # Measured: residual and dual at most 2.9e-16 relative, in (20, 4, 2, 7).
    # The 192 and 256 cases hold their components as factors (more than
    # FACTORED_ABOVE entries): 19 sweeps each.
    factored = []
    for case in ((192, 4, 2, 1), (256, 4, 2, 1)):
        _, ops, X = make_instance(*case)
        factored.append((case, ops, X, decompose(Problem(X, ops))))
    for case, ops, X, base in relation_runs + factored:
        moved_X, moved_ops = relabelled(X, ops, random_permutation(X.size, 1))
        assert_same_run(decompose(Problem(moved_X, moved_ops)), base, case)


def test_transposing_every_component_transposes_the_result(relation_runs):
    # Operator i read as an n x m matrix maps A_i.T where it mapped A_i, so
    # the same X splits into the transposed components.  Not bit-exact: the
    # SVD sees the transpose.  Measured: equal sweeps (20, 21, 102) and
    # components within 1.8e-10, 4.7e-9 and 9.7e-10 relative.
    for case, ops, X, base in relation_runs:
        flipped = [with_perm(op, op.perm.reshape(op.m, op.n).T.ravel(), op.n, op.m)
                   for op in ops]
        result = decompose(Problem(X, flipped))
        assert result.iterations == base.iterations, case
        for got, want in zip(result.components, base.components):
            assert relative_error(got.T, want) <= 5e-8, case


def test_reordering_the_components_reorders_the_result(relation_runs):
    # The sweep is Gauss-Seidel, so another order takes other steps to the
    # same split.  Measured: sweeps 20/20, 21/21 and 102/103, and components
    # within 6.8e-8, 1.5e-7 and 1.2e-7 relative.
    for case, ops, X, base in relation_runs:
        result = decompose(Problem(X, ops[::-1]))
        assert abs(result.iterations - base.iterations) <= 1, case
        for got, want in zip(result.components[::-1], base.components):
            assert relative_error(got, want) <= 1e-6, case


def test_history_past_float64_is_inf_without_warning():
    # pytest turns warnings into errors here, so an overflow warning fails.
    # ||X||_F is 1.6e308, but the nuclear norm of X is 3.2e308.
    X = 8e307 * np.eye(4)
    result = decompose(Problem(X, [reshuffle_identity(4, 4, (4, 4))]))
    assert result.converged
    # Exact to the solve's tolerance, as in acceptance criterion 3.
    assert np.abs(result.components[0] - X).max() <= 1e-6 * 8e307
    # The first sweep keeps a fifth of X; the last keeps all of it.
    assert np.isfinite(result.objective_history[0])
    assert result.objective_history[-1] == np.inf


def test_noise_floor_does_not_change_with_the_scale_of_the_observation():
    _, _, X = make_instance(40, 2, 2, seed=3)
    sigma = 0.01
    base = at_noise_floor(SolverConfig(), X, sigma).tol
    assert base > SolverConfig().tol
    for c in (2.0**-600, 2.0**500):
        assert at_noise_floor(SolverConfig(), c * X, c * sigma).tol == base, c
    for c in (1e-160, 1e160):
        assert at_noise_floor(SolverConfig(), c * X, c * sigma).tol == pytest.approx(base, rel=1e-12), c
    # A floor past float64 in the units of X is capped at its largest value.
    assert at_noise_floor(SolverConfig(), np.full(16, 1e-310), 1.0).tol == sys.float_info.max


def test_nonfinite_observation_rejected():
    op = reshuffle_identity(2, 2, (4,))
    X = np.array([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(NonFinite):
        decompose(Problem(X, [op]))
    with pytest.raises(NonFinite):
        decompose(Problem(np.full(4, 1e308), [op]))


def test_config_validation():
    for kwargs in (
        {"max_iter": 0},
        {"tol": 0.0},
        {"tol": np.inf},
        {"tol": np.nan},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


def test_problem_validation():
    op = reshuffle_identity(2, 2, (4,))
    with pytest.raises(ShapeMismatch):
        Problem(np.zeros(5), [op])
    with pytest.raises(ShapeMismatch):
        Problem(np.zeros(4), [])


def test_primal_residual_matches_history():
    problem, _ = two_component_problem(seed=2)
    result = decompose(problem)
    recomputed = relative_residual(problem.X, problem.ops, result.components)
    assert recomputed == pytest.approx(result.residual_history[-1], abs=1e-15)


def test_running_sum_stays_exact_over_long_runs():
    # The running vector r = x - sum_i R_i(A_i) + y/kappa is updated in place
    # and never rebuilt from the components, so its rounding must not build
    # up into the reported residual.
    problem, _ = two_component_problem()
    result = decompose(problem, SolverConfig(tol=1e-30))
    assert result.iterations == 2000
    recomputed = relative_residual(problem.X, problem.ops, result.components)
    assert abs(result.residual_history[-1] - recomputed) <= 1e-13


def test_primal_residual_shape_check():
    problem, comps = two_component_problem()
    for wrong in ([np.zeros((12, 12))], [], [*comps, comps[0]]):
        with pytest.raises(ShapeMismatch):
            observe(problem.ops, wrong)
    with pytest.raises(ShapeMismatch):
        observe([], [])


def test_objective_matches_history():
    problem, _ = two_component_problem(seed=5)
    result = decompose(problem)
    total = sum(linalg_mod.nuclear_norm(a) for a in result.components)
    assert total == pytest.approx(
        result.objective_history[-1], rel=1e-8
    )


def test_history_csv_format():
    problem, _ = two_component_problem()
    result = decompose(problem, SolverConfig(max_iter=3, tol=1e-30))
    assert result.stop_reason == "max_iter"
    text = history_csv(result)
    lines = text.splitlines()
    assert lines[0] == "iteration,residual,objective,kappa,dual_residual"
    assert len(lines) == 4
    assert text.endswith("\n")
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(k + 1)
        # repr of a Python float parses back to the exact same value
        assert float(fields[1]) == result.residual_history[k]
        assert float(fields[2]) == result.objective_history[k]
        assert float(fields[3]) == result.kappa_history[k]
        assert float(fields[4]) == result.dual_history[k]
        for f in fields[1:]:
            assert "np.float64" not in f
