import numpy as np
import pytest

import rtd.solver as solver_mod
from rtd.analysis import tsir
from rtd.errors import DivergenceDetected, NonFinite, ShapeMismatch
from rtd.experiments import make_instance
from rtd.linalg import random_semi_orthonormal_pair
from rtd.reshuffle import reshuffle_from_seed, reshuffle_identity
from rtd.solver import (
    Problem,
    SolverConfig,
    decompose,
    default_kappa0,
    history_csv,
    objective,
    primal_residual,
)


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
    config = SolverConfig(kappa0=2.0, rho=1.5, max_iter=5, tol=1e-30)
    result = decompose(problem, config)
    assert result.kappa_history == [2.0 * 1.5**k for k in range(5)]


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

    def amplify(M, alpha, warm=None):
        out, values = real(M, alpha, warm)
        return 10.0 * out, values

    monkeypatch.setattr(solver_mod, "svt_with_values", amplify)
    problem, _ = two_component_problem()
    with pytest.raises(DivergenceDetected):
        decompose(problem, SolverConfig(max_iter=2000, tol=1e-12))


def _reference_decompose(problem, kappa0, rho, iterations):
    """The update of decompose's docstring, transcribed without its running
    vector: a fresh sum of the other components per update, a full-SVD
    threshold and kappa = kappa0 * rho**(k - 1)."""
    x, ops = problem.X.ravel(), problem.ops
    y = np.sign(x)
    comps = [op.adjoint(problem.X) / len(ops) for op in ops]
    residuals = []
    for k in range(1, iterations + 1):
        kappa = kappa0 * rho ** (k - 1)
        for i, op in enumerate(ops):
            others = sum(ops[j].apply(comps[j]).ravel() for j in range(len(ops)) if j != i)
            U, sv, Vt = np.linalg.svd(op.adjoint(x - others + y / kappa), full_matrices=False)
            comps[i] = (U * np.maximum(sv - 1.0 / kappa, 0.0)) @ Vt
        diff = x - sum(op.apply(a).ravel() for op, a in zip(ops, comps))
        y = y + kappa * diff
        residuals.append(np.linalg.norm(diff) / np.linalg.norm(x))
    return comps, residuals


@pytest.mark.parametrize("n", [12, 16])
def test_running_vector_matches_the_plain_update(n):
    # At these sizes every warm block is wider than min(m, n) // 4, so each
    # threshold is a full SVD, as in the reference.
    problem, _ = two_component_problem(n=n)
    config = SolverConfig(max_iter=200, tol=1e-30)
    result = decompose(problem, config)
    assert result.iterations == 200
    comps, residuals = _reference_decompose(problem, default_kappa0(problem), config.rho, 200)
    for got, want in zip(result.components, comps):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.allclose(result.residual_history, residuals, rtol=0.0, atol=1e-13)


def test_kappa_overflow_raises_nonfinite():
    problem, _ = two_component_problem()
    for config in (
        SolverConfig(rho=1.5, tol=1e-30),
        SolverConfig(rho=1e200, tol=1e-30),
        SolverConfig(rho=1e308, tol=1e-30),
    ):
        with pytest.raises(NonFinite, match="kappa overflows"):
            decompose(problem, config)
    # A run that stops before kappa would overflow returns normally.
    assert decompose(problem, SolverConfig(rho=1e200)).converged


def test_results_do_not_change_with_the_scale_of_the_observation():
    truth, ops, X = make_instance(40, 2, 2, seed=3)
    base = decompose(Problem(X, ops))
    base_db = tsir(truth, base.components)
    for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        result = decompose(Problem(c * X, ops))
        assert abs(result.iterations - base.iterations) <= 1, c
        assert abs(tsir([c * a for a in truth], result.components) - base_db) <= 1.0, c
        assert primal_residual(Problem(c * X, ops), result.components) == pytest.approx(
            result.residual_history[-1], rel=1e-6
        )


def test_nonfinite_observation_rejected():
    op = reshuffle_identity(2, 2, (4,))
    X = np.array([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(NonFinite):
        decompose(Problem(X, [op]))
    with pytest.raises(NonFinite):
        decompose(Problem(np.full(4, 1e308), [op]))


def test_config_validation():
    for kwargs in (
        {"rho": 1.0},
        {"rho": np.inf},
        {"rho": np.nan},
        {"kappa0": 0.0},
        {"kappa0": np.inf},
        {"kappa0": np.nan},
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
    recomputed = primal_residual(problem, result.components)
    assert recomputed == pytest.approx(result.residual_history[-1], abs=1e-15)


def test_running_sum_stays_exact_over_long_runs():
    # The running vector r = x - sum_i R_i(A_i) + y/kappa is updated in place
    # and never rebuilt from the components, so its rounding must not build
    # up into the reported residual.
    problem, _ = two_component_problem()
    result = decompose(problem, SolverConfig(tol=1e-30))
    assert result.iterations == 2000
    recomputed = primal_residual(problem, result.components)
    assert abs(result.residual_history[-1] - recomputed) <= 1e-13


def test_primal_residual_shape_check():
    problem, _ = two_component_problem()
    with pytest.raises(ShapeMismatch):
        primal_residual(problem, [np.zeros((12, 12))])


def test_objective_matches_history():
    problem, _ = two_component_problem(seed=5)
    result = decompose(problem)
    assert objective(result.components) == pytest.approx(
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
