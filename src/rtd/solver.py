"""Augmented-Lagrangian solver for reshuffled low-rank decomposition.

Recovers matrices A_1..A_N from an observation X = sum_i R_i(A_i) by
minimizing the sum of nuclear norms subject to that equality constraint.
Each sweep updates the components sequentially (Gauss-Seidel) through a
singular-value soft-threshold, then takes an over-relaxed dual step
Y += GAMMA * kappa * (X - sum_i R_i(A_i)) on the multiplier tensor and grows
the penalty weight kappa by the factor RHO.  The penalty schedule belongs to
the solver: kappa starts at default_kappa0 and grows by RHO, the dual step
is GAMMA times kappa, and only the stopping parameters are configurable.
The sweep carries one running vector, the scaled residual
X - sum_i R_i(A_i) + Y/kappa, in the matrix layout of the component being
updated: one gather moves it on to the next component's layout, N gathers
per sweep, and Y lives in component 0's layout.  A kappa that overflows
float64 raises NonFinite.  The multiplier Y and the components start at
zero, the usual ADMM start.  Each component's threshold is a partial SVD
warm-started from the right singular subspace it kept in the previous sweep
(the ``basis`` of the ``rtd.linalg.SvtStep`` that sweep returned), and in
the first sweep from a Gaussian block seeded by the component's index.
"""

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, NonFinite, ShapeMismatch, check_count, check_positive
from .linalg import OVERSAMPLE, TAIL_BELOW, _semi_orthonormal, binary_scaled
from .linalg import spectral_norm, svt_with_values
from .formats import csv_text
from .reshuffle import cross_map
from .rng import derive_seed

# Residual blowing up past this multiple of its starting value aborts the run.
DIVERGENCE_FACTOR = 1e6

# Penalty growth per iteration, chosen by measurement: it solves the stego
# reveal and the phase grid in about 40% fewer sweeps than 1.01 at equal
# tSIR, while 1.025 and above lose secret tSIR on the reveal (the threshold
# 1/kappa falls before the weak channels separate from the cover), at
# GAMMA = 1 and 1.4 alike.
RHO = 1.02

# Dual step in units of kappa, chosen by measurement.  Two-block ADMM
# converges for any GAMMA in (0, (1 + sqrt 5) / 2), but this N-block
# Gauss-Seidel sweep has no such guarantee.  Of 1.1-1.5, 1.4 takes the
# fewest sweeps: about a quarter fewer than 1 on the phase grid and 9% fewer
# on the reveals, with the same phase-grid successes and the reveal's secret
# tSIR within about 1 dB of 1 either way; 1.5 takes more again on the phase
# grid.
GAMMA = 1.4


@dataclass
class SolverConfig:
    """Stopping parameters: at most max_iter sweeps, or until the relative
    primal residual drops to tol.

    tol may be 1 or more.  at_noise_floor raises tol that far when the
    noise floor it is given dwarfs the observation: an all-black 8-bit
    container gets a tol near 1e297 and correctly reveals a black secret
    after one sweep.
    """

    max_iter: int = 2000
    tol: float = 1e-7

    def __post_init__(self):
        self.max_iter = check_count(self.max_iter, ValueError, "max_iter")
        self.tol = check_positive(self.tol, ValueError, "tol")


def at_noise_floor(config, X, sigma):
    """config with tol raised to the relative size of noise of rms sigma in X.

    Below sigma * sqrt(X.size) / ||X||_F the exact-fit constraint has only
    the noise left to fit (the discrepancy principle); a floor below
    config.tol leaves config.tol in effect.
    """
    # Relative to X * 2**-e, so the floor does not change with the scale of X,
    # and capped at float64's largest value in the units of X.
    X, e = binary_scaled(X)
    floor = sigma * math.sqrt(X.size) / max(float(np.linalg.norm(X)), 1e-300)
    cap = math.ldexp(sys.float_info.max, min(e, 0))
    return dataclasses.replace(config, tol=max(config.tol, math.ldexp(min(floor, cap), -e)))


@dataclass
class Problem:
    """Observation tensor plus one reshuffle per latent component."""

    X: np.ndarray
    ops: list

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=float)
        if len(self.ops) < 1:
            raise ShapeMismatch("need at least one component")
        for op in self.ops:
            if tuple(op.dst_shape) != self.X.shape:
                raise ShapeMismatch(
                    f"operator maps into {op.dst_shape}, observation has shape {self.X.shape}"
                )


@dataclass
class SolverResult:
    """What decompose returns.  The histories are in the units of X, one
    entry per sweep; an entry too large for float64 in those units (an
    objective near float64's largest value) is inf."""

    components: list
    iterations: int
    converged: bool
    residual_history: list
    # Per-iteration metadata, parallel to residual_history.
    objective_history: list
    kappa_history: list
    dual_history: list

    @property
    def stop_reason(self):
        """Why the run stopped: "tol" or "max_iter"."""
        return "tol" if self.converged else "max_iter"


def default_kappa0(problem):
    """Initial penalty so the first threshold 1/kappa sits just under the
    largest spectral norm any single component could claim.

    Starting the threshold high keeps every iterate genuinely low rank
    while kappa grows; starting it low lets one component absorb the
    whole observation and stall the residual at a feasible, wrong split.
    With the multiplier and the components at zero, the first sweep
    thresholds adjoint_0(X), then for each later component adjoint_i of
    what the earlier ones left of X, so it keeps only the few singular
    values above 1/kappa0, and the seeded warm start blocks of width
    OVERSAMPLE + TAIL_BELOW cover them.
    """
    top = max(spectral_norm(op.adjoint(problem.X)) for op in problem.ops)
    if top == 0.0:
        return 1.0
    return 1.25 / top


def decompose(problem, config=None):
    """Run the alternating singular-value-thresholding scheme.

    Initialization: Y = 0, A_i = 0 (the usual ADMM start), kappa =
    default_kappa0, and component i's warm start block seeded by i alone.
    Each iteration, for i = 1..N in order and using the freshest A_j:

        A_i <- svt( adjoint_i( X - sum_{j != i} R_j(A_j) + Y/kappa ), 1/kappa )

    then Y += GAMMA * kappa * (X - sum_i R_i(A_i)) and kappa grows by the
    factor RHO.
    The sweep carries one running vector r = X - sum_i R_i(A_i) + Y/kappa
    (the scaled dual form of ADMM) in the matrix layout of the component
    being updated, so a component's pullback is r + A_i and its update
    subtracts new A_i - old A_i in place; one gather through
    reshuffle.cross_map then moves r into the next component's layout,
    N gathers per sweep.  Y is kept in component 0's layout, where the sweep
    ends; kappa is a running product.  The scheme runs on X * 2**-e, with e
    the binary exponent of max|X|: the power-of-two scale is exact, so the
    components come back exactly c times as large for X scaled by any
    power of two c, and no norm over- or underflows at extreme magnitudes.
    Stops when the primal residual relative to ||X||_F (absolute for a zero
    observation) drops to config.tol or max_iter is hit; raises
    DivergenceDetected if the residual blows up instead, and NonFinite if
    ||X||_F overflows float64, or kappa does before a sweep that still has
    to run.
    """
    if config is None:
        config = SolverConfig()
    X, ops = problem.X, problem.ops
    if not np.isfinite(X).all():
        raise NonFinite("observation contains NaN or Inf")

    X, e = binary_scaled(X)
    norm_x = float(np.linalg.norm(X))
    if math.frexp(norm_x)[1] + e > sys.float_info.max_exp:
        raise NonFinite("observation norm overflows float64")
    scale = norm_x if norm_x > 0.0 else 1.0
    # A Python float, so that kappa *= RHO overflows to inf without a NumPy
    # warning; kappa_max is float64's largest value in the units of X.
    kappa = float(default_kappa0(Problem(X, ops)))
    kappa_max = math.ldexp(sys.float_info.max, min(e, 0))

    comps = [np.zeros((op.m, op.n)) for op in ops]
    bases = [_semi_orthonormal(op.n, OVERSAMPLE + TAIL_BELOW, derive_seed(0, i))
             for i, op in enumerate(ops)]
    # r and y are flat, in a component's matrix layout: steps[i] gathers
    # component i's layout into the next one's, and the last step wraps
    # round to component 0, where each sweep starts and ends.
    steps = [cross_map(ops[(i + 1) % len(ops)], op) for i, op in enumerate(ops)]
    r = ops[0].adjoint(X).ravel()
    y = np.zeros_like(r)

    residuals, objectives, kappas, duals = [], [], [], []
    converged = False
    divergence_ref = None

    for k in range(1, config.max_iter + 1):
        objective = 0.0
        delta_sq = 0.0
        for i, op in enumerate(ops):
            svt_step = svt_with_values(r.reshape(op.m, op.n) + comps[i], 1.0 / kappa, bases[i])
            objective += svt_step.nuclear
            d = svt_step.out - comps[i]
            delta_sq += float(np.vdot(d, d))
            r -= d.ravel()
            r = r[steps[i]]
            comps[i], bases[i] = svt_step.out, svt_step.basis
        diff = r - y / kappa
        y += GAMMA * kappa * diff
        residual = float(np.linalg.norm(diff)) / scale

        residuals.append(residual)
        objectives.append(objective)
        kappas.append(kappa)
        duals.append(kappa * math.sqrt(delta_sq) / scale)

        if divergence_ref is None:
            divergence_ref = max(residual, config.tol)
        if not math.isfinite(residual) or residual > DIVERGENCE_FACTOR * divergence_ref:
            raise DivergenceDetected(
                f"residual {residual:.3e} exceeds {DIVERGENCE_FACTOR:.0e} x initial at iteration {k}"
            )
        if residual <= config.tol:
            converged = True
            break
        if k < config.max_iter:
            kappa *= RHO
            if kappa > kappa_max:
                raise NonFinite(f"kappa overflows float64 before iteration {k + 1}")
            r = diff + y / kappa

    # A history entry too large for float64 in the units of X becomes inf.
    with np.errstate(over="ignore"):
        objectives = np.ldexp(objectives, e).tolist()
        kappas = np.ldexp(kappas, -e).tolist()
        duals = np.ldexp(duals, -e).tolist()
    return SolverResult(
        components=[np.ldexp(a, e) for a in comps],
        iterations=len(residuals),
        converged=converged,
        residual_history=residuals,
        objective_history=objectives,
        kappa_history=kappas,
        dual_history=duals,
    )


def history_csv(result):
    """Per-iteration log as CSV: iteration, residual, objective, kappa, dual."""
    histories = (result.residual_history, result.objective_history,
                 result.kappa_history, result.dual_history)
    rows = [(k + 1, *(float(h[k]) for h in histories)) for k in range(result.iterations)]
    return csv_text("iteration,residual,objective,kappa,dual_residual", rows)
