"""Augmented-Lagrangian solver for reshuffled low-rank decomposition.

Recovers matrices A_1..A_N from an observation X = sum_i R_i(A_i) by
minimizing the sum of nuclear norms subject to that equality constraint.
Each sweep updates the components sequentially (Gauss-Seidel) through a
singular-value soft-threshold, then performs dual ascent on the multiplier
tensor and grows the penalty weight kappa.  Each component's threshold is a
partial SVD warm-started from the right singular subspace it kept in the
previous sweep (``rtd.linalg.WarmStart``).
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceDetected, NonFinite, ShapeMismatch
from .linalg import WarmStart, nuclear_norm, spectral_norm, svt_with_values

# Residual blowing up past this multiple of its starting value aborts the run.
DIVERGENCE_FACTOR = 1e6


@dataclass
class SolverConfig:
    """Penalty schedule and stopping parameters.

    kappa0 defaults to 1.25 over the largest pullback spectral norm (1.0
    for a zero observation), so the first threshold sits just under the
    biggest component any single operator could claim.  Each iteration
    multiplies kappa by rho.

    The default rho = 1.02 was chosen by measurement: it solves the
    stego reveal and the phase grid in about 40% fewer sweeps than 1.01
    at equal tSIR, while 1.025 and above lose secret tSIR on the reveal
    (the threshold 1/kappa falls before the weak channels separate from
    the cover).
    """

    rho: float = 1.02
    kappa0: float | None = None
    max_iter: int = 2000
    tol: float = 1e-7

    def __post_init__(self):
        if not self.rho > 1.0:
            raise ValueError(f"rho must be > 1, got {self.rho}")
        if self.kappa0 is not None and not self.kappa0 > 0.0:
            raise ValueError(f"kappa0 must be > 0, got {self.kappa0}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


def at_noise_floor(config, X, sigma):
    """config with tol raised to the relative size of noise of rms sigma in X.

    Below sigma * sqrt(X.size) / ||X||_F the exact-fit constraint has only
    the noise left to fit (the discrepancy principle); a floor below
    config.tol leaves config.tol in effect.
    """
    floor = sigma * np.sqrt(X.size) / max(np.linalg.norm(X), 1e-300)
    return dataclasses.replace(config, tol=max(config.tol, float(floor)))


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
    components: list
    iterations: int
    converged: bool
    residual_history: list
    final_kappa: float
    # Per-iteration metadata, parallel to residual_history.
    objective_history: list = field(default_factory=list)
    kappa_history: list = field(default_factory=list)
    dual_history: list = field(default_factory=list)

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
    """
    top = max(spectral_norm(op.adjoint(problem.X)) for op in problem.ops)
    if top == 0.0:
        return 1.0
    return 1.25 / top


def _pullback(out, x, s, y, inv_kappa, op, a):
    """out = adjoint(x - s + y*inv_kappa) + a for a flat component a."""
    np.add(((x - s) + y * inv_kappa)[op.perm], a, out=out)


def _add_reshuffled(out, op, v):
    """out += R(v) for a flat component v.

    Gathering through inv_perm adds the same terms in the same order as
    scattering through perm, so the result is bit-identical, and a gather
    is about 3x cheaper than a scatter.
    """
    np.add(out, v[op.inv_perm], out=out)


def _rebuild_sum(out, ops, comps):
    """out = sum_i R_i(A_i), added in component order."""
    out[:] = 0.0
    for op, a in zip(ops, comps):
        _add_reshuffled(out, op, a.ravel())


def decompose(problem, config=None):
    """Run the alternating singular-value-thresholding scheme.

    Initialization: Y = sgn(X) elementwise (sgn(0) = 0), A_i = adjoint_i(X)/N.
    Each iteration, for i = 1..N in order and using the freshest A_j:

        A_i <- svt( adjoint_i( X - sum_{j != i} R_j(A_j) + Y/kappa ), 1/kappa )

    then Y += kappa * (X - sum_i R_i(A_i)) and kappa becomes kappa0 * rho**k.
    Stops when the primal residual relative to ||X||_F (absolute for a zero
    observation) drops to config.tol or max_iter is hit; raises
    DivergenceDetected if the residual blows up instead.
    """
    if config is None:
        config = SolverConfig()
    X, ops = problem.X, problem.ops
    if not np.isfinite(X).all():
        raise NonFinite("observation contains NaN or Inf")
    n_comp = len(ops)

    x = X.ravel()
    # An overflowing norm is caught by the isfinite check just below.
    with np.errstate(over="ignore"):
        norm_x = float(np.linalg.norm(x))
    if not math.isfinite(norm_x):
        raise NonFinite("observation norm overflows float64")
    scale = norm_x if norm_x > 0.0 else 1.0
    kappa0 = config.kappa0 if config.kappa0 is not None else default_kappa0(problem)

    y = np.sign(x)
    comps = [np.ascontiguousarray(op.adjoint(X) / n_comp) for op in ops]
    bufs = [np.empty(op.size) for op in ops]
    warm = [WarmStart() for _ in ops]
    s_sum = np.empty(x.size)
    _rebuild_sum(s_sum, ops, comps)

    residuals, objectives, kappas, duals = [], [], [], []
    converged = False
    iterations = 0
    divergence_ref = None

    for k in range(1, config.max_iter + 1):
        kappa = kappa0 * config.rho ** (k - 1)
        inv_kappa = 1.0 / kappa
        objective = 0.0
        delta_sq = 0.0
        for i, op in enumerate(ops):
            a_old = comps[i]
            buf = bufs[i]
            _pullback(buf, x, s_sum, y, inv_kappa, op, a_old.ravel())
            a_new, values = svt_with_values(buf.reshape(op.m, op.n), inv_kappa, warm[i])
            objective += float(values.sum())
            d = (a_new - a_old).ravel()
            delta_sq += float(d @ d)
            _add_reshuffled(s_sum, op, d)
            comps[i] = a_new
        # Refresh the running sum from scratch so the rounding of the
        # incremental updates cannot accumulate across iterations.
        _rebuild_sum(s_sum, ops, comps)
        diff = x - s_sum
        y += kappa * diff
        residual = float(np.linalg.norm(diff)) / scale

        iterations = k
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

    final_kappa = kappa0 * config.rho**iterations
    return SolverResult(
        components=comps,
        iterations=iterations,
        converged=converged,
        residual_history=residuals,
        final_kappa=final_kappa,
        objective_history=objectives,
        kappa_history=kappas,
        dual_history=duals,
    )


def primal_residual(problem, components):
    """||X - sum_i R_i(A_i)||_F / ||X||_F, or the plain norm when X is zero."""
    X, ops = problem.X, problem.ops
    if len(components) != len(ops):
        raise ShapeMismatch(f"{len(components)} components for {len(ops)} operators")
    total = np.zeros(X.shape)
    for op, a in zip(ops, components):
        total += op.apply(a)
    norm_x = float(np.linalg.norm(X))
    return float(np.linalg.norm(X - total)) / (norm_x if norm_x > 0.0 else 1.0)


def objective(components):
    """Sum of nuclear norms of the components."""
    return float(sum(nuclear_norm(a) for a in components))


def history_csv(result):
    """Per-iteration log as CSV: iteration, residual, objective, kappa, dual."""
    lines = ["iteration,residual,objective,kappa,dual_residual"]
    for k in range(result.iterations):
        lines.append(
            f"{k + 1},{float(result.residual_history[k])!r},"
            f"{float(result.objective_history[k])!r},"
            f"{float(result.kappa_history[k])!r},{float(result.dual_history[k])!r}"
        )
    return "\n".join(lines) + "\n"
