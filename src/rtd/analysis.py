"""Recovery diagnostics: tSIR/SIR metrics, the minimum-dimension bound, the
exact-recovery certificate, and a tangent-space ascent that lower-bounds the
incoherence of a component with respect to a family of reshuffles.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroSignal, BadIndex, DegenerateRank, ShapeMismatch
from .linalg import numerical_rank, spectral_norm, svd_full
from .reshuffle import cross_map
from .rng import derive_seed, gaussians

DB_CAP = 300.0


def tsir(true_components, est_components):
    """Total signal-to-interference ratio across a component list, in dB.

    Capped at +300 dB when the total error energy is negligible relative
    to the total signal energy.
    """
    if len(true_components) != len(est_components):
        raise ShapeMismatch(
            f"component counts differ: {len(true_components)} vs {len(est_components)}"
        )
    num = 0.0
    den = 0.0
    for a, b in zip(true_components, est_components):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ShapeMismatch(f"component shapes differ: {a.shape} vs {b.shape}")
        num += np.linalg.norm(a) ** 2
        den += np.linalg.norm(a - b) ** 2
    if num == 0.0:
        raise AllZeroSignal("reference signal has zero energy")
    if den < 1e-300 * num:
        return DB_CAP
    return 10.0 * np.log10(num / den)


def sir(reference, estimate):
    """Signal-to-interference ratio of a single array pair, in dB."""
    return tsir([reference], [estimate])


def recovery_bound_min_n(N, r):
    """Smallest square dimension n with n > (3N - 2)^2 * r."""
    N = int(N)
    r = int(r)
    if N < 1 or r < 1:
        raise ValueError(f"need N >= 1 and r >= 1, got N={N}, r={r}")
    return (3 * N - 2) ** 2 * r + 1


def certificate_threshold(N):
    """Incoherence level below which exact recovery is certified: 1/(3N - 2)."""
    N = int(N)
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    return 1.0 / (3 * N - 2)


def _mu_list(mu_values):
    """The incoherence values as floats; nonempty and nonnegative."""
    mu_values = [float(m) for m in mu_values]
    if not mu_values:
        raise ValueError("need at least one incoherence value")
    if any(m < 0 for m in mu_values):
        raise ValueError("incoherence values must be nonnegative")
    return mu_values


def exact_recovery_certificate(mu_values):
    """True iff max mu_i < 1/(3N - 2) for N = len(mu_values).

    The ascent estimator below only lower-bounds each mu_i, so a True
    result is necessary-style evidence ("not falsified"), while a False
    result genuinely falsifies the condition.
    """
    mu_values = _mu_list(mu_values)
    return max(mu_values) < certificate_threshold(len(mu_values))


@dataclass(frozen=True)
class TangentBasisInfo:
    """Orthonormal factors spanning the tangent set {U @ W.T + Z @ V.T} at a matrix."""

    U: np.ndarray
    V: np.ndarray

    @property
    def rank(self):
        return self.U.shape[1]


def tangent_basis(A):
    """Truncated SVD factors of A at its numerical rank."""
    f = svd_full(A)
    k = numerical_rank(f.S)
    if k == 0:
        raise DegenerateRank("zero matrix has no tangent basis")
    return TangentBasisInfo(np.ascontiguousarray(f.U[:, :k]), np.ascontiguousarray(f.V[:, :k]))


def tangent_project(T, M):
    """Orthogonal projection onto the tangent set: U U'M + M V V' - U U'M V V'."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape != (T.U.shape[0], T.V.shape[0]):
        raise ShapeMismatch(
            f"expected {T.U.shape[0]}x{T.V.shape[0]} matrix, got {M.shape}"
        )
    UtM = T.U.T @ M
    MV = M @ T.V
    return T.U @ UtM + MV @ T.V.T - T.U @ (UtM @ T.V) @ T.V.T


@dataclass(frozen=True)
class IncoherenceEstimate:
    """Lower bound on an incoherence value, with per-restart diagnostics."""

    value: float
    restarts: int
    restart_values: list = field(default_factory=list)
    converged: list = field(default_factory=list)


def _leading_pair(B):
    U, _, Wt = np.linalg.svd(B, full_matrices=False)
    return U[:, 0], Wt[0]


_ASCENT_STEPS = (-4.0, -1.0, -0.25, -0.05, 0.05, 0.25, 1.0, 4.0, None)


def _ascend(M, basis, cross, dst_shape, iters):
    """Line-searched ascent of ||scatter(M)||_2 over the unit-spectral-norm tangent set.

    Each iteration pulls the leading singular pair of the cross-mapped
    matrix back through the permutation, projects onto the tangent set,
    then keeps the best rescaled point along that direction (signed steps
    matter because the SVD fixes the pair's sign arbitrarily; the None
    step tries the projected direction itself).  Returns (best value
    seen, whether the iteration stalled at a fixed point).
    """
    size = M.size
    mapped = np.empty(size)

    def value(Mx):
        mapped[cross] = Mx.ravel()
        return spectral_norm(mapped.reshape(dst_shape))

    best = value(M)
    done = False
    for _ in range(iters):
        mapped[cross] = M.ravel()
        u, w = _leading_pair(mapped.reshape(dst_shape))
        grad = np.outer(u, w).ravel()[cross].reshape(M.shape)
        direction = tangent_project(basis, grad)
        step_best, step_M = best, None
        for t in _ASCENT_STEPS:
            cand = direction if t is None else M + t * direction
            norm = spectral_norm(cand)
            if norm == 0.0:
                continue
            cand = cand / norm
            v = value(cand)
            if v > step_best + 1e-15:
                step_best, step_M = v, cand
        if step_M is None:
            done = True
            break
        best, M = step_best, step_M
    return best, done


def incoherence_lower_bound(A, ops, i, restarts=8, iters=50, seed=0):
    """Heuristic lower bound on the incoherence of component i.

    Maximizes ||adjoint_j(apply_i(M))||_2 over matrices M in the tangent
    set of A with unit spectral norm, for every j != i.  Each restart
    starts from an independently seeded tangent direction; each iteration
    pulls the leading singular pair of the cross-mapped matrix back
    through the composed permutation, projects onto the tangent set, and
    moves to the best renormalized point along that direction.  The
    reported value is the running max, hence a lower bound on the true
    supremum.
    """
    A = np.asarray(A, dtype=np.float64)
    if not 0 <= i < len(ops):
        raise BadIndex(f"component index {i} out of range for {len(ops)} operators")
    op_i = ops[i]
    if A.shape != (op_i.m, op_i.n):
        raise ShapeMismatch(f"expected {op_i.m}x{op_i.n} matrix, got {A.shape}")
    basis = tangent_basis(A)
    restarts = int(restarts)
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    others = [(j, ops[j]) for j in range(len(ops)) if j != i]
    if not others:
        return IncoherenceEstimate(0.0, restarts, [0.0] * restarts, [True] * restarts)
    crosses = [(cross_map(op_i, op_j), (op_j.m, op_j.n)) for _, op_j in others]
    restart_values = []
    converged = []
    for t in range(restarts):
        g = gaussians(A.size, derive_seed(seed, t)).reshape(A.shape)
        M0 = tangent_project(basis, g)
        norm = spectral_norm(M0)
        if norm == 0.0:
            restart_values.append(0.0)
            converged.append(True)
            continue
        M0 /= norm
        best = 0.0
        done_all = True
        for cross, dst_shape in crosses:
            val, done = _ascend(M0.copy(), basis, cross, dst_shape, iters)
            best = max(best, val)
            done_all = done_all and done
        restart_values.append(best)
        converged.append(done_all)
    return IncoherenceEstimate(max(restart_values), restarts, restart_values, converged)


def estimate_component_count(components, eta):
    """Number of components whose norm exceeds eta times the largest norm."""
    eta = float(eta)
    if eta <= 0:
        raise ValueError(f"need eta > 0, got {eta}")
    norms = [float(np.linalg.norm(np.asarray(a, dtype=np.float64))) for a in components]
    if not norms or max(norms) == 0.0:
        return 0
    cut = eta * max(norms)
    return sum(1 for v in norms if v > cut)


def cross_spectrum_report(A, ops, i):
    """Numerical rank and singular-value spread of each cross-mapped component.

    Returns a list of (j, rank, s_min, s_max) for every j != i, where the
    spectrum is that of adjoint_j(apply_i(A)).  Lets callers verify, not
    assume, that cross-mapped matrices are full rank on generated data.
    """
    A = np.asarray(A, dtype=np.float64)
    if not 0 <= i < len(ops):
        raise BadIndex(f"component index {i} out of range for {len(ops)} operators")
    rows = []
    for j, op_j in enumerate(ops):
        if j == i:
            continue
        B = op_j.adjoint(ops[i].apply(A))
        S = np.linalg.svd(B, compute_uv=False)
        rows.append((j, numerical_rank(S), float(S[-1]), float(S[0])))
    return rows


def certificate_csv(mu_values):
    """One CSV line per component: index, lower bound, threshold, verdict."""
    mu_values = _mu_list(mu_values)
    thr = certificate_threshold(len(mu_values))
    lines = ["component,mu_lower_bound,threshold,verdict"]
    for idx, mu in enumerate(mu_values):
        verdict = "not falsified" if mu < thr else "falsified"
        lines.append(f"{idx},{mu!r},{thr!r},{verdict}")
    return "\n".join(lines) + "\n"
