"""Recovery diagnostics: tSIR/SIR metrics, the minimum-dimension bound, the
exact-recovery certificate, and a tangent-space ascent that lower-bounds the
incoherence of a component with respect to a family of reshuffles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroSignal, BadIndex, DegenerateRank, ShapeMismatch, check_count, check_positive,
)
from .formats import csv_text
from .linalg import SvdFactors, binary_scaled, numerical_rank, spectral_norm, svd_full
from .reshuffle import cross_map
from .rng import check_seed, derive_seed, gaussians

DB_CAP = 300.0


def _scale_exponent(arrays):
    """The ``binary_scaled`` exponent of the largest entry of any of ``arrays``.

    Norms taken of the arrays times 2**-e neither over- nor underflow in
    their squares, and at normal scales they are the plain norms times
    2**-e exactly, so ratios of them do not change.
    """
    return binary_scaled(np.array([np.abs(a).max(initial=0.0) for a in arrays]))[1]


def tsir(true_components, est_components):
    """Total signal-to-interference ratio across a component list, in dB.

    Capped at +300 dB (DB_CAP): an error energy at or below 1e-30 of the
    signal energy scores 300.  The energies are taken at the power-of-two
    scale of the references' largest entry, so the ratio is the same for
    both lists scaled by any power of two, and does not under- or overflow
    at extreme magnitudes.  Only where the estimates' largest entry is over
    2**256 times the references' (a ratio below about -1,500 dB) is the
    error energy taken at a coarser power of two, so it cannot overflow.
    """
    if len(true_components) != len(est_components):
        raise ShapeMismatch(
            f"component counts differ: {len(true_components)} vs {len(est_components)}"
        )
    true_components = [np.asarray(a, dtype=np.float64) for a in true_components]
    est_components = [np.asarray(b, dtype=np.float64) for b in est_components]
    e = _scale_exponent(true_components)
    f = max(e, _scale_exponent(est_components) - 256)
    num = den = 0.0
    for a, b in zip(true_components, est_components):
        if a.shape != b.shape:
            raise ShapeMismatch(f"component shapes differ: {a.shape} vs {b.shape}")
        num += np.linalg.norm(np.ldexp(a, -e)) ** 2
        d = np.ldexp(a, -f)
        d -= np.ldexp(b, -f)
        den += np.linalg.norm(d) ** 2
    if num == 0.0:
        raise AllZeroSignal("reference signal has zero energy")
    if den <= num * 10.0 ** (-DB_CAP / 10.0):
        return DB_CAP
    return 10.0 * np.log10(num / den) - 20.0 * (f - e) * np.log10(2.0)


def sir(reference, estimate):
    """Signal-to-interference ratio of a single array pair, in dB."""
    return tsir([reference], [estimate])


def recovery_bound_min_n(N, r):
    """Smallest square dimension n with n > (3N - 2)^2 * r."""
    N, r = check_count(N, ValueError, "N"), check_count(r, ValueError, "r")
    return (3 * N - 2) ** 2 * r + 1


def certificate_threshold(N):
    """Incoherence level below which exact recovery is certified: 1/(3N - 2)."""
    return 1.0 / (3 * check_count(N, ValueError, "N") - 2)


def _mu_list(mu_values):
    """The incoherence values as floats; nonempty and nonnegative."""
    mu_values = [float(m) for m in mu_values]
    if not mu_values:
        raise ValueError("need at least one incoherence value")
    if any(m < 0 for m in mu_values):
        raise ValueError("incoherence values must be nonnegative")
    return mu_values


def tangent_basis(A):
    """Truncated SVD factors of A at its numerical rank, as ``SvdFactors``:
    U and V are orthonormal and span the tangent set {U @ W.T + Z @ V.T}."""
    f = svd_full(A)
    k = numerical_rank(f.S)
    if k == 0:
        raise DegenerateRank("zero matrix has no tangent basis")
    return SvdFactors(*(np.ascontiguousarray(a) for a in (f.U[:, :k], f.S[:k], f.V[:, :k])))


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
    restart_values: list
    converged: list


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
    if check_count(i, BadIndex, "component index", low=0) >= len(ops):
        raise BadIndex(f"component index {i} out of range for {len(ops)} operators")
    op_i = ops[i]
    if A.shape != (op_i.m, op_i.n):
        raise ShapeMismatch(f"expected {op_i.m}x{op_i.n} matrix, got {A.shape}")
    basis = tangent_basis(A)
    restarts = check_count(restarts, ValueError, "restarts")
    iters = check_count(iters, ValueError, "iters")
    seed = check_seed(seed)
    crosses = [(cross_map(op_i, op_j), (op_j.m, op_j.n)) for j, op_j in enumerate(ops) if j != i]
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
    """Number of components whose norm exceeds eta times the largest norm.

    The norms are taken at the power-of-two scale of the largest entry, as
    in ``tsir``, so the count is the same at any magnitude.
    """
    eta = check_positive(eta, ValueError, "eta")
    components = [np.asarray(a, dtype=np.float64) for a in components]
    e = _scale_exponent(components)
    norms = [float(np.linalg.norm(np.ldexp(a, -e))) for a in components]
    if not norms or max(norms) == 0.0:
        return 0
    cut = eta * max(norms)
    return sum(1 for v in norms if v > cut)


def certificate_csv(mu_values):
    """One CSV line per component: index, lower bound, threshold, verdict."""
    mu_values = _mu_list(mu_values)
    thr = certificate_threshold(len(mu_values))
    rows = [
        (idx, mu, thr, "not falsified" if mu < thr else "falsified")
        for idx, mu in enumerate(mu_values)
    ]
    return csv_text("component,mu_lower_bound,threshold,verdict", rows)
