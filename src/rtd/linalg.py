"""Dense factorizations and proximal operators used by the solver.

The SVD itself is delegated to LAPACK (via numpy); everything here is
defined by contract on the factors: reconstruction within 1e-8 relative,
orthonormal columns within 1e-10.  The solver's thresholding can instead
run a partial SVD warm-started from a basis that each step hands to the
next (``svt_with_values``), since its iterates are low rank and everything
below the threshold is discarded anyway.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRank, NonFinite, check_ints
from .rng import check_seed, derive_seed, gaussians

# Singular values below RANK_CUTOFF * s_max count as zero for rank decisions.
RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD: U (m x k), S (k, nonincreasing, >= 0), V (n x k)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _as_finite_matrix(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise NonFinite(f"expected a 2-D matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise NonFinite("matrix contains NaN or Inf")
    return M


def binary_scaled(X):
    """(X * 2**-e, e), with e the binary exponent of max|X| (0 for a zero X).

    A power-of-two scale rounds no entry that stays in float64's normal
    range, so the norm of the scaled copy neither over- nor underflows in
    its squares, and times 2**e it is the norm of X.
    """
    e = math.frexp(float(np.abs(X).max(initial=0.0)))[1]
    return np.ldexp(X, -e), e


def svd_full(M):
    """Thin SVD with k = min(m, n) factors."""
    M = _as_finite_matrix(M)
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    return SvdFactors(U, S, Vt.T)


def svt(M, alpha):
    """Singular-value soft-thresholding: U max(S - alpha, 0) V^T.

    This is the proximal operator of alpha * nuclear norm at M.
    """
    return svt_with_values(M, alpha).out


@dataclass(frozen=True)
class SvtStep:
    """What one ``svt_with_values`` call did.

    ``out`` is the thresholded matrix and ``nuclear`` its nuclear norm, the
    sum of the ``rank`` kept values S - alpha.  ``basis`` (n x w, orthonormal
    columns) is the next call's warm start: the kept right singular vectors
    plus the next OVERSAMPLE of them, as many as the factorization holds.
    ``partial`` says whether ``_partial_svd`` was accepted, rather than the
    full SVD run.
    """

    out: np.ndarray
    nuclear: float
    rank: int
    basis: np.ndarray
    partial: bool


# Ritz vectors kept beyond the kept rank, so the next call can see the rank grow.
OVERSAMPLE = 6
# Subspace iterations M^T M per block before the Rayleigh-Ritz step.
POWER_STEPS = 2
# A block is accepted once this many of its Ritz values fall below alpha.
TAIL_BELOW = 2


def _orth(A):
    return np.linalg.qr(A)[0]


def _partial_svd(M, alpha, V):
    """Leading singular triplets of M from a warm start basis V (n x w).

    Block subspace iteration on the start block alone (Halko, Martinsson
    and Tropp 2011, arXiv:0909.4061, Algorithm 4.4), orthonormalised once
    per power step Q <- orth(M^T M Q) rather than after each product, as in
    Li, Linderman, Szlam, Stanton, Kluger and Tygert (2017, ACM TOMS
    Algorithm 971): POWER_STEPS QRs per call.  The Rayleigh-Ritz step is on
    the right subspace, the thin SVD of M Q = U S W^T giving M ~ U S (Q W)^T.
    Forming M^T M squares the spectrum within a step, so block singular
    values below about sqrt(eps) * s_max (1.5e-8 relative) lose accuracy.
    Returns None, so the caller runs the full SVD, when the block is wider
    than min(m, n) // 2, where a full SVD is cheaper, or when fewer than
    TAIL_BELOW Ritz values fall below alpha.
    """
    if V.shape[1] > min(M.shape) // 2:
        return None
    Q = V
    for _ in range(POWER_STEPS):
        Q = _orth(M.T @ (M @ Q))
    U, S, Wt = np.linalg.svd(M @ Q, full_matrices=False)
    if S.size < TAIL_BELOW or S[-TAIL_BELOW] >= alpha:
        return None
    return U, S, Wt @ Q.T


def svt_with_values(M, alpha, basis=None):
    """svt as an ``SvtStep``, with the nuclear norm of the result (which
    the solver logs for free) and the warm start of the next call.

    With ``basis=None`` this is an exact full SVD.  With a basis (the one
    the previous step returned, or a start block such as the orthonormalised
    Gaussian block of Halko, Martinsson and Tropp 2011, section 4.1) it is
    ``_partial_svd`` from that basis, accurate to the subspace iteration;
    the full SVD still runs whenever ``_partial_svd`` returns None.
    """
    M = _as_finite_matrix(M)
    factors = None if basis is None else _partial_svd(M, alpha, basis)
    partial = factors is not None
    U, S, Vt = factors if partial else np.linalg.svd(M, full_matrices=False)
    shrunk = S - alpha
    k = int((shrunk > 0.0).sum())  # S is nonincreasing, so the kept ones are a prefix
    return SvtStep(out=(U[:, :k] * shrunk[:k]) @ Vt[:k, :], nuclear=float(shrunk[:k].sum()),
                   rank=k, basis=np.ascontiguousarray(Vt[: k + OVERSAMPLE].T), partial=partial)


def spectral_norm(M):
    """Largest singular value."""
    M = _as_finite_matrix(M)
    return float(np.linalg.svd(M, compute_uv=False)[0])


def nuclear_norm(M):
    """Sum of singular values."""
    M = _as_finite_matrix(M)
    return float(np.linalg.svd(M, compute_uv=False).sum())


def numerical_rank(S):
    """Number of singular values above the relative cutoff."""
    S = np.asarray(S, dtype=float)
    if S.size == 0 or S[0] <= 0.0:
        return 0
    return int((S > RANK_CUTOFF * S[0]).sum())


def _semi_orthonormal(n, r, seed):
    G = gaussians(n * r, seed).reshape(n, r)
    Q, R = np.linalg.qr(G)
    # Fix the QR sign ambiguity so the result is a pure function of the seed.
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def random_semi_orthonormal_pair(n, r, seed):
    """Two independent n x r matrices with orthonormal columns.

    Their product U V^T has rank r with all nonzero singular values equal
    to one, which is the component model used throughout the experiments.
    n and r must be integers with 1 <= r <= n (BadRank), and the seed must
    pass ``rtd.rng.check_seed`` (BadIndex).
    """
    n, r = check_ints((n, r), BadRank, "n and r")
    if not 1 <= r <= n:
        raise BadRank(f"need 1 <= r <= n, got r={r}, n={n}")
    seed = check_seed(seed)
    U = _semi_orthonormal(n, r, derive_seed(seed, 0))
    V = _semi_orthonormal(n, r, derive_seed(seed, 1))
    return U, V
