"""Dense factorizations and proximal operators used by the solver.

The SVD itself is delegated to LAPACK (via numpy); everything here is
defined by contract on the factors: reconstruction within 1e-8 relative,
orthonormal columns within 1e-10.  ``svt`` is the exact full-SVD threshold.
The solver's thresholding, ``svt_with_values``, is one step of a sweep: a
partial SVD warm-started from a basis that each step hands to the next,
since its iterates are low rank and everything below the threshold is
discarded anyway; for the same reason a threshold is held as its factors,
and a large one is thresholded again from them.
"""

import math
from dataclasses import dataclass
from functools import cached_property

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
    """(X * 2**-e, e, ||X * 2**-e||_F), with e the binary exponent of max|X|
    (0 for a zero X).

    A power-of-two scale rounds no entry that stays in float64's normal
    range, so the norm of the scaled copy neither over- nor underflows in
    its squares, and times 2**e it is the norm of X.
    """
    e = math.frexp(float(np.abs(X).max(initial=0.0)))[1]
    scaled = np.ldexp(X, -e)
    return scaled, e, float(np.linalg.norm(scaled))


def svd_full(M):
    """Thin SVD with k = min(m, n) factors."""
    M = _as_finite_matrix(M)
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    return SvdFactors(U, S, Vt.T)


def svt(M, alpha):
    """Singular-value soft-thresholding: U max(S - alpha, 0) V^T.

    This is the proximal operator of alpha * nuclear norm at M, taken from
    a full SVD of M: the exact oracle that the solver's step,
    ``svt_with_values``, is checked against, with no code of that step.
    """
    f = svd_full(M)
    k = int((f.S > alpha).sum())
    return (f.U[:, :k] * (f.S[:k] - alpha)) @ f.V[:, :k].T


@dataclass(frozen=True)
class SvtStep:
    """What one ``svt_with_values`` call did.

    The thresholded matrix is held as its factors A = L V^T (Cai, Candes
    and Shen 2010, SIAM J. Optim. 20(4): the iterates of singular-value
    thresholding are low rank, so they can be kept as their SVD factors).
    ``L`` (m x k) is U diag(S - alpha) over the k = ``L.shape[1]`` kept
    columns, and V is the first k columns of ``basis``.  ``out`` is A as a
    dense matrix, formed on its first read and then kept; a step at or
    below FACTORED_ABOVE entries formed it as it ran, and ``decompose``
    reads it for its result.  ``basis`` (n x w,
    orthonormal columns) is the next call's warm start: the kept right
    singular vectors plus the next OVERSAMPLE of them, as many as the
    factorization holds.  ``nuclear`` is the nuclear norm of A, the sum of
    the kept values S - alpha; ``partial`` says whether ``_partial_svd``
    was accepted, rather than the full SVD run; and ``change`` is
    ||A - A0||_F^2 for the previous threshold A0.  Before a first call the
    previous step is one of rank 0, ``SvtStep(np.zeros((m, 0)), basis)``
    with a start block such as ``start_basis``: A = 0, and the three values
    at their defaults.
    """

    L: np.ndarray
    basis: np.ndarray
    nuclear: float = 0.0
    partial: bool = False
    change: float = 0.0

    @cached_property
    def out(self):
        # V^T is copied to contiguous rows first, the layout of the SVD's own
        # V^T: BLAS can round a product with a strided operand differently.
        return self.L @ np.ascontiguousarray(self.basis[:, : self.L.shape[1]].T)


# Ritz vectors kept beyond the kept rank, so the next call can see the rank grow.
OVERSAMPLE = 6
# Subspace iterations M^T M per block before the Rayleigh-Ritz step.
POWER_STEPS = 2
# A block is accepted once this many of its Ritz values fall below alpha.
TAIL_BELOW = 2
# A running block of more entries than this is thresholded from the factors
# of the previous threshold; one of at most this many forms M = R + A0 and
# the change A - A0 as dense matrices, the bytes of a dense solve.  Chosen
# by measurement, the factored over the dense time of one
# make_instance(n, 4, 2, 1) solve (medians of 7-21 interleaved runs, BLAS
# at one thread): 1.18x at n = 96, 1.09x at 112, 0.88-1.00x at 128, 0.82x
# at 136, 0.78x at 144 and 0.76-0.86x from 160 to 256.
FACTORED_ABOVE = 128 * 128


def _orth(A):
    return np.linalg.qr(A)[0]


class _PlusFactors:
    """M = R + L V^T, unformed: the products M Q and M^T B that the subspace
    iteration takes, each one pass over R plus thin products of the factors."""

    def __init__(self, R, L, V):
        self.R, self.L, self.V = R, L, V
        self.shape = R.shape

    @property
    def T(self):
        return _PlusFactors(self.R.T, self.V, self.L)

    def __matmul__(self, Q):
        return self.R @ Q + self.L @ (self.V.T @ Q)


def _partial_svd(M, alpha, V):
    """Leading singular triplets of M from a warm start basis V (n x w).

    Block subspace iteration on the start block alone (Halko, Martinsson
    and Tropp 2011, arXiv:0909.4061, Algorithm 4.4), orthonormalised once
    per power step Q <- orth(M^T M Q) rather than after each product, as in
    Li, Linderman, Szlam, Stanton, Kluger and Tygert (2017, ACM TOMS
    Algorithm 971): POWER_STEPS QRs per call.  The Rayleigh-Ritz step is on
    the right subspace, the thin SVD of M Q = U S W^T giving M ~ U S (Q W)^T.
    M is a dense matrix or a ``_PlusFactors``: only its products are taken.
    Forming M^T M squares the spectrum within a step, so block singular
    values below about sqrt(eps) * s_max (1.5e-8 relative) lose accuracy.
    Returns None, so the caller runs the full SVD, when the block is wider
    than min(m, n) // 2, where a full SVD is cheaper, or when fewer than
    TAIL_BELOW Ritz values fall below alpha.  Raises NonFinite when M has a
    NaN or infinite entry, which reaches M Q (an infinity times 0 is NaN):
    M itself is never scanned.
    """
    if V.shape[1] > min(M.shape) // 2:
        return None
    # NumPy need not warn of a NaN or an infinity before it is refused.
    with np.errstate(invalid="ignore", over="ignore"):
        Q = V
        for _ in range(POWER_STEPS):
            Q = _orth(M.T @ (M @ Q))
        MQ = M @ Q
    if not np.isfinite(MQ).all():
        raise NonFinite("matrix contains NaN or Inf")
    U, S, Wt = np.linalg.svd(MQ, full_matrices=False)
    if S.size < TAIL_BELOW or S[-TAIL_BELOW] >= alpha:
        return None
    return U, S, Wt @ Q.T


def svt_with_values(R, alpha, previous):
    """One singular-value thresholding step of a sweep (Cai, Candes and
    Shen 2010), as an ``SvtStep``: the threshold's factors, its nuclear
    norm (which the solver logs for free) and the warm start of the next
    call.

    ``previous`` is the ``SvtStep`` of the last threshold A0 = L0 V0^T, or
    before the first sweep one of rank 0 with a start block (such as the
    orthonormalised Gaussian block of Halko, Martinsson and Tropp 2011,
    section 4.1, from ``start_basis``).  R is the running block: the call
    thresholds M = R + A0 and subtracts D = A - A0 from R in place, so that
    R + A is M.  The threshold is ``_partial_svd`` from ``previous.basis``,
    accurate to the subspace iteration, and the full SVD of M whenever
    that returns None.  Above FACTORED_ABOVE entries M is formed only for
    the full SVD: the subspace iteration takes R Q + L0 (V0^T Q), and D is
    the one product [L, -L0] [V, V0]^T of the two factor pairs.  At or
    below it, M and D are dense and A0 is ``previous.out``, which that step
    formed: the bytes of a solve that holds its components dense.  A NaN or
    an infinity in R raises NonFinite, from M Q or from the full SVD's M.
    ``change`` is ||D||_F^2, summed from D's entries: a sum from the
    factors, ||A||^2 + ||A0||^2 - 2 <A, A0>, loses it to cancellation as A
    nears A0.
    """
    L0, V0 = previous.L, previous.basis[:, : previous.L.shape[1]]
    factored = R.size > FACTORED_ABOVE
    M = _PlusFactors(R, L0, V0) if factored else R + previous.out
    factors = _partial_svd(M, alpha, previous.basis)
    partial = factors is not None
    if not partial:
        M = _as_finite_matrix(R + previous.out if factored else M)
    U, S, Vt = factors if partial else np.linalg.svd(M, full_matrices=False)
    shrunk = S - alpha
    k = int((shrunk > 0.0).sum())  # S is nonincreasing, so the kept ones are a prefix
    L, kept = U[:, :k] * shrunk[:k], np.ascontiguousarray(Vt[: k + OVERSAMPLE].T)
    if factored:
        D = np.hstack([L, -L0]) @ np.hstack([kept[:, :k], V0]).T
    else:
        A = L @ Vt[:k]
        D = A - previous.out
    R -= D
    step = SvtStep(L, kept, float(shrunk[:k].sum()), partial, float(np.vdot(D, D)))
    if not factored:
        step.__dict__["out"] = A  # out is a cached_property: this step formed it
    return step


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
    return int((S > RANK_CUTOFF * S.max(initial=0.0)).sum())


def _semi_orthonormal(n, r, seed):
    G = gaussians(n * r, seed).reshape(n, r)
    Q, R = np.linalg.qr(G)
    # Fix the QR sign ambiguity so the result is a pure function of the seed.
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def start_basis(n, seed):
    """The n x (OVERSAMPLE + TAIL_BELOW) orthonormal Gaussian block, a pure
    function of ``seed``: a first ``svt_with_values`` call's warm start, with
    room for OVERSAMPLE kept values and the TAIL_BELOW below alpha that
    accept the block."""
    return _semi_orthonormal(n, OVERSAMPLE + TAIL_BELOW, seed)


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
