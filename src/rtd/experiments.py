"""Synthetic studies at desk scale: phase-transition grids, Gaussian-noise
sweeps, and component-dropout count estimation, with CSV and grayscale
heatmap output.
"""

import itertools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import estimate_component_count, recovery_bound_min_n, tsir
from .errors import AllZeroSignal, BadRank, check_count, check_ints, check_positive
from .linalg import binary_scaled, random_semi_orthonormal_pair
from .formats import csv_text
from .reshuffle import observe, reshuffle_from_seed
from .rng import bulk_u64, check_seed, derive_seed, gaussians
from .solver import Problem, SolverConfig, at_noise_floor, decompose

MODES = ("rank_vs_size", "rank_vs_count")


def make_instance(n, r, N, seed):
    """Random exact-recovery instance: N rank-r components under seeded reshuffles.

    Components are products of semi-orthonormal factors, so each has
    Frobenius norm sqrt(r) and unit nonzero singular values.  The tensor
    shape is the flat (n*n,); random permutations make any higher-order
    shape equivalent.  N must be a count >= 1 (ValueError) and the seed in
    range for the stream (BadIndex); n and r are checked by
    ``random_semi_orthonormal_pair`` (BadRank).  The n x r factors and the
    operators are made before any n x n component, so an n too large for a
    reshuffle (n*n > 2**32) is refused before that is allocated.
    """
    N, seed = check_count(N, ValueError, "N"), check_seed(seed)
    pairs = [random_semi_orthonormal_pair(n, r, derive_seed(seed, i)) for i in range(N)]
    ops = [reshuffle_from_seed(n, n, (n * n,), derive_seed(seed, N + i)) for i in range(N)]
    comps = [U @ V.T for U, V in pairs]
    return comps, ops, observe(ops, comps)


def noise_sigma(X, snr_db):
    """Per-entry noise deviation hitting the requested SNR in expectation."""
    snr_db = float(snr_db)
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    scaled, e, norm = binary_scaled(np.asarray(X, dtype=np.float64))
    if norm == 0.0:
        raise AllZeroSignal("cannot scale noise against a zero tensor")
    return math.ldexp(norm / math.sqrt(scaled.size * 10.0 ** (snr_db / 10.0)), e)


def _check_spec(spec, lists, counts, max_rank=math.inf):
    """Checks shared by the experiment specs, made at construction so that a
    bad value fails before any cell is solved: the named value lists are
    nonempty; the named counts (trials per cell, sizes, component counts)
    pass ``errors.check_count``; every rank is an integer in [1, max_rank],
    or BadRank; and the seed is in range for the stream.  Integers follow
    the ``operator.index`` rule of ``errors.check_ints`` and are stored as
    Python ints."""
    for name in lists:
        if not getattr(spec, name):
            raise ValueError(f"{name} must be nonempty")
    for name in counts:
        object.__setattr__(spec, name, check_count(getattr(spec, name), ValueError, name))
    ranks = check_ints(spec.ranks, BadRank, "ranks")
    if not 1 <= min(ranks) <= max(ranks) <= max_rank:
        raise BadRank(f"ranks must be in [1, {max_rank}], got {ranks}")
    object.__setattr__(spec, "ranks", ranks)
    object.__setattr__(spec, "seed", check_seed(spec.seed))


def _cell_trials(job):
    trial, spec, index, cell = job
    cell_seed = derive_seed(spec.seed, index)
    return cell, [trial(spec, cell, derive_seed(cell_seed, t)) for t in range(spec.trials)]


def _run_cells(spec, trial, cells, threads):
    """(cell, trial results) for every cell that is not None, in list order.

    ``trial(spec, cell, seed)`` runs one seeded trial and must be a
    module-level function so worker processes can load it.  Cell i is seeded
    by ``derive_seed(spec.seed, i)``, skipped cells included, and its trial t
    by ``derive_seed(cell_seed, t)``, so results are identical at any thread
    count.  ``threads`` must be an integer >= 1 (ValueError).
    """
    threads = check_count(threads, ValueError, "threads")
    jobs = [(trial, spec, i, cell) for i, cell in enumerate(cells) if cell is not None]
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [_cell_trials(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell_trials, jobs))


@dataclass(frozen=True)
class PhaseGridSpec:
    """Grid definition: ranks down the rows, size or component count across.

    ``fixed`` is the held parameter: N in rank_vs_size mode, n in
    rank_vs_count mode.  Axis values are stored sorted ascending.  The
    defaults are the paper-scale rank-versus-size grid at N = 2.
    """

    mode: str = "rank_vs_size"
    fixed: int = 2
    ranks: tuple = tuple(range(1, 9))
    axis: tuple = tuple(range(20, 101, 10))
    trials: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_spec(self, ("ranks", "axis"), ("fixed", "trials"))
        axis = (check_count(a, ValueError, "axis values") for a in self.axis)
        object.__setattr__(self, "ranks", tuple(sorted(self.ranks)))
        object.__setattr__(self, "axis", tuple(sorted(axis)))

    def cell_params(self, row, col):
        """(n, r, N) for the cell at ranks[row], axis[col]."""
        r = self.ranks[row]
        if self.mode == "rank_vs_size":
            return self.axis[col], r, self.fixed
        return self.fixed, r, self.axis[col]

    def bound_flags(self):
        """Boolean (ranks x axis) flags marking, per rank row, the cell on
        the theoretical bound: the smallest size at or past the minimum size
        in rank_vs_size mode, the largest count it still holds for in
        rank_vs_count mode.  Such a cell has n > r, so it is never invalid."""
        flags = np.zeros((len(self.ranks), len(self.axis)), dtype=bool)
        for row, r in enumerate(self.ranks):
            params = (self.cell_params(row, col) for col in range(len(self.axis)))
            inside = [col for col, (n, _, N) in enumerate(params)
                      if n >= recovery_bound_min_n(N, r)]
            if inside:
                col = min(inside) if self.mode == "rank_vs_size" else max(inside)
                flags[row, col] = True
        return flags


@dataclass(frozen=True)
class PhaseGrid:
    """Mean tSIR per cell, with invalid cells (r > n) as NaN.  The bound
    cells are the spec's: ``spec.bound_flags()``."""

    spec: PhaseGridSpec
    cells: np.ndarray


def _phase_trial(spec, cell, seed):
    comps, ops, X = make_instance(*spec.cell_params(*cell), seed)
    return tsir(comps, decompose(Problem(X, ops)).components)


def run_phase_grid(spec, threads=1):
    """Mean tSIR over seeded trials for every (rank, axis) cell; cells with
    r > n are invalid and left NaN."""
    shape = (len(spec.ranks), len(spec.axis))
    grid = []
    for cell in np.ndindex(shape):
        n, r, _ = spec.cell_params(*cell)
        grid.append(None if r > n else cell)
    cells = np.full(shape, np.nan)
    for cell, values in _run_cells(spec, _phase_trial, grid, threads):
        cells[cell] = np.mean(values)
    return PhaseGrid(spec, cells)


def phase_csv(grid):
    """One line per cell: rank, axis value, trials, mean tSIR, bound flag."""
    spec = grid.spec
    flags = spec.bound_flags()
    rows = [
        (r, a, spec.trials, grid.cells[row, col], flags[row, col])
        for row, r in enumerate(spec.ranks)
        for col, a in enumerate(spec.axis)
    ]
    return csv_text("row_value,col_value,trial_count,mean_tsir_db,bound_flag", rows)


# The heatmap's ramp.  White is the recovery line: a cell at 25 dB tSIR or
# more counts as recovered in the acceptance tests and the benchmark.
LO_DB, HI_DB = 15.0, 25.0


def render_heatmap(grid):
    """8-bit grayscale cells: black at/below LO_DB, white at/past HI_DB.

    Rows are ranks ascending top to bottom, columns the other axis
    ascending left to right.  Theoretical-bound cells are drawn at the
    mid-gray marker 128; invalid cells at black.
    """
    ramp = (grid.cells - LO_DB) / (HI_DB - LO_DB)
    ramp = np.clip(np.nan_to_num(ramp, nan=0.0), 0.0, 1.0)
    img = np.rint(ramp * 255.0).astype(np.uint8)
    img[grid.spec.bound_flags()] = 128
    return img


@dataclass(frozen=True)
class NoiseSweepSpec:
    """Gaussian-noise robustness sweep over (rank, SNR) combinations."""

    n: int = 100
    N: int = 10
    ranks: tuple = (1, 2, 3, 4)
    snrs_db: tuple = (5, 10, 15, 20, 25, 30, 35)
    trials: int = 3
    seed: int = 0

    def __post_init__(self):
        _check_spec(self, ("ranks", "snrs_db"), ("n", "N", "trials"), self.n)
        if not all(isinstance(s, numbers.Real) and math.isfinite(s) for s in self.snrs_db):
            raise ValueError(f"snrs_db must be finite real numbers, got {self.snrs_db}")


# The noisy solves stop one decade below the noise floor: stopping exactly
# at the relative noise magnitude halts after the first sweep with unusable
# components, while a decade below it the recovered quality matches a
# full-accuracy solve at a fraction of the iterations.
NOISE_TOL_FACTOR = 0.1


def _noisy_solve(X, ops, snr_db, seed):
    """Solve X plus Gaussian noise at snr_db, drawn from derive_seed(seed, 1),
    with the tolerance relaxed toward the noise floor.  A zero X has no
    energy to scale noise against and is solved as it is."""
    if not X.any():
        return decompose(Problem(X, ops))
    sigma = noise_sigma(X, snr_db)
    Xn = X + sigma * gaussians(X.size, derive_seed(seed, 1)).reshape(X.shape)
    return decompose(Problem(Xn, ops), at_noise_floor(SolverConfig(), Xn, NOISE_TOL_FACTOR * sigma))


def _noise_trial(spec, cell, seed):
    r, snr_db = cell
    comps, ops, X = make_instance(spec.n, r, spec.N, derive_seed(seed, 0))
    return tsir(comps, _noisy_solve(X, ops, snr_db, seed).components)


def run_noise_sweep(spec, threads=1):
    """Rows of (rank, snr_db, mean tSIR) over the spec's grid, rank outer."""
    cells = list(itertools.product(spec.ranks, spec.snrs_db))
    return [
        (r, snr_db, float(np.mean(values)))
        for (r, snr_db), values in _run_cells(spec, _noise_trial, cells, threads)
    ]


def noise_csv(spec, rows):
    rows = [(r, float(snr_db), spec.trials, float(mean)) for r, snr_db, mean in rows]
    return csv_text("rank,snr_db,trial_count,mean_tsir_db", rows)


@dataclass(frozen=True)
class DropoutSpec(NoiseSweepSpec):
    """Count-estimation runs with components removed by a fair coin: a noise
    sweep's fields and checks, its own defaults, and the count threshold
    ``eta`` of ``estimate_component_count``."""

    n: int = 60
    N: int = 6
    ranks: tuple = (1,)
    snrs_db: tuple = (30,)
    trials: int = 10
    eta: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "eta", check_positive(self.eta, ValueError, "eta"))


def _dropout_trial(spec, cell, seed):
    """(count estimate correct, tSIR), with tSIR None when every component
    was dropped."""
    snr_db, r = cell
    comps, ops, _ = make_instance(spec.n, r, spec.N, derive_seed(seed, 0))
    removed = (bulk_u64(derive_seed(seed, 2), spec.N) >> np.uint64(63)).astype(bool)
    for i in np.flatnonzero(removed):
        comps[i] = np.zeros_like(comps[i])
    result = _noisy_solve(observe(ops, comps), ops, snr_db, seed)
    kept = spec.N - int(removed.sum())
    hit = estimate_component_count(result.components, spec.eta) == kept
    return hit, tsir(comps, result.components) if kept else None


def run_dropout_experiment(spec, threads=1):
    """Rows of (snr_db, rank, count accuracy, mean tSIR over kept trials),
    SNR outer."""
    cells = list(itertools.product(spec.snrs_db, spec.ranks))
    rows = []
    for (snr_db, r), trials in _run_cells(spec, _dropout_trial, cells, threads):
        hits = sum(hit for hit, _ in trials)
        tsirs = [v for _, v in trials if v is not None]
        mean_tsir = float(np.mean(tsirs)) if tsirs else float("nan")
        rows.append((snr_db, r, hits / spec.trials, mean_tsir))
    return rows


def dropout_csv(spec, rows):
    rows = [
        (float(snr_db), r, spec.trials, float(acc), float(mean)) for snr_db, r, acc, mean in rows
    ]
    return csv_text("snr_db,rank,trial_count,count_accuracy,mean_tsir_db", rows)
