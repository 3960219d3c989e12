"""Synthetic studies at desk scale: phase-transition grids, Gaussian-noise
sweeps, and component-dropout count estimation, with CSV and grayscale
heatmap output.
"""

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import estimate_component_count, recovery_bound_min_n, tsir
from .errors import AllZeroSignal
from .linalg import random_semi_orthonormal_pair
from .reshuffle import reshuffle_from_seed
from .rng import bulk_u64, derive_seed, gaussians
from .solver import Problem, SolverConfig, at_noise_floor, decompose

MODES = ("rank_vs_size", "rank_vs_count")


def make_instance(n, r, N, seed, dst_shape=None):
    """Random exact-recovery instance: N rank-r components under seeded reshuffles.

    Components are products of semi-orthonormal factors, so each has
    Frobenius norm sqrt(r) and unit nonzero singular values.  The tensor
    shape defaults to the flat (n*n,); random permutations make any
    higher-order shape equivalent.
    """
    if dst_shape is None:
        dst_shape = (n * n,)
    comps = []
    ops = []
    for i in range(N):
        U, V = random_semi_orthonormal_pair(n, r, derive_seed(seed, i))
        comps.append(U @ V.T)
        ops.append(reshuffle_from_seed(n, n, dst_shape, derive_seed(seed, N + i)))
    X = np.zeros(dst_shape)
    for op, A in zip(ops, comps):
        X += op.apply(A)
    return comps, ops, X


def noise_sigma(X, snr_db):
    """Per-entry noise deviation hitting the requested SNR in expectation."""
    snr_db = float(snr_db)
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    energy = float(np.linalg.norm(X) ** 2)
    if energy == 0.0:
        raise AllZeroSignal("cannot scale noise against a zero tensor")
    return float(np.sqrt(energy / (X.size * 10.0 ** (snr_db / 10.0))))


def add_gaussian_noise(X, snr_db, seed):
    """X plus iid zero-mean Gaussian noise at the given SNR (dB)."""
    X = np.asarray(X, dtype=np.float64)
    sigma = noise_sigma(X, snr_db)
    return X + sigma * gaussians(X.size, seed).reshape(X.shape)


def _check_spec(spec, *lists):
    """Checks shared by the experiment specs: the named value lists are
    nonempty and there is at least one trial per cell."""
    for name in lists:
        if not getattr(spec, name):
            raise ValueError(f"{name} must be nonempty")
    if int(spec.trials) < 1:
        raise ValueError(f"trials must be >= 1, got {spec.trials}")
    object.__setattr__(spec, "trials", int(spec.trials))


def _cell_trials(job):
    trial, spec, config, index, cell = job
    cell_seed = derive_seed(spec.seed, index)
    return cell, [trial(spec, config, cell, derive_seed(cell_seed, t)) for t in range(spec.trials)]


def _run_cells(spec, trial, cells, threads):
    """(cell, trial results) for every cell that is not None, in list order.

    ``trial(spec, config, cell, seed)`` runs one seeded trial and must be a
    module-level function so worker processes can load it.  Cell i is seeded
    by ``derive_seed(spec.seed, i)``, skipped cells included, and its trial t
    by ``derive_seed(cell_seed, t)``, so results are identical at any thread
    count.
    """
    config = spec.config or SolverConfig()
    jobs = [(trial, spec, config, i, cell) for i, cell in enumerate(cells) if cell is not None]
    if threads <= 1:
        return [_cell_trials(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
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
    config: SolverConfig = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if int(self.fixed) < 1:
            raise ValueError(f"fixed parameter must be >= 1, got {self.fixed}")
        _check_spec(self, "ranks", "axis")
        object.__setattr__(self, "fixed", int(self.fixed))
        object.__setattr__(self, "ranks", tuple(sorted(int(r) for r in self.ranks)))
        object.__setattr__(self, "axis", tuple(sorted(int(a) for a in self.axis)))

    def cell_params(self, row, col):
        """(n, r, N) for the cell at ranks[row], axis[col]."""
        r = self.ranks[row]
        if self.mode == "rank_vs_size":
            return self.axis[col], r, self.fixed
        return self.fixed, r, self.axis[col]


@dataclass(frozen=True)
class PhaseGrid:
    """Mean tSIR per cell, with invalid cells as NaN and bound-line flags."""

    spec: PhaseGridSpec
    cells: np.ndarray
    invalid: np.ndarray
    bound_flags: np.ndarray


def _bound_flags(spec, invalid):
    """Mark, per rank row, the first cell at or past the theoretical minimum size."""
    flags = np.zeros(invalid.shape, dtype=bool)
    for row, r in enumerate(spec.ranks):
        inside = []
        for col in range(len(spec.axis)):
            n, _, N = spec.cell_params(row, col)
            if not invalid[row, col] and n >= recovery_bound_min_n(N, r):
                inside.append(col)
        if inside:
            col = min(inside) if spec.mode == "rank_vs_size" else max(inside)
            flags[row, col] = True
    return flags


def _phase_trial(spec, config, cell, seed):
    comps, ops, X = make_instance(*spec.cell_params(*cell), seed)
    return tsir(comps, decompose(Problem(X, ops), config).components)


def run_phase_grid(spec, threads=1):
    """Mean tSIR over seeded trials for every (rank, axis) cell; cells with
    r > n are invalid and left NaN."""
    shape = (len(spec.ranks), len(spec.axis))
    invalid = np.zeros(shape, dtype=bool)
    grid = []
    for cell in np.ndindex(shape):
        n, r, _ = spec.cell_params(*cell)
        invalid[cell] = r > n
        grid.append(None if r > n else cell)
    cells = np.full(shape, np.nan)
    for cell, values in _run_cells(spec, _phase_trial, grid, threads):
        cells[cell] = np.mean(values)
    return PhaseGrid(spec, cells, invalid, _bound_flags(spec, invalid))


def phase_csv(grid):
    """One line per cell: rank, axis value, trials, mean tSIR, bound flag."""
    lines = ["row_value,col_value,trial_count,mean_tsir_db,bound_flag"]
    for row, r in enumerate(grid.spec.ranks):
        for col, a in enumerate(grid.spec.axis):
            mean = grid.cells[row, col]
            flag = int(grid.bound_flags[row, col])
            lines.append(f"{r},{a},{grid.spec.trials},{float(mean)!r},{flag}")
    return "\n".join(lines) + "\n"


def render_heatmap(grid, lo_db=15.0, hi_db=25.0):
    """8-bit grayscale cells: black at/below lo_db, white at/past hi_db.

    Rows are ranks ascending top to bottom, columns the other axis
    ascending left to right.  Theoretical-bound cells are drawn at the
    mid-gray marker 128; invalid cells at black.
    """
    lo_db = float(lo_db)
    hi_db = float(hi_db)
    if not hi_db > lo_db:
        raise ValueError(f"need hi_db > lo_db, got {lo_db} >= {hi_db}")
    ramp = (grid.cells - lo_db) / (hi_db - lo_db)
    ramp = np.clip(np.nan_to_num(ramp, nan=0.0), 0.0, 1.0)
    img = np.rint(ramp * 255.0).astype(np.uint8)
    img[grid.bound_flags] = 128
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
    config: SolverConfig = None

    def __post_init__(self):
        _check_spec(self, "ranks", "snrs_db")


# The noisy solves stop one decade below the noise floor: stopping exactly
# at the relative noise magnitude halts after the first sweep with unusable
# components, while a decade below it the recovered quality matches a
# full-accuracy solve at a fraction of the iterations.
NOISE_TOL_FACTOR = 0.1


def _noisy_solve(X, ops, snr_db, config, seed):
    """Solve X plus Gaussian noise at snr_db, drawn from derive_seed(seed, 1),
    with the tolerance relaxed toward the noise floor.  A zero X has no
    energy to scale noise against and is solved as it is."""
    if not X.any():
        return decompose(Problem(X, ops), config)
    sigma = noise_sigma(X, snr_db)
    Xn = add_gaussian_noise(X, snr_db, derive_seed(seed, 1))
    return decompose(Problem(Xn, ops), at_noise_floor(config, Xn, NOISE_TOL_FACTOR * sigma))


def _noise_trial(spec, config, cell, seed):
    r, snr_db = cell
    comps, ops, X = make_instance(spec.n, r, spec.N, derive_seed(seed, 0))
    return tsir(comps, _noisy_solve(X, ops, snr_db, config, seed).components)


def run_noise_sweep(spec, threads=1):
    """Rows of (rank, snr_db, mean tSIR) over the spec's grid, rank outer."""
    cells = list(itertools.product(spec.ranks, spec.snrs_db))
    return [
        (r, snr_db, float(np.mean(values)))
        for (r, snr_db), values in _run_cells(spec, _noise_trial, cells, threads)
    ]


def noise_csv(spec, rows):
    lines = ["rank,snr_db,trial_count,mean_tsir_db"]
    for r, snr_db, mean in rows:
        lines.append(f"{r},{float(snr_db)!r},{spec.trials},{float(mean)!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DropoutSpec:
    """Count-estimation runs with components removed by a fair coin."""

    n: int = 60
    N: int = 6
    ranks: tuple = (1,)
    snrs_db: tuple = (30,)
    trials: int = 10
    seed: int = 0
    eta: float = 0.1
    config: SolverConfig = None

    def __post_init__(self):
        _check_spec(self, "ranks", "snrs_db")
        if not float(self.eta) > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")


def _dropout_trial(spec, config, cell, seed):
    """(count estimate correct, tSIR), with tSIR None when every component
    was dropped."""
    snr_db, r = cell
    comps, ops, _ = make_instance(spec.n, r, spec.N, derive_seed(seed, 0))
    removed = (bulk_u64(derive_seed(seed, 2), spec.N) >> np.uint64(63)).astype(bool)
    for i in np.flatnonzero(removed):
        comps[i] = np.zeros_like(comps[i])
    X = np.zeros(ops[0].dst_shape)
    for op, A in zip(ops, comps):
        X += op.apply(A)
    result = _noisy_solve(X, ops, snr_db, config, seed)
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
    lines = ["snr_db,rank,trial_count,count_accuracy,mean_tsir_db"]
    for snr_db, r, acc, mean in rows:
        lines.append(f"{float(snr_db)!r},{r},{spec.trials},{float(acc)!r},{float(mean)!r}")
    return "\n".join(lines) + "\n"
