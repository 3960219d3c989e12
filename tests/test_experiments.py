import numpy as np
import pytest

import rtd.experiments as experiments
from rtd.errors import AllZeroSignal, BadIndex, BadRank
from rtd.experiments import (
    DropoutSpec,
    NoiseSweepSpec,
    PhaseGridSpec,
    dropout_csv,
    make_instance,
    noise_csv,
    noise_sigma,
    phase_csv,
    render_heatmap,
    run_dropout_experiment,
    run_noise_sweep,
    run_phase_grid,
)
from rtd.linalg import numerical_rank, svd_full
from rtd.rng import gaussians


def test_make_instance_invariants():
    comps, ops, X = make_instance(10, 3, 2, seed=4)
    assert len(comps) == len(ops) == 2
    assert X.shape == (100,)
    for A, op in zip(comps, ops):
        assert A.shape == (10, 10)
        S = svd_full(A).S
        assert numerical_rank(S) == 3
        assert np.allclose(S[:3], 1.0, atol=1e-10)
        # Frobenius norm squared equals the rank for orthonormal factors
        assert np.sum(A * A) == pytest.approx(3.0, rel=1e-12)
        assert op.dst_shape == (10, 10) or op.dst_shape == (100,)
    total = sum(op.apply(A) for op, A in zip(ops, comps))
    assert np.array_equal(total, X)


def test_make_instance_determinism():
    comps1, ops1, X1 = make_instance(6, 1, 3, seed=9)
    comps2, ops2, X2 = make_instance(6, 1, 3, seed=9)
    assert X1.shape == (36,)
    assert np.array_equal(X1, X2)
    for a, b in zip(comps1, comps2):
        assert np.array_equal(a, b)
    for a, b in zip(ops1, ops2):
        assert np.array_equal(a.perm, b.perm)
    _, _, X3 = make_instance(6, 1, 3, seed=10)
    assert not np.array_equal(X1, X3)


def test_instance_permutations_take_two_bytes_per_entry():
    # A 100x100 operator's indices fit in uint16.
    for seed in (0, 1):
        _, ops, _ = make_instance(100, 4, 2, seed)
        assert sum(op.perm.nbytes for op in ops) == 2 * 10_000 * 2


def test_noise_sigma_hits_snr():
    _, _, X = make_instance(60, 2, 3, seed=1)
    for snr in (10.0, 30.0):
        noise = noise_sigma(X, snr) * gaussians(X.size, 5).reshape(X.shape)
        measured = 10.0 * np.log10(np.sum(X**2) / np.sum(noise**2))
        assert measured == pytest.approx(snr, abs=0.5)


def test_noise_sigma_scales_with_the_observation():
    # pytest turns warnings into errors here, so an under- or overflow in
    # the energy fails.
    _, _, X = make_instance(40, 2, 2, seed=3)
    base = noise_sigma(X, 20.0)
    for c in (2.0**-600, 2.0**500):
        assert noise_sigma(c * X, 20.0) == c * base, c
    for c in (1e-160, 1e160):
        assert noise_sigma(c * X, 20.0) == pytest.approx(c * base, rel=1e-12), c


def test_noise_sigma_errors():
    with pytest.raises(AllZeroSignal):
        noise_sigma(np.zeros(4), 20.0)
    with pytest.raises(ValueError):
        noise_sigma(np.ones(4), np.inf)


def test_phase_spec_validation_and_sorting():
    spec = PhaseGridSpec("rank_vs_size", 2, ranks=(3, 1), axis=(30, 10, 20))
    assert spec.ranks == (1, 3)
    assert spec.axis == (10, 20, 30)
    assert spec.cell_params(1, 2) == (30, 3, 2)
    spec2 = PhaseGridSpec("rank_vs_count", 25, ranks=(1,), axis=(2, 4))
    assert spec2.cell_params(0, 1) == (25, 1, 4)
    with pytest.raises(ValueError):
        PhaseGridSpec("bogus", 2, ranks=(1,), axis=(10,))
    with pytest.raises(ValueError):
        PhaseGridSpec("rank_vs_size", 0, ranks=(1,), axis=(10,))
    with pytest.raises(ValueError):
        PhaseGridSpec("rank_vs_size", 2, ranks=(), axis=(10,))
    with pytest.raises(ValueError):
        PhaseGridSpec("rank_vs_size", 2, ranks=(1,), axis=(10,), trials=0)
    for seed in (-1, 1 << 64):
        with pytest.raises(BadIndex):
            PhaseGridSpec(seed=seed)
    assert PhaseGridSpec(seed=(1 << 64) - 1).seed == (1 << 64) - 1
    for ranks in ((0,), (2, -1)):
        with pytest.raises(BadRank, match="ranks must be in"):
            PhaseGridSpec(ranks=ranks)
    with pytest.raises(BadRank, match="integers"):
        PhaseGridSpec(ranks=(1.9,))
    with pytest.raises(ValueError, match="axis values must be >= 1"):
        PhaseGridSpec("rank_vs_count", 20, ranks=(1,), axis=(2, 0))
    for floats in ({"fixed": 2.5}, {"trials": 3.0}, {"axis": (20.5,)}):
        with pytest.raises(ValueError, match="integers"):
            PhaseGridSpec(**floats)
    spec = PhaseGridSpec(fixed=np.int64(2), ranks=(np.int32(3), 1), axis=[np.int64(30)])
    assert (spec.fixed, spec.ranks, spec.axis) == (2, (1, 3), (30,))
    assert all(type(v) is int for v in (spec.fixed, *spec.ranks, *spec.axis))
    assert PhaseGridSpec(ranks=(9,), axis=(5,)).ranks == (9,)  # r > n: an invalid cell


def test_phase_grid_tiny():
    spec = PhaseGridSpec(
        "rank_vs_size", 2, ranks=(1, 6), axis=(5, 20), trials=1, seed=3
    )
    grid = run_phase_grid(spec)
    assert grid.cells.shape == (2, 2)
    # r=6 > n=5 is not a valid instance
    assert np.isnan(grid.cells[1, 0])
    assert not np.isnan(grid.cells[0, 0])
    assert np.isfinite(grid.cells[0, 1])
    # n=20 exceeds the r=1, N=2 bound of 17, so the flag sits there; r=6
    # needs n >= 97, so its row has none
    assert grid.spec.bound_flags().tolist() == [[False, True], [False, False]]
    # n=60 holds the bound at N=2 (17) and N=3 (50) but not N=4 (101): the
    # flag sits on the largest count inside it
    count = PhaseGridSpec("rank_vs_count", 60, ranks=(1,), axis=(2, 3, 4))
    assert count.bound_flags().tolist() == [[False, True, False]]
    # recovery above the bound should be essentially exact
    assert grid.cells[0, 1] > 100.0


def test_phase_grid_deterministic():
    spec = PhaseGridSpec(
        "rank_vs_size", 2, ranks=(1,), axis=(18, 20), trials=2, seed=5
    )
    a = run_phase_grid(spec)
    b = run_phase_grid(spec)
    assert np.array_equal(a.cells, b.cells)
    assert phase_csv(a) == phase_csv(b)


def test_phase_csv_format():
    spec = PhaseGridSpec(
        "rank_vs_size", 2, ranks=(1, 6), axis=(5, 20), trials=1, seed=3
    )
    grid = run_phase_grid(spec)
    lines = phase_csv(grid).splitlines()
    assert lines[0] == "row_value,col_value,trial_count,mean_tsir_db,bound_flag"
    assert len(lines) == 5
    assert lines[1].startswith("1,5,1,")
    assert lines[3] == "6,5,1,nan,0"
    assert lines[2].endswith(",1")  # bound flag on (r=1, n=20)
    for line in lines[1:]:
        assert "np.float64" not in line


def test_render_heatmap_levels():
    # n <= 6 is below every bound, so no cell is flagged
    spec = PhaseGridSpec("rank_vs_size", 2, ranks=(1, 2), axis=(5, 6), trials=1)
    cells = np.array([[30.0, 10.0], [20.0, np.nan]])
    from rtd.experiments import PhaseGrid

    g = PhaseGrid(spec, cells)
    img = render_heatmap(g)
    assert img.dtype == np.uint8
    assert img[0, 0] == 255  # saturated above HI_DB, 25 dB
    assert img[0, 1] == 0  # below LO_DB, 15 dB
    assert img[1, 0] == 128  # midpoint of the ramp
    assert img[1, 1] == 0  # invalid cell drawn black
    # n=17 is the r=1, N=2 bound
    bound = PhaseGridSpec("rank_vs_size", 2, ranks=(1,), axis=(5, 17), trials=1)
    g2 = PhaseGrid(bound, cells[:1])
    assert render_heatmap(g2)[0, 1] == 128  # bound marker overrides the ramp


def test_noise_sweep_tiny_and_csv():
    spec = NoiseSweepSpec(n=20, N=2, ranks=(1,), snrs_db=(30.0,), trials=2, seed=1)
    rows = run_noise_sweep(spec)
    assert len(rows) == 1
    r, snr_db, mean = rows[0]
    assert (r, snr_db) == (1, 30.0)
    # recovered quality lands near the injected SNR
    assert 20.0 < mean < 45.0
    assert rows == run_noise_sweep(spec)
    text = noise_csv(spec, rows)
    lines = text.splitlines()
    assert lines[0] == "rank,snr_db,trial_count,mean_tsir_db"
    assert lines[1] == f"1,30.0,2,{mean!r}"


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSweepSpec(snrs_db=())
    with pytest.raises(ValueError):
        NoiseSweepSpec(ranks=())
    with pytest.raises(ValueError):
        NoiseSweepSpec(trials=0)
    for count in ({"n": 0}, {"N": 0}, {"N": -2}):
        with pytest.raises(ValueError, match="must be >= 1"):
            NoiseSweepSpec(**count)
    with pytest.raises(BadIndex):
        NoiseSweepSpec(seed=-1)
    for ranks in ((1, 0), (-1,), (61,)):
        with pytest.raises(BadRank, match="ranks must be in"):
            NoiseSweepSpec(n=60, ranks=ranks)
    with pytest.raises(BadRank, match="integers"):
        NoiseSweepSpec(ranks=(1.5,))
    for snrs in ((30, float("nan")), (np.inf,), (-np.inf,), (None,), ("30",)):
        with pytest.raises(ValueError, match="snrs_db must be finite"):
            NoiseSweepSpec(snrs_db=snrs)
    for floats in ({"n": 60.5}, {"N": 3.0}, {"trials": 2.5}):
        with pytest.raises(ValueError, match="integers"):
            NoiseSweepSpec(**floats)
    spec = NoiseSweepSpec(n=np.int64(60), ranks=[np.int64(60), 2])
    assert spec.ranks == (60, 2) and type(spec.n) is int


def test_dropout_tiny_and_csv():
    spec = DropoutSpec(n=20, N=3, ranks=(1,), snrs_db=(30.0,), trials=4, seed=2)
    rows = run_dropout_experiment(spec)
    assert len(rows) == 1
    snr_db, r, acc, mean = rows[0]
    assert (snr_db, r) == (30.0, 1)
    assert 0.0 <= acc <= 1.0
    assert rows == run_dropout_experiment(spec)
    text = dropout_csv(spec, rows)
    lines = text.splitlines()
    assert lines[0] == "snr_db,rank,trial_count,count_accuracy,mean_tsir_db"
    assert lines[1] == f"30.0,1,4,{acc!r},{float(mean)!r}"


def test_process_pool_matches_serial():
    phase = PhaseGridSpec(
        "rank_vs_size", 2, ranks=(1, 6), axis=(5, 18, 20), trials=2, seed=3
    )
    serial, pooled = run_phase_grid(phase, threads=1), run_phase_grid(phase, threads=2)
    assert phase_csv(pooled) == phase_csv(serial)
    assert np.array_equal(np.isnan(pooled.cells), np.isnan(serial.cells))
    noise = NoiseSweepSpec(n=20, N=2, ranks=(1, 2), snrs_db=(20, 30), trials=2, seed=1)
    assert run_noise_sweep(noise, threads=2) == run_noise_sweep(noise, threads=1)
    # At seed 2 two of these 24 trials drop every component.
    dropout = DropoutSpec(n=20, N=3, ranks=(1, 2), snrs_db=(30.0, 25), trials=6, seed=2)
    serial = run_dropout_experiment(dropout, threads=1)
    assert run_dropout_experiment(dropout, threads=2) == serial
    assert [row[:2] for row in serial] == [(30.0, 1), (30.0, 2), (25, 1), (25, 2)]


def test_pool_starts_no_more_workers_than_cells(monkeypatch):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    spec = PhaseGridSpec("rank_vs_size", 2, ranks=(1,), axis=(18, 20), trials=1, seed=5)
    serial = run_phase_grid(spec, threads=1)
    assert pools == []
    assert phase_csv(run_phase_grid(spec, threads=64)) == phase_csv(serial)
    assert pools == [2]
    all_invalid = PhaseGridSpec("rank_vs_size", 2, ranks=(6,), axis=(5,), trials=1)
    assert np.isnan(run_phase_grid(all_invalid, threads=4).cells).all()
    assert pools == [2]


def test_dropout_spec_validation():
    with pytest.raises(ValueError):
        DropoutSpec(eta=0.0)
    for count in ({"n": 0}, {"N": 0}, {"N": -2}):
        with pytest.raises(ValueError, match="must be >= 1"):
            DropoutSpec(**count)
    with pytest.raises(BadIndex):
        DropoutSpec(seed=1 << 64)
    with pytest.raises(ValueError):
        DropoutSpec(trials=0)
    with pytest.raises(ValueError):
        DropoutSpec(ranks=())
    for ranks in ((0,), (1, 21)):
        with pytest.raises(BadRank, match="ranks must be in"):
            DropoutSpec(n=20, ranks=ranks)
    with pytest.raises(BadRank, match="integers"):
        DropoutSpec(ranks=(2.0,))
    with pytest.raises(ValueError, match="snrs_db must be finite"):
        DropoutSpec(snrs_db=(np.nan,))
    with pytest.raises(ValueError, match="integers"):
        DropoutSpec(n=20.5)
