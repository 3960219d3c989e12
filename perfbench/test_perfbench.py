"""Tests of the benchmark itself, at toy sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtd.solver
from rtd.netpbm import GrayImage, RgbImage

from perfbench import harness, run, tracing
from perfbench.workloads import (
    WORKLOADS,
    CliReveal,
    PhaseGrid,
    StegoReveal,
    write_pnm,
)

ROOT = Path(__file__).resolve().parent.parent


def _toy_grid(ranks=(1,)):
    grid = PhaseGrid(seed=3, rounds=1, sizes=(20,), ranks=ranks)
    grid.prepare()
    grid.validate()
    return grid


def test_phase_grid_check_passes_and_fires_on_residual():
    grid = _toy_grid()
    result = grid.run(0)
    ok, quality, _ = grid.check(0, result)
    assert ok and quality > 100.0
    result.components[0][3, 4] += 1e-3
    ok, _, message = grid.check(0, result)
    assert not ok and "residual" in message


def test_phase_grid_check_fires_on_feasible_wrong_split():
    """Moving mass from one component to the other keeps X but not the truth."""
    grid = _toy_grid()
    result = grid.run(0)
    _, ops, _ = grid.instances[0]
    D = np.outer(np.arange(20.0), np.ones(20)) / 20.0
    moved = D.ravel()[ops[0].inv_perm][ops[1].perm].reshape(20, 20)
    result.components[0] = result.components[0] + D
    result.components[1] = result.components[1] - moved
    ok, quality, _ = grid.check(0, result)
    assert not ok and quality < 25.0


def test_phase_grid_below_bound_checks_residual_only():
    grid = PhaseGrid(seed=3, rounds=1, sizes=(20,), ranks=(2,))  # bound is n >= 33
    grid.prepare()
    result = grid.run(0)
    assert grid.check(0, result) == (True, None, "")


def test_phase_grid_validate_fires_on_bad_instance():
    grid = _toy_grid()
    comps, ops, X = grid.instances[0]
    grid.instances[0] = (comps, ops, X + 1e-6)
    with pytest.raises(RuntimeError, match="not the sum"):
        grid.validate()


def test_stego_check_fires_on_corrupted_secret_and_cover():
    stego = StegoReveal(seed=5, rounds=1, size=8)
    secret, cover = RgbImage(stego.secret.copy()), GrayImage(stego.cover.copy())
    ok, quality, _ = stego.check(0, (secret, cover, {}))
    assert ok and quality == 300.0
    secret.pixels[:, :, 1] = 0.0
    assert not stego.check(0, (secret, cover, {}))[0]
    secret = RgbImage(stego.secret.copy())
    cover.pixels[:] = cover.pixels[::-1]
    assert not stego.check(0, (secret, cover, {}))[0]


def test_stego_validate_fires_on_wrong_container():
    stego = StegoReveal(seed=5, rounds=1, size=8)
    stego.prepare()
    stego.validate()
    stego.container.pixels[0, 0] += 0.01
    with pytest.raises(RuntimeError, match="container sum"):
        stego.validate()


def test_cli_check_reads_files_and_fires(tmp_path):
    cli = CliReveal(seed=7, rounds=1, workdir=str(tmp_path), size=8)
    cli.prepare()
    cli.validate()
    write_pnm(cli.paths["revealed.ppm"], cli.secret, 255)
    write_pnm(cli.paths["restored.pgm"], cli.cover, 255)
    ok, quality, _ = cli.check(0, 0)
    assert ok and quality > 40.0
    assert cli.check(0, 2) == (False, None, "rtd reveal exited 2")
    write_pnm(cli.paths["revealed.ppm"], cli.secret[::-1], 255)
    assert not cli.check(0, 0)[0]


def test_cli_operation_removes_stale_outputs(tmp_path):
    cli = CliReveal(seed=7, rounds=1, workdir=str(tmp_path), size=8)
    write_pnm(cli.paths["revealed.ppm"], cli.secret, 255)
    write_pnm(cli.paths["restored.pgm"], cli.cover, 255)
    assert cli.run(0) != 0  # no container or key yet: rtd reveal fails
    assert not Path(cli.paths["revealed.ppm"]).exists()
    assert harness.run_operations(cli)[2] == 1


def test_missing_hooks_are_reported_absent():
    tracer = tracing.Tracer()
    original = rtd.solver.svt_with_values
    absent = tracer.install((
        ("svt", "rtd.solver", "svt_with_values"),
        ("gone", "rtd.solver", "no_such_function"),
        ("gone", "rtd.solver", "kernels.no_such_kernel"),
        ("gone", "rtd.no_such_module", "f"),
    ))
    try:
        assert rtd.solver.svt_with_values is not original
    finally:
        tracer.uninstall()
    assert rtd.solver.svt_with_values is original
    assert absent == [
        "rtd.solver.no_such_function",
        "rtd.solver.kernels.no_such_kernel",
        "rtd.no_such_module.f",
    ]


def test_self_time_is_span_time_minus_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    with tracer.span("outer"):
        inner()
        inner()
    layers = tracer.layers()
    assert layers["inner"]["calls"] == 2
    assert layers["inner"]["self_s"] == pytest.approx(layers["inner"]["total_s"])
    outer = layers["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - layers["inner"]["total_s"])
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_traced_run_reports_every_layer_and_unpatches(tmp_path):
    original = rtd.solver.decompose
    trace_path = tmp_path / "trace.json"
    result = harness.measure_traced(_toy_grid(), str(trace_path))
    assert rtd.solver.decompose is original
    assert result["correct"] and result["attempted"] == 3
    metrics = result["metrics"]
    assert set(metrics) == set(harness.LAYER_UNITS)
    iterations = metrics["solver.iterations"]["value"]
    assert iterations > 0
    assert metrics["linalg.svt_calls"]["value"] == 2 * iterations
    assert metrics["experiments.make_instance_s"]["value"] > 0.0
    doc = json.loads(trace_path.read_text())
    assert doc["threads"].keys() == set(harness.THREAD_VARS)
    assert {span[0] for span in doc["spans"]} >= {"setup", "op", "solver", "svt"}


def test_untraced_run_reports_end_to_end_metrics():
    result = harness.measure(_toy_grid(), str(ROOT / "src"))
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.LAYER_UNITS


def test_gitignore_covers_outputs():
    assert "perfbench/out/" in (ROOT / ".gitignore").read_text().split()


def test_command_fails_without_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
