import functools
import inspect
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtd.cli as cli
import rtd.experiments as experiments
import rtd.reshuffle as reshuffle
import rtd.solver as solver
import rtd.stego as stego
from rtd.analysis import incoherence_lower_bound
from rtd.cli import main, parse_values
from rtd.errors import DivergenceDetected
from rtd.experiments import (
    DropoutSpec,
    NoiseSweepSpec,
    PhaseGridSpec,
    run_dropout_experiment,
    run_noise_sweep,
    run_phase_grid,
)
from rtd.formats import read_tensor, write_ops, write_tensor
from rtd.linalg import random_semi_orthonormal_pair
from rtd.netpbm import GrayImage, RgbImage, read_image, write_image
from rtd.reshuffle import ReshuffleOp
from rtd.solver import SolverConfig

from conftest import low_rank_image


def test_parse_values():
    assert parse_values("3") == (3,)
    assert parse_values("1,2,5") == (1, 2, 5)
    assert parse_values("20:100:10") == (20, 30, 40, 50, 60, 70, 80, 90, 100)
    assert parse_values("2:5") == (2, 3, 4, 5)
    assert parse_values("1:8") == (1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(ValueError):
        parse_values("5:1")
    with pytest.raises(ValueError):
        parse_values("1:2:3:4")
    with pytest.raises(ValueError):
        parse_values("2:8:0")
    # A range is refused by its length before it is built.
    assert len(parse_values(f"1:{cli.MAX_VALUES}")) == cli.MAX_VALUES
    assert len(parse_values(f"0:{2 * cli.MAX_VALUES - 1}:2")) == cli.MAX_VALUES
    for text in (f"1:{cli.MAX_VALUES + 1}", f"0:{2 * cli.MAX_VALUES}:2", f"1:{10**30}"):
        with pytest.raises(ValueError, match="more than"):
            parse_values(text)


def test_bound_prints_min_n(capsys):
    assert main(["bound", "--N", "2", "--r", "1"]) == 0
    assert capsys.readouterr().out == "17\n"
    assert main(["bound", "--N", "3", "--r", "2"]) == 0
    assert capsys.readouterr().out == "99\n"


def test_bound_rejects_bad_args(capsys):
    assert main(["bound", "--N", "0", "--r", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["bound", "--N", "2", "--r", "1"],
    ["decompose", "--tensor", "x.rtd", "--ops", "ops.txt", "--out-dir", "o"],
    ["reveal", "--container", "c.pgm", "--key", "k", "--out", "s.ppm"],
])
def test_seed_is_refused_where_nothing_reads_it(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--seed", "3"]) == 1
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_1(tmp_path):
    assert main(["bogus"]) == 1
    assert main([]) == 1
    assert main(["decompose"]) == 1  # missing required flags
    assert list(tmp_path.iterdir()) == []


def _write_instance(tmp_path, n=10, r=2, seed=5):
    U, V = random_semi_orthonormal_pair(n, r, seed)
    A = U @ V.T
    op = ReshuffleOp(n, n, (n * n,), seed + 1)
    X = op.apply(A)
    tensor = tmp_path / "x.rtd"
    ops = tmp_path / "ops.txt"
    write_tensor(X, tensor)
    write_ops([op], ops)
    return tensor, ops, A


def test_decompose_writes_components_and_history(tmp_path, capsys):
    tensor, ops, A = _write_instance(tmp_path)
    out = tmp_path / "out"
    code = main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(out),
    ])
    assert code == 0
    est = read_tensor(out / "component_0.rtd")
    assert np.linalg.norm(est - A) / np.linalg.norm(A) <= 1e-6
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "iteration,residual,objective,kappa,dual_residual"
    assert len(history) > 1
    err = capsys.readouterr().err
    assert "converged=True" in err
    assert "warning" not in err
    manifest_path = out / "component_0.rtd.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["subcommand"] == "decompose"
    assert str(out / "history.csv") in manifest["artifacts"]
    assert manifest["parameters"]["tol"] == 1e-7


def test_decompose_warns_when_stopped_at_max_iter(tmp_path, capsys):
    tensor, ops, _ = _write_instance(tmp_path)
    out = tmp_path / "out"
    assert main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(out), "--max-iter", "2",
    ]) == 0
    assert "rtd: warning: stopped at max_iter after 2 iterations" in capsys.readouterr().err
    assert (out / "component_0.rtd").exists()


def test_decompose_missing_file_exits_2(tmp_path):
    assert main([
        "decompose", "--tensor", str(tmp_path / "no.rtd"),
        "--ops", str(tmp_path / "no.txt"), "--out-dir", str(tmp_path / "o"),
    ]) == 2


def test_an_unwritable_manifest_exits_2_and_keeps_the_outputs(tmp_path, capsys):
    manifest = str(tmp_path / "missing" / "m.json")
    assert main(["bound", "--N", "2", "--r", "1", "--manifest", manifest]) == 2
    captured = capsys.readouterr()
    assert captured.out == "17\n"
    assert captured.err.startswith("rtd: ") and captured.err.count("\n") == 1
    tensor, ops, _ = _write_instance(tmp_path)
    out = tmp_path / "out"
    assert main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(out), "--manifest", manifest,
    ]) == 2
    assert (out / "component_0.rtd").exists() and (out / "history.csv").exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith("rtd: ")


@pytest.fixture
def no_permutations(monkeypatch):
    """Fail the test if any seeded operator gets built."""

    def refuse(count, seed):
        raise AssertionError(f"built a permutation of {count} entries")

    monkeypatch.setattr(reshuffle, "random_permutation", refuse)


def test_decompose_operator_shape_mismatch_exits_2(tmp_path, capsys, no_permutations):
    tensor = tmp_path / "x.rtd"
    write_tensor(np.zeros((4, 4)), tensor)
    ops = tmp_path / "ops.txt"
    # 4e8 entries: building this permutation would need gigabytes
    for op in (
        ReshuffleOp(20000, 20000, (20000, 20000), 1),
        ReshuffleOp(4, 4, (16,), 1),
    ):
        write_ops([op], ops)
        assert main([
            "decompose", "--tensor", str(tensor), "--ops", str(ops),
            "--out-dir", str(tmp_path / "o"),
        ]) == 2
        assert "rtd: operator maps into" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_long_field_exits_2_with_a_short_message(tmp_path, capsys):
    tensor, ops, key = tmp_path / "x.rtd", tmp_path / "ops.txt", tmp_path / "stego.key"
    write_tensor(np.zeros(4), tensor)
    ops.write_text(f"rtd-ops v1\nidentity 2 {'x' * 60000}\n")
    key.write_text(f"rtd-stego v1\nseed {'9' * 4000}\ncover 2 2\nsecret 2 2\n"
                   "strength 0.05\nmode float\n")
    for argv in (
        ["decompose", "--tensor", str(tensor), "--ops", str(ops), "--out-dir", str(tmp_path / "o")],
        ["reveal", "--container", str(tmp_path / "c.pgm"), "--key", str(key),
         "--out", str(tmp_path / "s.ppm")],
    ):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert "a field over" in err and "Traceback" not in err, argv[0]
        assert len(err) < 300, argv[0]


def test_a_long_operator_shape_exits_2_with_a_short_message(tmp_path, capsys):
    # Every field is short and each line fits in HEADER_MAX.  At the
    # 30,000 one-extents the message quoted every extent (90,053 bytes).
    tensor, ops = tmp_path / "x.rtd", tmp_path / "ops.txt"
    write_tensor(np.zeros(1), tensor)
    for line, message in (
        ("identity 1 1" + " 1" * 30000, f"1 to {reshuffle.MAX_EXTENTS} extents, got 30000"),
        ("identity 2 2" + f" {10**18}" * reshuffle.MAX_EXTENTS, "element counts differ"),
        ("identity 1 1" + " 1" * reshuffle.MAX_EXTENTS, "operator maps into a tuple of"),
    ):
        ops.write_text(f"rtd-ops v1\n{line}\n")
        assert main([
            "decompose", "--tensor", str(tensor), "--ops", str(ops),
            "--out-dir", str(tmp_path / "o"),
        ]) == 2
        err = capsys.readouterr().err
        assert "rtd: " in err and message in err and "Traceback" not in err, message
        assert len(err) < 300, message
    assert not (tmp_path / "o").exists()


def test_decompose_rejects_an_operator_seed_out_of_range(tmp_path, capsys):
    tensor = tmp_path / "x.rtd"
    write_tensor(np.zeros(4), tensor)
    ops = tmp_path / "ops.txt"
    ops.write_text("rtd-ops v1\nseeded 2 2 -1 4\n")
    assert main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(tmp_path / "o"),
    ]) == 2
    err = capsys.readouterr().err
    assert "rtd: operator seed must be None or an integer in [0, 2**64)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_schedule_flag_is_gone(tmp_path):
    tensor, ops, _ = _write_instance(tmp_path)
    assert main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(tmp_path / "o"), "--schedule", "geometric",
    ]) == 1
    assert not (tmp_path / "o").exists()


def test_rho_and_kappa0_flags_are_gone(tmp_path):
    tensor, ops, _ = _write_instance(tmp_path)
    for flag in ("--rho", "--kappa0"):
        assert main([
            "decompose", "--tensor", str(tensor), "--ops", str(ops),
            "--out-dir", str(tmp_path / "o"), flag, "1.5",
        ]) == 1
        assert not (tmp_path / "o").exists()


def test_heatmap_range_flags_are_gone(tmp_path):
    # The heatmap's ramp is fixed at experiments.LO_DB to HI_DB.
    for flag in ("--lo-db", "--hi-db"):
        assert main([
            "phase", "--ranks", "1", "--axis", "18", "--trials", "1", "--threads", "1",
            "--out-csv", str(tmp_path / "p.csv"), "--out-pgm", str(tmp_path / "p.pgm"), flag, "10",
        ]) == 1
    assert list(tmp_path.iterdir()) == []
    assert not hasattr(experiments, "heatmap_range")


@pytest.mark.parametrize("flag", ["--tol"])
def test_decompose_refuses_an_infinite_solver_parameter(flag, tmp_path, capsys):
    tensor, ops, _ = _write_instance(tmp_path)
    assert main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(tmp_path / "o"), flag, "inf",
    ]) == 2
    assert f"rtd: {flag[2:]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_decompose_exits_2_when_kappa_overflows(tmp_path, capsys, monkeypatch):
    tensor, ops, _ = _write_instance(tmp_path)
    for rho in (1.5, 1e200, 1e308):
        monkeypatch.setattr(solver, "RHO", rho)
        assert main([
            "decompose", "--tensor", str(tensor), "--ops", str(ops),
            "--out-dir", str(tmp_path / "o"), "--tol", "1e-30",
        ]) == 2
        err = capsys.readouterr().err
        assert "rtd: kappa overflows float64" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


def test_solver_flag_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(
        ["decompose", "--tensor", "x.rtd", "--ops", "ops.txt", "--out-dir", "o"]
    )
    assert SolverConfig(**cli._flag_values(SolverConfig, args)) == SolverConfig()


class _SpecSeen(Exception):
    pass


def _stop_with_spec(spec, threads):
    raise _SpecSeen(spec)


def test_experiment_flag_defaults_are_the_spec_defaults(monkeypatch):
    for name, runner, spec in (
        ("phase", "run_phase_grid", PhaseGridSpec()),
        ("noise", "run_noise_sweep", NoiseSweepSpec()),
        ("dropout", "run_dropout_experiment", DropoutSpec()),
    ):
        monkeypatch.setattr(cli, runner, _stop_with_spec)
        with pytest.raises(_SpecSeen) as seen:
            main([name, "--out-csv", "unused.csv"])
        assert seen.value.args[0] == spec


def _stop_with_call(func):
    """func's stand-in: same signature, raises with the call's arguments."""

    @functools.wraps(func)
    def stop(*args, **kwargs):
        raise _SpecSeen(args, kwargs)

    return stop


def test_hide_and_incoherence_flag_defaults_are_the_library_defaults(tmp_path, monkeypatch):
    cover_path, secret_path = _write_images(tmp_path)
    paths, ops_path = _write_components(tmp_path)
    for name, func, inputs, argv in (
        ("conceal", stego.conceal, ("cover", "secret"), [
            "hide", "--cover", str(cover_path), "--secret", str(secret_path),
            "--out", str(tmp_path / "c.pgm"), "--key", str(tmp_path / "k"),
        ]),
        ("incoherence_lower_bound", incoherence_lower_bound, ("A", "ops", "i"), [
            "incoherence", "--components", *paths, "--ops", str(ops_path),
        ]),
    ):
        monkeypatch.setattr(cli, name, _stop_with_call(func))
        with pytest.raises(_SpecSeen) as seen:
            main(argv)
        args, kwargs = seen.value.args
        signature = inspect.signature(func)
        call = signature.bind(*args, **kwargs).arguments
        assert {k: v for k, v in call.items() if k not in inputs} == {
            k: p.default for k, p in signature.parameters.items() if k not in inputs
        }


def test_flag_values_reach_the_library(tmp_path, monkeypatch):
    (tmp_path / "instance").mkdir()
    tensor, ops, _ = _write_instance(tmp_path / "instance")
    cover_path, secret_path = _write_images(tmp_path)
    paths, ops_path = _write_components(tmp_path)
    csv_path = str(tmp_path / "out.csv")
    for name, func, argv, expected in (
        ("decompose", solver.decompose, [
            "decompose", "--tensor", str(tensor), "--ops", str(ops),
            "--out-dir", str(tmp_path / "o"), "--max-iter", "7", "--tol", "1e-5",
        ], {"config": SolverConfig(max_iter=7, tol=1e-5)}),
        ("run_phase_grid", run_phase_grid, [
            "phase", "--mode", "rank_vs_count", "--fixed", "30", "--ranks", "1,2",
            "--axis", "2:4", "--trials", "2", "--seed", "5", "--out-csv", csv_path,
        ], {"spec": PhaseGridSpec("rank_vs_count", 30, (1, 2), (2, 3, 4), 2, 5)}),
        ("run_noise_sweep", run_noise_sweep, [
            "noise", "--n", "30", "--N", "3", "--ranks", "2", "--snrs", "5:15:5",
            "--trials", "1", "--seed", "6", "--out-csv", csv_path,
        ], {"spec": NoiseSweepSpec(30, 3, (2,), (5, 10, 15), 1, 6)}),
        ("run_dropout_experiment", run_dropout_experiment, [
            "dropout", "--n", "30", "--N", "3", "--ranks", "1,3", "--snrs", "20",
            "--trials", "4", "--seed", "7", "--eta", "0.2", "--out-csv", csv_path,
        ], {"spec": DropoutSpec(30, 3, (1, 3), (20,), 4, 7, 0.2)}),
        ("conceal", stego.conceal, [
            "hide", "--cover", str(cover_path), "--secret", str(secret_path),
            "--out", str(tmp_path / "c.pgm"), "--key", str(tmp_path / "k"),
            "--strength", "0.1", "--seed", "4", "--mode", "q8",
        ], {"strength": 0.1, "master_seed": 4, "mode": "q8"}),
        ("incoherence_lower_bound", incoherence_lower_bound, [
            "incoherence", "--components", *paths, "--ops", str(ops_path),
            "--restarts", "3", "--iters", "9", "--seed", "2",
        ], {"restarts": 3, "iters": 9, "seed": 2}),
    ):
        with monkeypatch.context() as patch, pytest.raises(_SpecSeen) as seen:
            patch.setattr(cli, name, _stop_with_call(func))
            main(argv)
        args, kwargs = seen.value.args
        call = inspect.signature(func).bind(*args, **kwargs).arguments
        assert {k: call[k] for k in expected} == expected


def test_flag_dests_are_the_manifest_parameter_names():
    # argparse accepts a flag's prefix, so a renamed flag must be checked by its dest
    parser = cli.build_parser()
    experiment = {"ranks", "trials", "seed", "threads", "out_csv"}
    for argv, dests in (
        (["decompose", "--tensor", "x", "--ops", "o", "--out-dir", "d"],
         {"tensor", "ops", "out_dir", "max_iter", "tol"}),
        (["phase", "--out-csv", "x"],
         experiment | {"mode", "fixed", "axis", "out_pgm"}),
        (["noise", "--out-csv", "x"], experiment | {"n", "N", "snrs"}),
        (["dropout", "--out-csv", "x"], experiment | {"n", "N", "snrs", "eta"}),
        (["hide", "--cover", "c", "--secret", "s", "--out", "o", "--key", "k"],
         {"cover", "secret", "out", "key", "strength", "seed", "mode"}),
        (["incoherence", "--components", "a", "--ops", "o"],
         {"components", "ops", "restarts", "iters", "seed"}),
    ):
        assert set(vars(parser.parse_args(argv))) == dests | {"subcommand", "manifest", "func"}


@pytest.mark.parametrize("argv", [
    ["phase", "--out-csv", "x.csv"],
    ["hide", "--cover", "c.pgm", "--secret", "s.ppm", "--out", "o.pgm", "--key", "k"],
])
def test_unknown_mode_is_a_usage_error(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--mode", "bogus"]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--vers"],
    ["noise", "--snr", "5,6", "--out-csv", "x.csv"],
    ["hide", "--cover", "c.pgm", "--secret", "s.ppm", "--out", "o.pgm", "--key", "k",
     "--str", "0.2"],
    ["phase", "--out-csv", "x.csv", "--tri", "1"],
])
def test_flag_prefixes_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a flag prefix reached the library")

    # conceal stays: its signature makes the hide flags, and hide stops at
    # its missing input files before it would call conceal.
    for name in ("run_noise_sweep", "run_phase_grid"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_readme_command_line_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("rtd ")
    ]
    assert {argv[1] for argv in examples} == {
        "bound", "decompose", "phase", "noise", "dropout", "hide", "reveal", "incoherence",
    }
    for argv in examples:
        cli.build_parser().parse_args(argv[1:])


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
    first, second = capsys.readouterr().out.splitlines()
    iterations, converged = first.split()
    assert int(iterations) > 0 and converged == "True"
    assert float(second.split()[1]) > 100.0


def test_divergence_exit_code(tmp_path, monkeypatch):
    tensor, ops, _ = _write_instance(tmp_path)

    def blow_up(problem, config):
        raise DivergenceDetected("residual blew up")

    monkeypatch.setattr(cli, "decompose", blow_up)
    assert main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(tmp_path / "out"),
    ]) == 3


def test_phase_tiny_csv_and_pgm(tmp_path):
    csv_path = tmp_path / "phase.csv"
    pgm_path = tmp_path / "phase.pgm"
    argv = [
        "phase", "--mode", "rank_vs_size", "--fixed", "2", "--ranks", "1",
        "--axis", "18,20", "--trials", "1", "--threads", "1",
        "--out-csv", str(csv_path), "--out-pgm", str(pgm_path), "--seed", "3",
    ]
    assert main(argv) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "row_value,col_value,trial_count,mean_tsir_db,bound_flag"
    assert len(lines) == 3
    # The bound marker at n = 18, then white: n = 20 is recovered past HI_DB.
    assert pgm_path.read_bytes() == b"P5\n2 1\n255\n" + bytes([128, 255])
    manifest = json.loads((tmp_path / "phase.csv.manifest.json").read_text())
    assert manifest["artifacts"] == [str(csv_path), str(pgm_path)]
    # identical arguments reproduce the CSV byte for byte
    csv2 = tmp_path / "phase2.csv"
    argv2 = list(argv)
    argv2[argv2.index(str(csv_path))] = str(csv2)
    argv2 = argv2[: argv2.index("--out-pgm")] + argv2[argv2.index("--out-pgm") + 2 :]
    assert main(argv2) == 0
    assert csv2.read_bytes() == csv_path.read_bytes()


def test_phase_bad_range_exits_2(tmp_path, capsys):
    for ranks in ("5:1", "1:10000000000000"):
        assert main([
            "phase", "--ranks", ranks, "--axis", "18", "--trials", "1",
            "--out-csv", str(tmp_path / "x.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rtd: bad range '{ranks}'") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_noise_tiny(tmp_path):
    csv_path = tmp_path / "noise.csv"
    assert main([
        "noise", "--n", "20", "--N", "2", "--ranks", "1", "--snrs", "30",
        "--trials", "1", "--threads", "1", "--out-csv", str(csv_path),
    ]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "rank,snr_db,trial_count,mean_tsir_db"
    assert len(lines) == 2


def test_dropout_tiny(tmp_path):
    csv_path = tmp_path / "dropout.csv"
    assert main([
        "dropout", "--n", "20", "--N", "2", "--ranks", "1", "--snrs", "30",
        "--trials", "2", "--threads", "1", "--out-csv", str(csv_path),
    ]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "snr_db,rank,trial_count,count_accuracy,mean_tsir_db"
    assert len(lines) == 2


@pytest.mark.parametrize("subcommand", ["noise", "dropout"])
def test_experiments_refuse_a_component_count_below_one(subcommand, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    for count in ("0", "-2"):
        assert main([subcommand, "--N", count, "--threads", "1", "--out-csv", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert f"rtd: N must be >= 1, got {count}" in err
        assert "Traceback" not in err
        assert not csv_path.exists()


@pytest.mark.parametrize("subcommand", ["phase", "noise", "dropout"])
def test_experiments_refuse_a_thread_count_below_one(subcommand, tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a cell before checking the thread count")

    monkeypatch.setattr("rtd.experiments.decompose", no_solve)
    csv_path = tmp_path / "out.csv"
    for count in ("0", "-1"):
        assert main([subcommand, "--threads", count, "--out-csv", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert f"rtd: threads must be >= 1, got {count}" in err
        assert "Traceback" not in err
        assert not csv_path.exists()


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran")

    return refuse


def _bad_outputs(tmp_path, *others):
    """File outputs no run can write: in a missing directory, a directory,
    empty, or the file of another output or of an input flag (``others``,
    named in tmp_path), given by another path to it."""
    return [str(tmp_path / "missing" / "x.out"), str(tmp_path), "",
            *(os.path.join(tmp_path, ".", other) for other in others)]


def _assert_refused(capsys, flag, path):
    err = capsys.readouterr().err
    assert err.startswith(f"rtd: {flag} ") and err.count("\n") == 1
    assert f" {path}: " in err or f" {path!r}: " in err


@pytest.mark.parametrize("subcommand,runner", [
    ("phase", "run_phase_grid"), ("noise", "run_noise_sweep"),
    ("dropout", "run_dropout_experiment"),
])
def test_experiments_refuse_a_missing_output_directory_before_solving(
    subcommand, runner, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, runner, _refuse("the study"))
    flags = ("--out-csv", "--out-pgm") if subcommand == "phase" else ("--out-csv",)
    for flag in flags:
        others = ["p.csv"] if flag == "--out-pgm" else []
        for bad in _bad_outputs(tmp_path, *others):
            # A repeated --out-csv keeps its last value.
            assert main([
                subcommand, "--threads", "1", "--out-csv", str(tmp_path / "p.csv"), flag, bad,
            ]) == 2
            _assert_refused(capsys, flag, bad)
    # Each flag is checked as it is parsed, before a later usage error.
    assert main([subcommand, "--out-csv", "", "--threads", "x"]) == 2
    _assert_refused(capsys, "--out-csv", "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--out-cover"])
def test_reveal_refuses_a_missing_output_directory_before_reading(flag, tmp_path, capsys, monkeypatch):
    cover_path, secret_path = _write_images(tmp_path)
    container = tmp_path / "container.pgm"
    key = tmp_path / "stego.key"
    assert main([
        "hide", "--cover", str(cover_path), "--secret", str(secret_path),
        "--out", str(container), "--key", str(key),
    ]) == 0
    made = {path: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.setattr(cli, "read_key", _refuse("reading the key"))
    monkeypatch.setattr(cli, "reveal", _refuse("the reveal"))
    capsys.readouterr()
    others = ["s.ppm"] if flag == "--out-cover" else []
    for bad in _bad_outputs(tmp_path, *others, container.name, key.name):
        # A repeated --out keeps its last value.
        assert main([
            "reveal", "--container", str(container), "--key", str(key),
            "--out", str(tmp_path / "s.ppm"), flag, bad,
        ]) == 2
        _assert_refused(capsys, flag, bad)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == made


@pytest.mark.parametrize("flag", ["--out", "--key"])
def test_hide_refuses_a_bad_output_before_reading(flag, tmp_path, capsys, monkeypatch):
    cover_path, secret_path = _write_images(tmp_path)
    made = {path: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.setattr(cli, "read_image", _refuse("reading an image"))
    monkeypatch.setattr(cli, "conceal", _refuse("conceal"))
    inputs = (cover_path.name, secret_path.name)
    for bad in _bad_outputs(tmp_path, {"--out": "k", "--key": "c2.pgm"}[flag], *inputs):
        # Neither the container nor the key is written when one cannot be.
        assert main([
            "hide", "--cover", str(cover_path), "--secret", str(secret_path),
            "--out", str(tmp_path / "c2.pgm"), "--key", str(tmp_path / "k"), flag, bad,
        ]) == 2
        _assert_refused(capsys, flag, bad)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == made


def test_a_manifest_naming_an_output_exits_2_and_keeps_the_outputs(tmp_path, capsys):
    cover_path, secret_path = _write_images(tmp_path)
    hide = ["hide", "--cover", str(cover_path), "--secret", str(secret_path)]
    assert main([*hide, "--out", str(tmp_path / "c.pgm"), "--key", str(tmp_path / "k")]) == 0
    container, key = (tmp_path / "c.pgm").read_bytes(), (tmp_path / "k").read_bytes()
    for out, key_path, manifest in (
        ("c2.pgm", "k2", ["--manifest", str(tmp_path / "c2.pgm")]),
        # The key sits at the container's default manifest path.
        ("c3.pgm", "c3.pgm.manifest.json", []),
    ):
        assert main([
            *hide, "--out", str(tmp_path / out), "--key", str(tmp_path / key_path), *manifest,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rtd: manifest ") and err.count("\n") == 1
        assert (tmp_path / out).read_bytes() == container
        assert (tmp_path / key_path).read_bytes() == key


def test_a_manifest_naming_an_input_exits_2_and_keeps_the_input(tmp_path, capsys, monkeypatch):
    cover_path, secret_path = _write_images(tmp_path)
    hide = ["hide", "--cover", str(cover_path), "--secret", str(secret_path)]
    assert main([*hide, "--out", str(tmp_path / "c.pgm"), "--key", str(tmp_path / "k")]) == 0
    paths, ops_path = _write_components(tmp_path)
    made = {path: path.read_bytes() for path in tmp_path.iterdir()}
    for name in ("read_image", "read_key", "read_tensor", "read_ops"):
        monkeypatch.setattr(cli, name, _refuse(name))
    outputs = ["--out", str(tmp_path / "c2.pgm"), "--key", str(tmp_path / "k2")]
    via = os.path.join(tmp_path, ".", cover_path.name)
    for argv, flag, other in (
        ([*hide, *outputs, "--manifest", via], "--manifest", "--cover"),
        # The flag parsed second is refused, whichever it is.
        (["hide", "--manifest", via, "--cover", str(cover_path), "--secret", str(secret_path),
          *outputs], "--cover", "--manifest"),
        (["reveal", "--container", str(tmp_path / "c.pgm"), "--key", str(tmp_path / "k"),
          "--out", str(tmp_path / "s.ppm"), "--manifest", str(tmp_path / "k")],
         "--manifest", "--key"),
        (["incoherence", "--components", *paths, "--ops", str(ops_path),
          "--manifest", paths[1]], "--manifest", "--components"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rtd: {flag} ") and err.endswith(f": same file as {other}\n")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == made


def test_a_size_too_large_for_a_reshuffle_exits_2_before_allocating(tmp_path, capsys):
    # n*n = 4e10 entries: the operator is refused before any n x n component exists.
    csv_path = tmp_path / "p.csv"
    assert main([
        "phase", "--axis", "200000", "--ranks", "1", "--trials", "1", "--threads", "1",
        "--out-csv", str(csv_path),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rtd: ") and err.count("\n") == 1
    assert "relocates at most 2**32 entries" in err
    assert not csv_path.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's RLIMIT_AS")
def test_a_size_too_large_to_allocate_exits_2(tmp_path):
    # The child caps its own address space at 2 GiB before it imports rtd; a
    # 30000 x 30000 component takes 6.71 GiB.  One BLAS thread keeps the
    # buffers OpenBLAS reserves at import inside the cap.
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
             "from rtd.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    csv_path = tmp_path / "p.csv"
    run = subprocess.run([
        sys.executable, "-c", child, "phase", "--axis", "30000", "--ranks", "1",
        "--trials", "1", "--threads", "1", "--out-csv", str(csv_path),
    ], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stderr.startswith("rtd: ") and run.stderr.count("\n") == 1
    assert not csv_path.exists()


def test_decompose_refuses_an_out_dir_it_cannot_make_before_reading(tmp_path, capsys, monkeypatch):
    tensor, ops, _ = _write_instance(tmp_path)
    made = sorted(tmp_path.iterdir())
    monkeypatch.setattr(cli, "read_tensor", _refuse("reading the tensor"))
    monkeypatch.setattr(cli, "decompose", _refuse("the solve"))
    for out_dir in (tensor, tensor / "o", tensor / "o" / "p"):
        assert main([
            "decompose", "--tensor", str(tensor), "--ops", str(ops), "--out-dir", str(out_dir),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"rtd: --out-dir {out_dir}: {tensor} is not a writable directory\n"
    assert main(["decompose", "--tensor", str(tensor), "--ops", str(ops), "--out-dir", ""]) == 2
    assert capsys.readouterr().err == "rtd: --out-dir '': is empty\n"
    assert sorted(tmp_path.iterdir()) == made


def test_dropout_refuses_an_infinite_eta(tmp_path, capsys):
    # An infinite eta counts no component, so every trial would read as a miss.
    csv_path = tmp_path / "dropout.csv"
    assert main([
        "dropout", "--eta", "inf", "--n", "8", "--N", "2", "--ranks", "1", "--snrs", "30",
        "--trials", "6", "--threads", "1", "--out-csv", str(csv_path),
    ]) == 2
    err = capsys.readouterr().err
    assert "rtd: eta must be finite and positive, got inf" in err
    assert "Traceback" not in err
    assert not csv_path.exists()


def test_noise_refuses_a_bad_rank_before_it_solves(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a cell before checking every rank")

    monkeypatch.setattr("rtd.experiments.decompose", no_solve)
    csv_path = tmp_path / "noise.csv"
    assert main([
        "noise", "--n", "60", "--N", "3", "--ranks", "1,0", "--snrs", "30",
        "--trials", "2", "--threads", "1", "--out-csv", str(csv_path),
    ]) == 2
    err = capsys.readouterr().err
    assert "rtd: ranks must be in [1, 60], got (1, 0)" in err
    assert "Traceback" not in err
    assert not csv_path.exists()


def _write_images(tmp_path, h=32, w=32):
    cover_path = tmp_path / "cover.pgm"
    secret_path = tmp_path / "secret.ppm"
    write_image(GrayImage(low_rank_image(h, w, 3, 50)), cover_path, maxval=65535)
    channels = np.stack([low_rank_image(h, w, 1, 60 + c) for c in range(3)], axis=-1)
    write_image(RgbImage(channels), secret_path, maxval=65535)
    return cover_path, secret_path


def test_hide_reveal_roundtrip(tmp_path, capsys):
    cover_path, secret_path = _write_images(tmp_path)
    container = tmp_path / "container.pgm"
    key = tmp_path / "stego.key"
    assert main([
        "hide", "--cover", str(cover_path), "--secret", str(secret_path),
        "--out", str(container), "--key", str(key), "--strength", "0.05",
        "--seed", "9",
    ]) == 0
    capsys.readouterr()
    assert key.read_text().startswith("rtd-stego v1\nseed 9\n")
    out_secret = tmp_path / "revealed.ppm"
    out_cover = tmp_path / "restored.pgm"
    assert main([
        "reveal", "--container", str(container), "--key", str(key),
        "--out", str(out_secret), "--out-cover", str(out_cover),
        "--ref-secret", str(secret_path), "--ref-cover", str(cover_path),
    ]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "metric,value"
    metrics = dict(line.split(",", 1) for line in lines[1:])
    assert set(metrics) >= {
        "iterations", "converged", "stop_reason", "residual", "tol",
        "sir_r_db", "sir_g_db", "sir_b_db", "secret_tsir_db", "cover_sir_db",
    }
    assert metrics["converged"] == "1"
    assert metrics["stop_reason"] == "tol"
    # the float container is a 16-bit file: the solve stops at its rounding floor
    pixels = read_image(container).pixels
    floor = 1.5 / (2.0 * 65535 * np.sqrt(3.0)) * np.sqrt(pixels.size) / np.linalg.norm(pixels)
    assert float(metrics["tol"]) == pytest.approx(floor, rel=1e-12)
    assert float(metrics["residual"]) <= float(metrics["tol"])
    assert float(metrics["secret_tsir_db"]) >= 20.0
    assert float(metrics["cover_sir_db"]) >= 20.0
    revealed = read_image(out_secret)
    assert isinstance(revealed, RgbImage)
    assert revealed.pixels.shape == (32, 32, 3)
    assert isinstance(read_image(out_cover), GrayImage)


def test_reveal_warns_when_stopped_at_max_iter(tmp_path, capsys, monkeypatch):
    cover_path, secret_path = _write_images(tmp_path)
    container = tmp_path / "container.pgm"
    key = tmp_path / "stego.key"
    assert main([
        "hide", "--cover", str(cover_path), "--secret", str(secret_path),
        "--out", str(container), "--key", str(key),
    ]) == 0
    real_reveal = cli.reveal

    def short_reveal(*args, **kwargs):
        return real_reveal(*args, config=SolverConfig(max_iter=3), **kwargs)

    monkeypatch.setattr(cli, "reveal", short_reveal)
    capsys.readouterr()
    out_secret = tmp_path / "revealed.ppm"
    assert main([
        "reveal", "--container", str(container), "--key", str(key),
        "--out", str(out_secret),
    ]) == 0
    captured = capsys.readouterr()
    assert "rtd: warning: stopped at max_iter after 3 iterations" in captured.err
    assert "stop_reason,max_iter" in captured.out.splitlines()
    assert out_secret.exists()


def test_hide_rejects_color_cover(tmp_path):
    cover_path, secret_path = _write_images(tmp_path)
    assert main([
        "hide", "--cover", str(secret_path), "--secret", str(secret_path),
        "--out", str(tmp_path / "c.pgm"), "--key", str(tmp_path / "k"),
    ]) == 2


def test_hide_rejects_gray_secret_and_reveal_rejects_color_container(tmp_path, capsys):
    cover_path, secret_path = _write_images(tmp_path)
    key = tmp_path / "stego.key"
    assert main([
        "hide", "--cover", str(cover_path), "--secret", str(cover_path),
        "--out", str(tmp_path / "c.pgm"), "--key", str(key),
    ]) == 2
    assert "rtd: conceal needs a GrayImage cover and an RgbImage secret" in capsys.readouterr().err
    assert main([
        "hide", "--cover", str(cover_path), "--secret", str(secret_path),
        "--out", str(tmp_path / "c.pgm"), "--key", str(key),
    ]) == 0
    capsys.readouterr()
    assert main([
        "reveal", "--container", str(secret_path), "--key", str(key),
        "--out", str(tmp_path / "s.ppm"),
    ]) == 2
    assert "rtd: reveal needs a GrayImage container" in capsys.readouterr().err
    assert not (tmp_path / "s.ppm").exists()


@pytest.mark.parametrize("strength", ["nan", "inf"])
def test_hide_refuses_a_non_finite_strength(strength, tmp_path, capsys):
    cover_path, secret_path = _write_images(tmp_path)
    container = tmp_path / "container.pgm"
    key = tmp_path / "stego.key"
    assert main([
        "hide", "--cover", str(cover_path), "--secret", str(secret_path),
        "--out", str(container), "--key", str(key), "--strength", strength,
    ]) == 2
    assert "rtd: strength must be finite and positive" in capsys.readouterr().err
    assert not container.exists() and not key.exists()


def test_hide_and_reveal_refuse_a_seed_out_of_range(tmp_path, capsys):
    cover_path, secret_path = _write_images(tmp_path)
    container = tmp_path / "container.pgm"
    key = tmp_path / "stego.key"
    hide = [
        "hide", "--cover", str(cover_path), "--secret", str(secret_path),
        "--out", str(container), "--key", str(key),
    ]
    assert main([*hide, "--seed", "-1"]) == 2
    assert "rtd: master seed must be an integer in [0, 2**64), got -1" in capsys.readouterr().err
    assert not container.exists() and not key.exists()
    assert main(hide) == 0
    key.write_text(key.read_text().replace("seed 0\n", "seed -1\n"))
    capsys.readouterr()
    assert main([
        "reveal", "--container", str(container), "--key", str(key),
        "--out", str(tmp_path / "s.ppm"),
    ]) == 2
    err = capsys.readouterr().err
    assert "rtd: master seed must be an integer in [0, 2**64), got -1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "s.ppm").exists()


@pytest.mark.parametrize("strength", ["nan", "inf"])
def test_reveal_refuses_a_key_with_non_finite_strength(strength, tmp_path, capsys):
    cover_path, secret_path = _write_images(tmp_path)
    container = tmp_path / "container.pgm"
    key = tmp_path / "stego.key"
    assert main([
        "hide", "--cover", str(cover_path), "--secret", str(secret_path),
        "--out", str(container), "--key", str(key), "--strength", "0.05",
    ]) == 0
    key.write_text(key.read_text().replace("strength 0.05\n", f"strength {strength}\n"))
    capsys.readouterr()
    assert main([
        "reveal", "--container", str(container), "--key", str(key),
        "--out", str(tmp_path / "s.ppm"),
    ]) == 2
    assert "rtd: strength must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "s.ppm").exists()


def test_reveal_with_wrong_size_container_exits_2(tmp_path, capsys):
    cover_path, secret_path = _write_images(tmp_path)
    container = tmp_path / "container.pgm"
    key = tmp_path / "stego.key"
    assert main([
        "hide", "--cover", str(cover_path), "--secret", str(secret_path),
        "--out", str(container), "--key", str(key),
    ]) == 0
    other = tmp_path / "other.pgm"
    write_image(GrayImage(np.zeros((16, 16))), other)
    assert main([
        "reveal", "--container", str(other), "--key", str(key),
        "--out", str(tmp_path / "s.ppm"),
    ]) == 2


@pytest.mark.parametrize("flag,image", [
    ("--ref-secret", GrayImage(np.zeros((32, 32)))),
    ("--ref-secret", RgbImage(np.zeros((16, 16, 3)))),
    ("--ref-cover", RgbImage(np.zeros((32, 32, 3)))),
    ("--ref-cover", GrayImage(np.zeros((16, 16)))),
])
def test_reveal_with_wrong_reference_image_exits_2_before_solving(
    flag, image, tmp_path, capsys, monkeypatch
):
    cover_path, secret_path = _write_images(tmp_path)
    container = tmp_path / "container.pgm"
    key = tmp_path / "stego.key"
    assert main([
        "hide", "--cover", str(cover_path), "--secret", str(secret_path),
        "--out", str(container), "--key", str(key),
    ]) == 0
    ref = tmp_path / ("ref.ppm" if isinstance(image, RgbImage) else "ref.pgm")
    write_image(image, ref)

    def refuse(*args, **kwargs):
        raise AssertionError("reveal built operators or solved")

    monkeypatch.setattr(reshuffle, "random_permutation", refuse)
    monkeypatch.setattr(stego, "decompose", refuse)
    capsys.readouterr()
    assert main([
        "reveal", "--container", str(container), "--key", str(key),
        "--out", str(tmp_path / "s.ppm"), flag, str(ref),
    ]) == 2
    assert "rtd: reference image must be a" in capsys.readouterr().err
    assert not (tmp_path / "s.ppm").exists()


def _write_components(tmp_path, n=6):
    ops = [ReshuffleOp(n, n, (n * n,), s) for s in (1, 2)]
    paths = []
    for i in range(2):
        U, V = random_semi_orthonormal_pair(n, 1, 30 + i)
        path = tmp_path / f"comp_{i}.rtd"
        write_tensor(U @ V.T, path)
        paths.append(str(path))
    ops_path = tmp_path / "ops.txt"
    write_ops(ops, ops_path)
    return paths, ops_path


def test_incoherence_report(tmp_path, capsys):
    paths, ops_path = _write_components(tmp_path)
    assert main([
        "incoherence", "--components", *paths, "--ops", str(ops_path),
        "--restarts", "2", "--iters", "10",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "component,mu_lower_bound,threshold,verdict"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) >= 0.0
        assert float(fields[2]) == 0.25
        assert fields[3] in ("not falsified", "falsified")


def test_incoherence_count_mismatch_exits_2(tmp_path, no_permutations):
    n = 4
    ops = [ReshuffleOp(n, n, (n * n,), s) for s in (1, 2)]
    ops_path = tmp_path / "ops.txt"
    write_ops(ops, ops_path)
    path = tmp_path / "c.rtd"
    write_tensor(np.eye(n), path)
    assert main([
        "incoherence", "--components", str(path), "--ops", str(ops_path),
    ]) == 2


def test_incoherence_operator_shape_mismatch_exits_2(tmp_path, capsys, no_permutations):
    ops_path = tmp_path / "ops.txt"
    write_ops([ReshuffleOp(20000, 20000, (20000 * 20000,), 1)], ops_path)
    path = tmp_path / "c.rtd"
    write_tensor(np.eye(4), path)
    assert main([
        "incoherence", "--components", str(path), "--ops", str(ops_path),
    ]) == 2
    assert "rtd: operator takes 20000x20000 matrices" in capsys.readouterr().err


def test_explicit_manifest_path(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    assert main([
        "bound", "--N", "2", "--r", "1", "--manifest", str(manifest),
    ]) == 0
    data = json.loads(manifest.read_text())
    assert data["subcommand"] == "bound"
    assert data["artifacts"] == []
    assert data["parameters"]["N"] == 2


def test_stdout_only_command_writes_no_manifest_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bound", "--N", "1", "--r", "1"]) == 0
    assert list(tmp_path.iterdir()) == []
