import functools
import inspect
import json

import numpy as np
import pytest

import rtd.cli as cli
import rtd.reshuffle as reshuffle
import rtd.stego as stego
from rtd.analysis import incoherence_lower_bound
from rtd.cli import main, parse_values
from rtd.errors import DivergenceDetected
from rtd.experiments import DropoutSpec, NoiseSweepSpec, PhaseGridSpec, render_heatmap
from rtd.formats import OpSpec, read_tensor, write_ops, write_tensor
from rtd.linalg import random_semi_orthonormal_pair
from rtd.netpbm import GrayImage, RgbImage, read_image, write_image
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
    spec = OpSpec("seeded", n, n, (n * n,), seed=seed + 1)
    X = spec.build().apply(A)
    tensor = tmp_path / "x.rtd"
    ops = tmp_path / "ops.txt"
    write_tensor(X, tensor)
    write_ops([spec], ops)
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
    for spec in (
        OpSpec("seeded", 20000, 20000, (20000, 20000), seed=1),
        OpSpec("seeded", 4, 4, (16,), seed=1),
    ):
        write_ops([spec], ops)
        assert main([
            "decompose", "--tensor", str(tensor), "--ops", str(ops),
            "--out-dir", str(tmp_path / "o"),
        ]) == 2
        assert "rtd: operator maps into" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_schedule_flag_is_gone(tmp_path):
    tensor, ops, _ = _write_instance(tmp_path)
    assert main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(tmp_path / "o"), "--schedule", "geometric",
    ]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--rho", "--kappa0", "--tol"])
def test_decompose_refuses_an_infinite_solver_parameter(flag, tmp_path, capsys):
    tensor, ops, _ = _write_instance(tmp_path)
    assert main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(tmp_path / "o"), flag, "inf",
    ]) == 2
    assert f"rtd: {flag[2:]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_decompose_exits_2_when_kappa_overflows(tmp_path, capsys):
    tensor, ops, _ = _write_instance(tmp_path)
    assert main([
        "decompose", "--tensor", str(tensor), "--ops", str(ops),
        "--out-dir", str(tmp_path / "o"), "--rho", "1e200", "--tol", "1e-30",
    ]) == 2
    err = capsys.readouterr().err
    assert "rtd: kappa overflows float64" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_solver_flag_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(
        ["decompose", "--tensor", "x.rtd", "--ops", "ops.txt", "--out-dir", "o"]
    )
    assert cli._solver_config(args) == SolverConfig()


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
    args = cli.build_parser().parse_args(["phase", "--out-csv", "unused.csv"])
    assert (args.lo_db, args.hi_db) == render_heatmap.__defaults__


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
    img = read_image(pgm_path)
    assert img.pixels.shape == (1, 2)
    manifest = json.loads((tmp_path / "phase.csv.manifest.json").read_text())
    assert manifest["artifacts"] == [str(csv_path), str(pgm_path)]
    # identical arguments reproduce the CSV byte for byte
    csv2 = tmp_path / "phase2.csv"
    argv2 = list(argv)
    argv2[argv2.index(str(csv_path))] = str(csv2)
    argv2 = argv2[: argv2.index("--out-pgm")] + argv2[argv2.index("--out-pgm") + 2 :]
    assert main(argv2) == 0
    assert csv2.read_bytes() == csv_path.read_bytes()


def test_phase_bad_range_exits_2(tmp_path):
    assert main([
        "phase", "--ranks", "5:1", "--axis", "18", "--trials", "1",
        "--out-csv", str(tmp_path / "x.csv"),
    ]) == 2


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
    specs = [OpSpec("seeded", n, n, (n * n,), seed=s) for s in (1, 2)]
    paths = []
    for i in range(2):
        U, V = random_semi_orthonormal_pair(n, 1, 30 + i)
        path = tmp_path / f"comp_{i}.rtd"
        write_tensor(U @ V.T, path)
        paths.append(str(path))
    ops_path = tmp_path / "ops.txt"
    write_ops(specs, ops_path)
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
    specs = [OpSpec("seeded", n, n, (n * n,), seed=s) for s in (1, 2)]
    ops_path = tmp_path / "ops.txt"
    write_ops(specs, ops_path)
    path = tmp_path / "c.rtd"
    write_tensor(np.eye(n), path)
    assert main([
        "incoherence", "--components", str(path), "--ops", str(ops_path),
    ]) == 2


def test_incoherence_operator_shape_mismatch_exits_2(tmp_path, capsys, no_permutations):
    ops_path = tmp_path / "ops.txt"
    write_ops([OpSpec("seeded", 20000, 20000, (20000 * 20000,), seed=1)], ops_path)
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
