"""Command line driver.

Subcommands cover decomposition (decompose), the synthetic experiments
(phase, noise, dropout), steganography (hide, reveal) and the recovery
diagnostics (bound, incoherence).  Every run is seed-driven: hide,
incoherence and the experiments take --seed, and operator files and stego
keys carry their own seeds.  File outputs are deterministic for fixed
arguments.  Exit codes: 0 success, 1 usage, 2 data error, 3 solver
divergence.
"""

import argparse
import inspect
import json
import os
import sys
import time

from . import __version__
from .analysis import certificate_csv, incoherence_lower_bound, recovery_bound_min_n
from .errors import DimMismatch, DivergenceDetected, RtdError, ShapeMismatch
from .experiments import (
    MODES,
    DropoutSpec,
    NoiseSweepSpec,
    PhaseGridSpec,
    dropout_csv,
    noise_csv,
    phase_csv,
    render_heatmap,
    run_dropout_experiment,
    run_noise_sweep,
    run_phase_grid,
)
from .formats import read_ops, read_tensor, write_tensor
from .netpbm import GrayImage, RgbImage, read_image, write_image
from .solver import Problem, SolverConfig, decompose, history_csv
from .stego import MODES as STEGO_MODES
from .stego import conceal, read_key, reveal, write_key

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_values(text):
    """Integer list syntax: '3', '1,2,5', or inclusive range '20:100:10'."""
    text = text.strip()
    if ":" in text:
        parts = [int(v) for v in text.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ValueError(f"bad range {text!r}, want start:stop[:step]")
        if step < 1 or stop < start:
            raise ValueError(f"bad range {text!r}")
        return tuple(range(start, stop + 1, step))
    return tuple(int(v) for v in text.split(","))


def _solver_config(args):
    return SolverConfig(
        rho=args.rho,
        kappa0=args.kappa0,
        max_iter=args.max_iter,
        tol=args.tol,
    )


def _add_solver_flags(sub):
    defaults = SolverConfig()
    sub.add_argument("--rho", type=float, default=defaults.rho)
    sub.add_argument("--kappa0", type=float, default=defaults.kappa0)
    sub.add_argument("--max-iter", type=int, default=defaults.max_iter)
    sub.add_argument("--tol", type=float, default=defaults.tol)


def _warn_unconverged(converged, iterations, residual):
    """A run that hit max_iter still writes its outputs and exits 0."""
    if not converged:
        print(
            f"rtd: warning: stopped at max_iter after {iterations} iterations, "
            f"residual {residual:.3e} above tol",
            file=sys.stderr,
        )


def _values_text(values):
    return ",".join(str(v) for v in values)


def _add_experiment_flags(sub, defaults):
    """Flags every experiment takes, defaulting to the spec's own fields."""
    sub.add_argument("--seed", type=int, default=defaults.seed)
    sub.add_argument("--ranks", default=_values_text(defaults.ranks))
    sub.add_argument("--trials", type=int, default=defaults.trials)
    sub.add_argument("--threads", type=int, default=os.cpu_count())
    sub.add_argument("--out-csv", required=True)


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def cmd_decompose(args):
    X = read_tensor(args.tensor)
    specs = read_ops(args.ops)
    # Shapes are checked before any permutation is built, so an operator
    # file cannot make the build allocate more than the tensor holds.
    for spec in specs:
        if spec.dst_shape != X.shape:
            raise ShapeMismatch(
                f"operator maps into {spec.dst_shape}, observation has shape {X.shape}"
            )
    ops = [spec.build() for spec in specs]
    result = decompose(Problem(X, ops), _solver_config(args))
    os.makedirs(args.out_dir, exist_ok=True)
    artifacts = []
    for i, comp in enumerate(result.components):
        path = os.path.join(args.out_dir, f"component_{i}.rtd")
        write_tensor(comp, path)
        artifacts.append(path)
    history_path = os.path.join(args.out_dir, "history.csv")
    _write_text(history_path, history_csv(result))
    artifacts.append(history_path)
    print(
        f"decompose: {result.iterations} iterations, converged={result.converged}, "
        f"residual={result.residual_history[-1]:.3e}",
        file=sys.stderr,
    )
    _warn_unconverged(result.converged, result.iterations, result.residual_history[-1])
    return artifacts


def cmd_phase(args):
    spec = PhaseGridSpec(
        mode=args.mode,
        fixed=args.fixed,
        ranks=parse_values(args.ranks),
        axis=parse_values(args.axis),
        trials=args.trials,
        seed=args.seed,
    )
    grid = run_phase_grid(spec, threads=args.threads)
    _write_text(args.out_csv, phase_csv(grid))
    artifacts = [args.out_csv]
    if args.out_pgm:
        img = render_heatmap(grid, args.lo_db, args.hi_db)
        write_image(GrayImage(img.astype(float) / 255.0), args.out_pgm, maxval=255)
        artifacts.append(args.out_pgm)
    return artifacts


def cmd_noise(args):
    spec = NoiseSweepSpec(
        n=args.n,
        N=args.N,
        ranks=parse_values(args.ranks),
        snrs_db=parse_values(args.snrs),
        trials=args.trials,
        seed=args.seed,
    )
    rows = run_noise_sweep(spec, threads=args.threads)
    _write_text(args.out_csv, noise_csv(spec, rows))
    return [args.out_csv]


def cmd_dropout(args):
    spec = DropoutSpec(
        n=args.n,
        N=args.N,
        ranks=parse_values(args.ranks),
        snrs_db=parse_values(args.snrs),
        trials=args.trials,
        seed=args.seed,
        eta=args.eta,
    )
    rows = run_dropout_experiment(spec, threads=args.threads)
    _write_text(args.out_csv, dropout_csv(spec, rows))
    return [args.out_csv]


def cmd_hide(args):
    cover = read_image(args.cover)
    secret = read_image(args.secret)
    if not isinstance(cover, GrayImage):
        raise DimMismatch(f"cover must be a grayscale PGM: {args.cover}")
    if not isinstance(secret, RgbImage):
        raise DimMismatch(f"secret must be a color PPM: {args.secret}")
    container, key = conceal(cover, secret, args.strength, args.seed, args.mode)
    # An exact (float) container is written at 16 bits.
    write_image(container, args.out, maxval=container.maxval or 65535)
    write_key(key, args.key)
    return [args.out, args.key]


def cmd_reveal(args):
    key = read_key(args.key)
    container = read_image(args.container)
    if not isinstance(container, GrayImage):
        raise DimMismatch(f"container must be a grayscale PGM: {args.container}")
    ref_secret = read_image(args.ref_secret) if args.ref_secret else None
    ref_cover = read_image(args.ref_cover) if args.ref_cover else None
    secret_est, cover_est, metrics = reveal(
        container, key, ref_secret=ref_secret, ref_cover=ref_cover
    )
    _warn_unconverged(metrics["converged"], metrics["iterations"], metrics["residual"])
    write_image(secret_est, args.out, maxval=255)
    artifacts = [args.out]
    if args.out_cover:
        write_image(cover_est, args.out_cover, maxval=255)
        artifacts.append(args.out_cover)
    lines = ["metric,value"]
    for name, value in metrics.items():
        if isinstance(value, bool):
            value = int(value)
        elif isinstance(value, float) or hasattr(value, "item"):
            value = repr(float(value))
        lines.append(f"{name},{value}")
    sys.stdout.write("\n".join(lines) + "\n")
    return artifacts


def cmd_bound(args):
    print(recovery_bound_min_n(args.N, args.r))
    return []


def cmd_incoherence(args):
    components = [read_tensor(p) for p in args.components]
    specs = read_ops(args.ops)
    if len(components) != len(specs):
        raise DimMismatch(
            f"{len(components)} component files but {len(specs)} operators"
        )
    for spec, A in zip(specs, components):
        if (spec.m, spec.n) != A.shape:
            raise ShapeMismatch(
                f"operator takes {spec.m}x{spec.n} matrices, component has shape {A.shape}"
            )
    ops = [spec.build() for spec in specs]
    mus = []
    for i, A in enumerate(components):
        est = incoherence_lower_bound(
            A, ops, i, restarts=args.restarts, iters=args.iters, seed=args.seed
        )
        mus.append(est.value)
    sys.stdout.write(certificate_csv(mus))
    return []


def build_parser():
    parser = _Parser(prog="rtd", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rtd {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        sub.add_argument("--manifest", default=None)
        return sub

    sub = add("decompose", cmd_decompose, "split a stored tensor into components")
    sub.add_argument("--tensor", required=True)
    sub.add_argument("--ops", required=True)
    sub.add_argument("--out-dir", required=True)
    _add_solver_flags(sub)

    phase = PhaseGridSpec()
    heatmap = inspect.signature(render_heatmap).parameters
    sub = add("phase", cmd_phase, "tSIR grid over rank and size or count")
    _add_experiment_flags(sub, phase)
    sub.add_argument("--mode", choices=MODES, default=phase.mode)
    sub.add_argument("--fixed", type=int, default=phase.fixed)
    sub.add_argument("--axis", default=_values_text(phase.axis))
    sub.add_argument("--lo-db", type=float, default=heatmap["lo_db"].default)
    sub.add_argument("--hi-db", type=float, default=heatmap["hi_db"].default)
    sub.add_argument("--out-pgm", default=None)

    noise = NoiseSweepSpec()
    sub = add("noise", cmd_noise, "tSIR under additive Gaussian noise")
    _add_experiment_flags(sub, noise)
    sub.add_argument("--n", type=int, default=noise.n)
    sub.add_argument("--N", type=int, default=noise.N)
    sub.add_argument("--snrs", default=_values_text(noise.snrs_db))

    dropout = DropoutSpec()
    sub = add("dropout", cmd_dropout, "component-count estimation accuracy")
    _add_experiment_flags(sub, dropout)
    sub.add_argument("--n", type=int, default=dropout.n)
    sub.add_argument("--N", type=int, default=dropout.N)
    sub.add_argument("--snrs", default=_values_text(dropout.snrs_db))
    sub.add_argument("--eta", type=float, default=dropout.eta)

    hide = inspect.signature(conceal).parameters
    sub = add("hide", cmd_hide, "embed a color secret in a grayscale cover")
    sub.add_argument("--cover", required=True)
    sub.add_argument("--secret", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--key", required=True)
    sub.add_argument("--seed", type=int, default=hide["master_seed"].default)
    sub.add_argument("--strength", type=float, default=hide["strength"].default)
    sub.add_argument("--mode", choices=STEGO_MODES, default=hide["mode"].default)

    sub = add("reveal", cmd_reveal, "recover the secret from a container")
    sub.add_argument("--container", required=True)
    sub.add_argument("--key", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--out-cover", default=None)
    sub.add_argument("--ref-secret", default=None)
    sub.add_argument("--ref-cover", default=None)

    sub = add("bound", cmd_bound, "minimum size for guaranteed recovery")
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)

    ascent = inspect.signature(incoherence_lower_bound).parameters
    sub = add("incoherence", cmd_incoherence, "certificate report for stored components")
    sub.add_argument("--components", nargs="+", required=True)
    sub.add_argument("--ops", required=True)
    sub.add_argument("--seed", type=int, default=ascent["seed"].default)
    sub.add_argument("--restarts", type=int, default=ascent["restarts"].default)
    sub.add_argument("--iters", type=int, default=ascent["iters"].default)

    return parser


def _write_manifest(args, artifacts, wall_clock):
    path = args.manifest
    if path is None:
        if not artifacts:
            return
        path = artifacts[0] + ".manifest.json"
    params = {
        k: v for k, v in vars(args).items() if k not in ("func", "manifest")
    }
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "parameters": params,
        "artifacts": list(artifacts),
        "wall_clock_s": round(wall_clock, 3),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.time()
    try:
        artifacts = args.func(args)
    except DivergenceDetected as exc:
        print(f"rtd: solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (RtdError, OSError, ValueError) as exc:
        print(f"rtd: {exc}", file=sys.stderr)
        return EXIT_DATA
    _write_manifest(args, artifacts, time.time() - t0)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
