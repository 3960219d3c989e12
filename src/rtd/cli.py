"""Command line driver.

Subcommands cover decomposition (decompose), the synthetic experiments
(phase, noise, dropout), steganography (hide, reveal) and the recovery
diagnostics (bound, incoherence).  Every run is seed-driven: hide,
incoherence and the experiments take --seed, and operator files and stego
keys carry their own seeds.  File outputs are deterministic for fixed
arguments.  Each file flag checks its path as it is parsed, before any
input is read or any solve runs: an empty path, a file output that names a
directory, an output no writable directory can hold, two output flags that
name one file, or an output or --manifest that names an input exits 2.  A
manifest that would overwrite an output of its run exits 2 after the
outputs are written, as does a size too large to allocate.  Exit codes:
0 success, 1 usage, 2 data error, 3 solver divergence.
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
from .formats import read_ops, read_tensor, write_tensor, write_text
from .netpbm import GrayImage, read_image, write_image
from .solver import Problem, SolverConfig, decompose, history_csv
from .stego import MODES as STEGO_MODES
from .stego import conceal, metrics_csv, read_key, reveal, write_key

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

# The most values a start:stop[:step] range may hold, checked before the range
# is built.  Each value costs at least one solve per trial, so no study that
# can finish comes near it, and a tuple of 10,000 ints stays under 1 MB.
MAX_VALUES = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _listed(values):
    """A flag's paths: its value, or each of several."""
    return values if isinstance(values, list) else [values]


class _Path(argparse.Action):
    """An input file flag.  Every file flag is checked as it is parsed, so
    before any input is read or any solve runs.  Two file flags of a command
    may name one file (by ``os.path.realpath``) only when both are inputs,
    which the run only reads, or when one is --manifest and the other an
    output, a pair ``_write_manifest`` refuses once the outputs are written.
    Otherwise the flag parsed second raises OSError naming the path and both
    flags.  A repeated flag keeps its last value; a flag of several paths
    checks each."""

    def __call__(self, parser, namespace, values, option_string=None):
        for other in parser._actions:
            taken = getattr(namespace, other.dest, None)
            if (isinstance(other, _Path) and other.dest != self.dest and taken
                    and {type(self), type(other)} not in ({_Path}, {_Output, _Manifest})):
                for path in _listed(values):
                    if os.path.realpath(path) in map(os.path.realpath, _listed(taken)):
                        raise OSError(f"{option_string} {path}: same file as {other.option_strings[0]}")
        setattr(namespace, self.dest, values)


class _Manifest(_Path):
    """--manifest, which may not name an input of its run."""


class _Output(_Path):
    """An output flag.  No output path may be empty.  A file output must not
    be an existing directory and must sit in a writable directory.
    --out-dir, which the run makes only once it succeeds, must have a
    writable directory as its nearest existing ancestor.  A refused path
    raises OSError naming the flag and the path.  No output may name the
    file of another output or of an input (see ``_Path``)."""

    def __call__(self, parser, namespace, path, option_string=None):
        if not path or (os.path.isdir(path) and self.dest != "out_dir"):
            raise OSError(f"{option_string} {path!r}: is {'a directory' if path else 'empty'}")
        directory = os.path.dirname(path) or "."
        if self.dest == "out_dir":
            directory = path
            while not os.path.exists(directory):
                directory = os.path.dirname(directory) or "."
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise OSError(f"{option_string} {path}: {directory} is not a writable directory")
        super().__call__(parser, namespace, path, option_string)


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
        if (stop - start) // step >= MAX_VALUES:
            raise ValueError(f"bad range {text!r}: more than {MAX_VALUES} values")
        return tuple(range(start, stop + 1, step))
    return tuple(int(v) for v in text.split(","))


def _warn_unconverged(converged, iterations, residual):
    """A run that hit max_iter still writes its outputs and exits 0."""
    if not converged:
        print(
            f"rtd: warning: stopped at max_iter after {iterations} iterations, "
            f"residual {residual:.3e} above tol",
            file=sys.stderr,
        )


# Flags named other than the library parameter they set.
_RENAMES = {"snrs_db": "snrs", "master_seed": "seed"}


def _defaults(source):
    """{name: default} of a dataclass's fields or a function's keyword parameters."""
    return {
        name: p.default
        for name, p in inspect.signature(source).parameters.items()
        if p.default is not p.empty
    }


def _add_defaults(sub, source, **choices):
    """One flag per parameter of source, defaulting to the library's value.

    A tuple default is given as parse_values text, parsed by _flag_values so
    that a bad list is a data error (exit 2), not a usage error.
    """
    for name, default in _defaults(source).items():
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        sub.add_argument(
            "--" + _RENAMES.get(name, name).replace("_", "-"),
            type=type(default), default=default, choices=choices.get(name),
        )


def _flag_values(source, args):
    """source's keyword arguments, read back from the flags _add_defaults made."""
    values = {}
    for name, default in _defaults(source).items():
        value = getattr(args, _RENAMES.get(name, name))
        values[name] = parse_values(value) if isinstance(default, tuple) else value
    return values


def cmd_decompose(args):
    # Problem checks every operator's shape before any permutation is built.
    problem = Problem(read_tensor(args.tensor), read_ops(args.ops))
    result = decompose(problem, SolverConfig(**_flag_values(SolverConfig, args)))
    os.makedirs(args.out_dir, exist_ok=True)
    artifacts = []
    for i, comp in enumerate(result.components):
        path = os.path.join(args.out_dir, f"component_{i}.rtd")
        write_tensor(comp, path)
        artifacts.append(path)
    history_path = os.path.join(args.out_dir, "history.csv")
    write_text(history_path, history_csv(result))
    artifacts.append(history_path)
    print(
        f"decompose: {result.iterations} iterations, converged={result.converged}, "
        f"residual={result.residual_history[-1]:.3e}",
        file=sys.stderr,
    )
    _warn_unconverged(result.converged, result.iterations, result.residual_history[-1])
    return artifacts


def cmd_phase(args):
    spec = PhaseGridSpec(**_flag_values(PhaseGridSpec, args))
    grid = run_phase_grid(spec, threads=args.threads)
    write_text(args.out_csv, phase_csv(grid))
    artifacts = [args.out_csv]
    if args.out_pgm:
        img = render_heatmap(grid)
        write_image(GrayImage(img.astype(float) / 255.0), args.out_pgm, maxval=255)
        artifacts.append(args.out_pgm)
    return artifacts


def cmd_sweep(args):
    # Built per call, so the study is looked up when the command runs.
    spec_type, run, to_csv = {
        "noise": (NoiseSweepSpec, run_noise_sweep, noise_csv),
        "dropout": (DropoutSpec, run_dropout_experiment, dropout_csv),
    }[args.subcommand]
    spec = spec_type(**_flag_values(spec_type, args))
    rows = run(spec, threads=args.threads)
    write_text(args.out_csv, to_csv(spec, rows))
    return [args.out_csv]


def cmd_hide(args):
    cover = read_image(args.cover)
    secret = read_image(args.secret)
    container, key = conceal(cover, secret, **_flag_values(conceal, args))
    # An exact (float) container is written at 16 bits.
    write_image(container, args.out, maxval=container.maxval or 65535)
    write_key(key, args.key)
    return [args.out, args.key]


def cmd_reveal(args):
    key = read_key(args.key)
    container = read_image(args.container)
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
    sys.stdout.write(metrics_csv(metrics))
    return artifacts


def cmd_bound(args):
    print(recovery_bound_min_n(args.N, args.r))
    return []


def cmd_incoherence(args):
    components = [read_tensor(p) for p in args.components]
    ops = read_ops(args.ops)
    if len(components) != len(ops):
        raise DimMismatch(
            f"{len(components)} component files but {len(ops)} operators"
        )
    for op, A in zip(ops, components):
        if (op.m, op.n) != A.shape:
            raise ShapeMismatch(
                f"operator takes {op.m}x{op.n} matrices, component has shape {A.shape}"
            )
    ascent = _flag_values(incoherence_lower_bound, args)
    mus = []
    for i, A in enumerate(components):
        mus.append(incoherence_lower_bound(A, ops, i, **ascent).value)
    sys.stdout.write(certificate_csv(mus))
    return []


def build_parser():
    # No prefix abbreviations: a prefix would change meaning when a flag is added.
    parser = _Parser(prog="rtd", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"rtd {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        sub.set_defaults(func=func)
        sub.add_argument("--manifest", default=None, action=_Manifest)
        return sub

    sub = add("decompose", cmd_decompose, "split a stored tensor into components")
    sub.add_argument("--tensor", required=True, action=_Path)
    sub.add_argument("--ops", required=True, action=_Path)
    sub.add_argument("--out-dir", required=True, action=_Output)
    _add_defaults(sub, SolverConfig)

    def experiment(name, func, help_text, spec):
        sub = add(name, func, help_text)
        _add_defaults(sub, spec, mode=MODES)
        sub.add_argument("--threads", type=int, default=os.cpu_count())
        sub.add_argument("--out-csv", required=True, action=_Output)
        return sub

    sub = experiment("phase", cmd_phase, "tSIR grid over rank and size or count", PhaseGridSpec)
    sub.add_argument("--out-pgm", default=None, action=_Output)
    experiment("noise", cmd_sweep, "tSIR under additive Gaussian noise", NoiseSweepSpec)
    experiment("dropout", cmd_sweep, "component-count estimation accuracy", DropoutSpec)

    sub = add("hide", cmd_hide, "embed a color secret in a grayscale cover")
    sub.add_argument("--cover", required=True, action=_Path)
    sub.add_argument("--secret", required=True, action=_Path)
    sub.add_argument("--out", required=True, action=_Output)
    sub.add_argument("--key", required=True, action=_Output)
    _add_defaults(sub, conceal, mode=STEGO_MODES)

    sub = add("reveal", cmd_reveal, "recover the secret from a container")
    sub.add_argument("--container", required=True, action=_Path)
    sub.add_argument("--key", required=True, action=_Path)
    sub.add_argument("--out", required=True, action=_Output)
    sub.add_argument("--out-cover", default=None, action=_Output)
    sub.add_argument("--ref-secret", default=None, action=_Path)
    sub.add_argument("--ref-cover", default=None, action=_Path)

    sub = add("bound", cmd_bound, "minimum size for guaranteed recovery")
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)

    sub = add("incoherence", cmd_incoherence, "certificate report for stored components")
    sub.add_argument("--components", nargs="+", required=True, action=_Path)
    sub.add_argument("--ops", required=True, action=_Path)
    _add_defaults(sub, incoherence_lower_bound)

    return parser


def _write_manifest(args, artifacts, wall_clock):
    path = args.manifest
    if path is None:
        if not artifacts:
            return
        path = artifacts[0] + ".manifest.json"
    if os.path.realpath(path) in map(os.path.realpath, artifacts):
        raise OSError(f"manifest {path}: same file as an output of this run")
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
    write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        t0 = time.time()
        artifacts = args.func(args)
        _write_manifest(args, artifacts, time.time() - t0)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DivergenceDetected as exc:
        print(f"rtd: solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (RtdError, OSError, ValueError, MemoryError) as exc:
        print(f"rtd: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
