"""Seeded fuzzing of every file the command line reads, and of the checked
constructors.

Valid 8x8 images, a stego key, a tensor and an operator file are mutated by
byte flips, truncations, and number fields set to -1, 0, 2**64, nan or a
huge extent; some cases set a numeric flag to one of those values instead.
Each case runs through ``rtd.cli.main`` in-process: the exit must be a
documented code (0-3) with no uncaught exception, and a run that fails
leaves no output file.  The specs, ``StegoKey``,
``ReshuffleOp`` and ``SolverConfig`` must refuse every bad field value at
construction with an error the CLI maps to exit 2.  The seed and the case
counts are fixed, so every run draws the same cases; ``tracemalloc`` bounds
the memory they take.
"""

import math
import random
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from rtd.cli import main
from rtd.errors import RtdError
from rtd.experiments import DropoutSpec, NoiseSweepSpec, PhaseGridSpec
from rtd.formats import write_ops, write_tensor
from rtd.netpbm import GrayImage, RgbImage, write_image
from rtd.reshuffle import ReshuffleOp
from rtd.solver import SolverConfig
from rtd.stego import StegoKey

from conftest import low_rank_image

SEED = 2018
CLI_CASES = 100
CONSTRUCTOR_CASES = 300
# The most bytes Python and NumPy may hold at once over the CLI cases, which
# peak near 1 MiB on these 8x8 inputs.
PEAK_BYTES = 16 << 20

NUMBERS = (b"-1", b"0", str(2**64).encode(), b"nan", b"4294967296", b"99999999999999999999")
# The numeric flags a case may set to one of NUMBERS in place of mutating a
# file.  --max-iter sets the length of a solve and stays at 50.
FLAGS = {"hide": ("--strength", "--seed"), "decompose": ("--tol",)}
# A number field of a header or a text file: an integer, a decimal or nan.
_FIELD = re.compile(rb"-?\d+(?:\.\d+)?(?:e-?\d+)?|nan")


def _mutate(rng, data, header):
    """``data`` with one byte flipped, cut short, or one number field of its
    first ``header`` bytes replaced by one of NUMBERS."""
    kind = rng.choice(("flip", "truncate", "number"))
    if kind == "flip":
        at = rng.randrange(header if rng.random() < 0.5 else len(data))
        return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    field = rng.choice(list(_FIELD.finditer(data[:header])))
    return data[:field.start()] + rng.choice(NUMBERS) + data[field.end():]


@pytest.fixture
def inputs(tmp_path):
    """{name: (path, header bytes)} of valid inputs, the container and key
    made by a hide of the cover and secret."""
    cover, secret = tmp_path / "cover.pgm", tmp_path / "secret.ppm"
    write_image(GrayImage(low_rank_image(8, 8, 2, 50)), cover, maxval=65535)
    channels = np.stack([low_rank_image(8, 8, 1, 60 + c) for c in range(3)], axis=-1)
    write_image(RgbImage(channels), secret, maxval=255)
    container, key = tmp_path / "container.pgm", tmp_path / "stego.key"
    assert main(["hide", "--cover", str(cover), "--secret", str(secret),
                 "--out", str(container), "--key", str(key), "--manifest", str(tmp_path / "m")]) == 0
    ops = [ReshuffleOp(4, 4, (4, 4), None), ReshuffleOp(4, 4, (4, 4), 7)]
    X = ops[0].apply(low_rank_image(4, 4, 1, 70)) + ops[1].apply(low_rank_image(4, 4, 1, 71))
    tensor, ops_path = tmp_path / "x.rtd", tmp_path / "ops.txt"
    write_tensor(X, tensor)
    write_ops(ops, ops_path)
    files = {"cover": cover, "secret": secret, "container": container, "key": key,
             "tensor": tensor, "ops": ops_path}
    # Each binary file's header is its bytes before the fixed-size payload.
    payload = {"cover": 8 * 8 * 2, "secret": 8 * 8 * 3, "container": 8 * 8 * 2,
               "tensor": 16 * 8, "key": 0, "ops": 0}
    return {name: (path, path.stat().st_size - payload[name]) for name, path in files.items()}


def _argv(name, mutated, inputs, out):
    """The command that reads the mutated file in place of input ``name``,
    with its outputs in the directory ``out``."""
    path = {k: str(p) for k, (p, _) in inputs.items()} | {name: str(mutated)}
    if name in ("cover", "secret"):
        return ["hide", "--cover", path["cover"], "--secret", path["secret"],
                "--out", str(out / "c.pgm"), "--key", str(out / "k")]
    if name in ("container", "key"):
        return ["reveal", "--container", path["container"], "--key", path["key"],
                "--out", str(out / "s.ppm")]
    return ["decompose", "--tensor", path["tensor"], "--ops", path["ops"],
            "--out-dir", str(out / "d"), "--max-iter", "50"]


def test_mutated_input_files_exit_with_a_documented_code(inputs, tmp_path, capsys):
    rng = random.Random(SEED)
    out, mutated = tmp_path / "out", tmp_path / "mutated"
    out.mkdir()
    codes = []
    tracemalloc.start()
    try:
        for case in range(CLI_CASES):
            name = rng.choice(sorted(inputs))
            path, header = inputs[name]
            data = path.read_bytes()
            argv = _argv(name, mutated, inputs, out)
            if argv[0] in FLAGS and rng.random() < 0.25:
                argv += [rng.choice(FLAGS[argv[0]]), rng.choice(NUMBERS).decode()]
            else:
                data = _mutate(rng, data, header)
            mutated.write_bytes(data)
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"case {case}: {argv} with {data[:40]!r} raised {exc!r}")
            capsys.readouterr()
            assert code in (0, 1, 2, 3), (case, argv, data[:40])
            assert code == 0 or not any(out.iterdir()), (case, argv, data[:40], code)
            shutil.rmtree(out)
            out.mkdir()
            codes.append(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES
    # The cases reach both sides: refused files and files still valid.
    assert codes.count(2) > CLI_CASES // 2 and 0 in codes


COUNTS = (-1, 0, 1.5, math.nan, math.inf, "3", None)
SEEDS = (-1, 2**64, 1.5, math.nan, "3")
POSITIVES = (0, -1.0, math.nan, math.inf, -math.inf, "0.1", None)
INTS = ((), (0,), (-1,), (1.5,), (math.nan,), ("1",), (None,))
NOISE = dict(n=COUNTS, N=COUNTS, ranks=INTS + ((101,),), trials=COUNTS, seed=SEEDS + (None,),
             snrs_db=((), (math.nan,), (math.inf,), ("30",), (None,)))
# Per constructor: its valid keyword arguments, and the bad values of each field.
BAD = {
    PhaseGridSpec: ({}, dict(mode=("bogus", "", None), fixed=COUNTS, ranks=INTS, axis=INTS,
                             trials=COUNTS, seed=SEEDS + (None,))),
    NoiseSweepSpec: ({}, NOISE),
    DropoutSpec: ({}, NOISE | {"eta": POSITIVES}),
    SolverConfig: ({}, dict(max_iter=COUNTS, tol=POSITIVES)),
    StegoKey: (dict(master_seed=0, cover_dims=(8, 8), secret_dims=(8, 8), strength=0.05),
               dict(master_seed=SEEDS + (None,), strength=POSITIVES, mode=("bogus", None),
                    cover_dims=INTS + ((8,), (8, 8, 8), (0, 8), (8, 8.0)),
                    secret_dims=INTS + ((8, 9), (-8, -8)))),
    ReshuffleOp: (dict(m=4, n=4, dst_shape=(16,), seed=1),
                  dict(m=COUNTS, n=COUNTS, seed=SEEDS,
                       dst_shape=INTS + ((15,), (16, 0), (1,) * 64 + (16,)))),
}


def test_constructors_refuse_bad_values():
    rng = random.Random(SEED)
    for _ in range(CONSTRUCTOR_CASES):
        cls = rng.choice(list(BAD))
        valid, fields = BAD[cls]
        field = rng.choice(sorted(fields))
        value = rng.choice(fields[field])
        with pytest.raises((RtdError, ValueError)):
            cls(**valid | {field: value})
            pytest.fail(f"{cls.__name__} took {field}={value!r}")
