"""Print SHA-256 prefixes of rtd's seeded outputs, to check that a change
leaves them byte-identical.

One line per acceptance pipeline of ``tests/test_acceptance.py`` (phase,
noise, dropout, mu, stego): the hash of the CSV it writes, built by that
file's own ``_*_pipeline`` functions, so the specs live in one place.  Then
one ``seven`` line: a hash over X, each component's bytes and
``history_csv`` of seven seeded ``make_instance`` solves, in order.  Then
one ``factored`` line, the same hash over one ``make_instance(256, 4, 2, 1)``
solve, whose components have more than ``rtd.linalg.FACTORED_ABOVE``
entries and so are held and thresholded as factors; the seven are all
below it.  BLAS runs at one thread unless the environment sets otherwise,
as in the tests.
Run from anywhere:

    python tools/fingerprint.py
"""

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance  # noqa: E402
from rtd.experiments import make_instance  # noqa: E402
from rtd.solver import Problem, decompose, history_csv  # noqa: E402

PIPELINES = ("phase", "noise", "dropout", "mu", "stego")

# (n, r, N, seed) of the seeded solves behind the "seven" line.
SEVEN = ((12, 1, 2, 0), (40, 2, 2, 5), (48, 3, 2, 9), (30, 2, 3, 1),
         (60, 4, 4, 2), (20, 4, 2, 7), (20, 2, 3, 3))
FACTORED = ((256, 4, 2, 1),)


def prefix(h):
    return h.hexdigest()[:16]


def solves_hash(cases):
    h = hashlib.sha256()
    for n, r, N, seed in cases:
        _, ops, X = make_instance(n, r, N, seed)
        result = decompose(Problem(X, ops))
        h.update(X.tobytes())
        for a in result.components:
            h.update(a.tobytes())
        h.update(history_csv(result).encode())
    return h


def main():
    for name in PIPELINES:
        _, csv = getattr(test_acceptance, f"_{name}_pipeline")()
        print(f"{name:8} {prefix(hashlib.sha256(csv))}")
    print(f"{'seven':8} {prefix(solves_hash(SEVEN))}")
    print(f"{'factored':8} {prefix(solves_hash(FACTORED))}")


if __name__ == "__main__":
    main()
