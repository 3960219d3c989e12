"""The rtd benchmark command.

    python3 perfbench/run.py --workload phase-grid --seed 1 --seconds 30 --trace 0

runs one workload in this process: it prints each metric by name and unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.  With ``--workload all``
(the default) every workload runs in turn, each in a fresh process.

The program is imported from ``src/`` of the checkout that holds this file;
without it the command exits 2.  BLAS and OpenMP are pinned to one thread
before NumPy is imported.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("phase-grid", "stego-reveal-256", "stego-reveal-cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        code = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]).returncode
        worst = worst or code
    return worst


def run_one(args):
    sys.path.insert(0, str(ROOT))
    from perfbench import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rtd" / "__init__.py").is_file():
        print(f"perfbench: no rtd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rtd

    if Path(rtd.__file__).resolve().parent != (SRC / "rtd").resolve():
        print(f"perfbench: imported rtd from {rtd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness

    threads = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, {threads}")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = harness.build(args.workload, args.seed, args.seconds, str(workdir))
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            result = harness.measure_traced(workload, str(trace_path))
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            result = harness.measure(workload, str(SRC))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
