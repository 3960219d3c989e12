"""Runs one workload and measures it, untraced or traced.

Untraced, nothing in the program is patched: set-up is timed several times
and the operations once, giving the end-to-end metrics.  Traced, the
operations run once untraced to warm up, once with the hooks of ``tracing``
installed and once more untraced; the per-layer metrics come from the traced
pass and ``trace.overhead_s`` is its operation time minus that of the last
untraced pass.
"""

import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from . import THREAD_VARS, tracing
from .workloads import WORKLOADS

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "peak_rss_mib": "MiB",
    "tsir_db": "dB",
}

LAYER_UNITS = {
    metric: "count" if metric.endswith(("iterations", "_calls")) else "s"
    for metric in tracing.LAYER_METRICS
}
LAYER_UNITS["trace.overhead_s"] = "s"


def rounds_for(workload_cls, seconds):
    """Whole rounds that take about ``seconds`` on the reference box.

    The amount of work is fixed by the run length, not by the clock, so a
    faster program shows as a lower ``wall_s``.
    """
    return max(1, round(seconds / workload_cls.round_s))


def import_seconds(src_dir, repeats):
    """Wall time of ``import rtd`` in fresh interpreters, from spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rtd"], env=env, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def _attempt(workload, i, span):
    """(seconds, ok, quality, message) of operation i."""
    with span("op"):
        t0 = time.perf_counter()
        try:
            out = workload.run(i)
        except Exception:  # an operation that raises has failed
            return time.perf_counter() - t0, False, None, traceback.format_exc()
        seconds = time.perf_counter() - t0
    try:
        return (seconds, *workload.check(i, out))
    except Exception:  # so has one whose output the check cannot read
        return seconds, False, None, traceback.format_exc()


def run_operations(workload, span=None):
    """Run and check every operation; return (seconds each, qualities, failed)."""
    span = span or (lambda name: contextlib.nullcontext())
    times, qualities, failed = [], [], 0
    for i in range(len(workload)):
        seconds, ok, quality, message = _attempt(workload, i, span)
        times.append(seconds)
        if not ok:
            failed += 1
            print(f"{workload.name} operation {i} failed: {message}", file=sys.stderr)
        elif quality is not None:
            qualities.append(quality)
    return times, qualities, failed


def _result(attempted, failed, values, units):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def build(name, seed, seconds, workdir):
    """The named workload with its inputs made from ``seed``."""
    cls = WORKLOADS[name]
    return cls(seed, rounds_for(cls, seconds), workdir)


def measure(workload, src_dir):
    """End-to-end metrics of one untraced run."""
    imports = import_seconds(src_dir, SETUP_REPEATS)
    prepares = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare()
        prepares.append(time.perf_counter() - t0)
    workload.validate()
    times, qualities, failed = run_operations(workload)
    values = {
        "setup_s": statistics.median(imports) + statistics.median(prepares),
        "wall_s": sum(times),
        "op_s.p50": statistics.median(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tsir_db": min(qualities, default=0.0),
    }
    return _result(len(times), failed, values, END_TO_END_UNITS)


def measure_traced(workload, trace_path):
    """Per-layer metrics of one traced run; spans are written to trace_path.

    The operations run three times: untraced to warm up, traced, and
    untraced again to compare with.
    """
    workload.prepare()
    workload.validate()
    warm_times, _, warm_failed = run_operations(workload)

    tracer = tracing.Tracer()
    absent = tracer.install()
    try:
        with tracer.span("setup"):
            workload.prepare()
        traced_times, _, traced_failed = run_operations(workload, tracer.span)
    finally:
        tracer.uninstall()
    plain_times, _, plain_failed = run_operations(workload)
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = sum(traced_times) - sum(plain_times)
    write_trace(trace_path, workload.name, tracer, absent, values)
    for hook in absent:
        print(f"absent hook: {hook}")
    attempted = len(warm_times) + len(traced_times) + len(plain_times)
    return _result(attempted, warm_failed + traced_failed + plain_failed, values, LAYER_UNITS)


def write_trace(path, name, tracer, absent, values):
    """Spans as [name, start, end, parent index], seconds from the first."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "workload": name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "absent_hooks": absent,
        "layers": tracer.layers(),
        "metrics": values,
        "spans": [
            [span_name, round(start - t0, 7), round(end - t0, 7), parent]
            for span_name, start, end, parent in tracer.spans
        ],
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)

