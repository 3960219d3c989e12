"""Span tracing of rtd from outside the package.

A hook wraps one public function of the program at the module attribute where
its caller looks it up, so the program itself is never edited.  Each call of a
wrapped function records a span (name, start, end, parent) in memory; a
layer's self time is its spans' time minus the time of their child spans.
A hook whose function no longer exists is reported as absent, not as an error.
"""

import contextlib
import importlib
import time
from collections import defaultdict

# (span name, module the caller lives in, attribute path the caller uses).
HOOKS = (
    ("solver", "rtd.solver", "decompose"),
    ("solver", "rtd.stego", "decompose"),
    ("kappa0", "rtd.solver", "default_kappa0"),
    ("svt", "rtd.solver", "svt_with_values"),
    ("pullback", "rtd.solver", "kernels.pullback_residual"),
    ("scatter", "rtd.solver", "kernels.scatter_add"),
    ("scatter", "rtd.solver", "kernels.scatter_add_delta"),
    ("permutation", "rtd.reshuffle", "random_permutation"),
    ("reshuffle", "rtd.experiments", "reshuffle_from_seed"),
    ("reshuffle", "rtd.stego", "reshuffle_from_seed"),
    ("reshuffle", "rtd.stego", "reshuffle_identity"),
    ("make_instance", "rtd.experiments", "make_instance"),
    ("conceal", "rtd.stego", "conceal"),
    ("conceal", "rtd.cli", "conceal"),
    ("reveal", "rtd.stego", "reveal"),
    ("reveal", "rtd.cli", "reveal"),
    ("netpbm.read", "rtd.cli", "read_image"),
    ("netpbm.write", "rtd.cli", "write_image"),
    ("cli", "rtd.cli", "main"),
)

# Per-layer metric -> (span name, what to report).  Every "_s" metric is a
# self time, so the layers of one run add up without counting a second twice.
LAYER_METRICS = {
    "solver.iterations": ("solver", "iterations"),
    "solver.s_per_iter": ("solver", "s_per_iter"),
    "solver.self_s": ("solver", "self_s"),
    "solver.kappa0_s": ("kappa0", "self_s"),
    "linalg.svt_s": ("svt", "self_s"),
    "linalg.svt_calls": ("svt", "calls"),
    "kernels.pullback_s": ("pullback", "self_s"),
    "kernels.scatter_s": ("scatter", "self_s"),
    "rng.permutation_s": ("permutation", "self_s"),
    "reshuffle.build_s": ("reshuffle", "self_s"),
    "experiments.make_instance_s": ("make_instance", "self_s"),
    "stego.reveal_self_s": ("reveal", "self_s"),
    "stego.conceal_s": ("conceal", "self_s"),
    "netpbm.read_s": ("netpbm.read", "self_s"),
    "netpbm.write_s": ("netpbm.write", "self_s"),
    "cli.self_s": ("cli", "self_s"),
}


def _resolve(module_name, path):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory spans plus the hooks that record them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.iterations = 0
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        """Record a span of the benchmark's own around the enclosed block."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if name == "solver":
                self.iterations += int(result.iterations)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=HOOKS):
        """Wrap every hook that resolves; return the ones that do not."""
        absent = []
        for name, module_name, path in hooks:
            found = _resolve(module_name, path)
            if found is None:
                absent.append(f"{module_name}.{path}")
                continue
            owner, attr, fn = found
            setattr(owner, attr, self.wrap(name, fn))
            self._patched.append((owner, attr, fn))
        return absent

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def layers(self):
        """Per span name: call count, total time and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), children in zip(self.spans, child_time):
            layer = out[name]
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - children
        return dict(out)

    def layer_metrics(self):
        """The LAYER_METRICS values; a layer that never ran reads 0."""
        layers = self.layers()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        solver = layers.get("solver", empty)
        values = {}
        for metric, (name, kind) in LAYER_METRICS.items():
            if kind == "iterations":
                values[metric] = self.iterations
            elif kind == "s_per_iter":
                values[metric] = solver["total_s"] / self.iterations if self.iterations else 0.0
            else:
                values[metric] = layers.get(name, empty)[kind]
        return values

