"""Convex tensor decomposition via reshuffling operators.

The package namespace holds only the entry points of the library quick
start: build operators and an instance, observe it, decompose it, score the
split, and hide or reveal an image.  Everything else stays in the module
that defines it and is reached as ``rtd.<module>.<name>``: ``rtd.reshuffle``,
``rtd.solver``, ``rtd.linalg``, ``rtd.analysis``, ``rtd.experiments``,
``rtd.stego``, ``rtd.netpbm``, ``rtd.formats``, ``rtd.rng`` and
``rtd.errors``.
"""

__version__ = "0.1.0"

from .analysis import tsir
from .errors import RtdError
from .experiments import make_instance
from .linalg import random_semi_orthonormal_pair
from .reshuffle import ReshuffleOp, observe, reshuffle_from_seed
from .solver import Problem, SolverConfig, decompose
from .stego import conceal, reveal

__all__ = [
    "Problem", "ReshuffleOp", "RtdError", "SolverConfig", "conceal", "decompose",
    "make_instance", "observe", "random_semi_orthonormal_pair", "reshuffle_from_seed",
    "reveal", "tsir",
]
