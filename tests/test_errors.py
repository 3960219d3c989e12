import math

import numpy as np
import pytest

from rtd.analysis import (
    certificate_threshold,
    estimate_component_count,
    incoherence_lower_bound,
    recovery_bound_min_n,
)
from rtd.errors import BadIndex, BadRank, ShapeMismatch, StrengthOutOfRange
from rtd.experiments import DropoutSpec, NoiseSweepSpec, PhaseGridSpec, make_instance
from rtd.linalg import random_semi_orthonormal_pair
from rtd.reshuffle import ReshuffleOp
from rtd.rng import gaussians, random_permutation
from rtd.solver import SolverConfig
from rtd.stego import StegoKey

# A count refuses all five; an index, a size or a seed may be 0; a positive
# number may be 2.5.
COUNT = (2.5, -1, 0, math.nan, math.inf)
INDEX = (2.5, -1, math.nan, math.inf)
POSITIVE = (-1, 0, math.nan, math.inf)

_COMPS, _OPS, _ = make_instance(6, 1, 3, 0)  # index 2.5 falls inside range(3)


# (entry point and parameter, call with the value, class raised, bad values,
# a NumPy value that must pass)
CASES = [
    ("SolverConfig.max_iter", lambda v: SolverConfig(max_iter=v), ValueError, COUNT, np.int64(3)),
    ("SolverConfig.tol", lambda v: SolverConfig(tol=v), ValueError, POSITIVE, np.float64(1e-3)),
    ("PhaseGridSpec.fixed", lambda v: PhaseGridSpec(fixed=v), ValueError, COUNT, np.int64(2)),
    ("PhaseGridSpec.trials", lambda v: PhaseGridSpec(trials=v), ValueError, COUNT, np.int32(1)),
    ("PhaseGridSpec.axis", lambda v: PhaseGridSpec(axis=(20, v)), ValueError, COUNT, np.int64(30)),
    ("NoiseSweepSpec.n", lambda v: NoiseSweepSpec(n=v), ValueError, COUNT, np.int64(60)),
    ("NoiseSweepSpec.N", lambda v: NoiseSweepSpec(N=v), ValueError, COUNT, np.uint8(3)),
    ("DropoutSpec.trials", lambda v: DropoutSpec(trials=v), ValueError, COUNT, np.int64(2)),
    ("DropoutSpec.eta", lambda v: DropoutSpec(eta=v), ValueError, POSITIVE, np.float32(0.5)),
    ("recovery_bound_min_n.N", lambda v: recovery_bound_min_n(v, 1), ValueError, COUNT,
     np.int64(2)),
    ("recovery_bound_min_n.r", lambda v: recovery_bound_min_n(1, v), ValueError, COUNT,
     np.int64(2)),
    ("certificate_threshold.N", certificate_threshold, ValueError, COUNT, np.int64(2)),
    ("incoherence_lower_bound.i", lambda v: incoherence_lower_bound(_COMPS[0], _OPS, v, 1, 1),
     BadIndex, INDEX, np.int64(0)),
    ("incoherence_lower_bound.restarts",
     lambda v: incoherence_lower_bound(_COMPS[0], _OPS, 0, restarts=v, iters=1), ValueError,
     COUNT, np.int64(1)),
    ("incoherence_lower_bound.iters",
     lambda v: incoherence_lower_bound(_COMPS[0], _OPS, 0, restarts=1, iters=v), ValueError,
     COUNT, np.int64(1)),
    ("estimate_component_count.eta", lambda v: estimate_component_count(_COMPS, v), ValueError,
     POSITIVE, np.float64(0.5)),
    ("random_permutation.count", lambda v: random_permutation(v, 0), ShapeMismatch, INDEX,
     np.int64(5)),
    ("random_semi_orthonormal_pair.n", lambda v: random_semi_orthonormal_pair(v, 1, 0), BadRank,
     COUNT, np.int64(4)),
    ("random_semi_orthonormal_pair.r", lambda v: random_semi_orthonormal_pair(4, v, 0), BadRank,
     COUNT, np.int64(2)),
    ("random_semi_orthonormal_pair.seed", lambda v: random_semi_orthonormal_pair(4, 2, v),
     BadIndex, INDEX, np.uint64(7)),
    ("random_permutation.seed", lambda v: random_permutation(5, v), BadIndex, INDEX,
     np.int64(3)),
    ("gaussians.seed", lambda v: gaussians(4, v), BadIndex, INDEX, np.uint64(7)),
    ("gaussians.count", lambda v: gaussians(v, 0), ShapeMismatch, INDEX, np.int64(5)),
    ("make_instance.n", lambda v: make_instance(v, 1, 2, 0), BadRank, COUNT, np.int64(4)),
    ("make_instance.r", lambda v: make_instance(4, v, 2, 0), BadRank, COUNT, np.int64(1)),
    ("make_instance.N", lambda v: make_instance(4, 1, v, 0), ValueError, COUNT, np.int64(2)),
    ("make_instance.seed", lambda v: make_instance(4, 1, 2, v), BadIndex, INDEX, np.uint64(7)),
    ("ReshuffleOp.m", lambda v: ReshuffleOp(v, 1, (1,)), ShapeMismatch, COUNT, np.int64(1)),
    ("StegoKey.strength", lambda v: StegoKey(0, (4, 4), (4, 4), v), StrengthOutOfRange, POSITIVE,
     np.float64(0.05)),
]


@pytest.mark.parametrize("call, error, bad, good", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_entry_points_refuse_bad_counts_and_positive_numbers(call, error, bad, good):
    for value in bad:
        with pytest.raises(error):
            call(value)
        with pytest.raises(error):
            call(np.float64(value))
    call(good)
