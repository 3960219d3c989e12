"""Pin BLAS and OpenMP to one thread for the whole test session.

Root conftest files load before any test module, so this runs before NumPy
is imported.  The recorded acceptance CSV hashes are taken at one thread,
and on a small machine one thread is also the faster setting for the many
small solves of the suite.  A value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
