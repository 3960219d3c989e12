"""End-to-end and per-layer benchmark of rtd; see README.md and run.py."""

# BLAS/OpenMP pools are pinned to one thread through these, before NumPy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
