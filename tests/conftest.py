"""Tier-1 runs numpy's BLAS on one thread, as ``tools/yardstick.py`` and
the benchmark do: OpenBLAS's products differ in their last bits between
one and two threads, so an unpinned suite would check other trajectories
than the tools, and its numbers would depend on the core count.  pytest
imports this file before any test module loads numpy, so the variables
take effect."""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for var in BLAS_THREAD_VARS:
    os.environ[var] = "1"
