"""Numerical laboratory for self-similar blowup of damped Keller-Segel aggregation."""

import os

__version__ = "0.1.0"

# BLAS/OpenMP read their pool sizes once, when numpy is first imported; the
# ``ksdlab`` console script imports this package before numpy, so this is the
# last point where KSD_LAB_THREADS can still take effect.  Explicit pool
# variables win.
_threads = os.environ.get("KSD_LAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)
