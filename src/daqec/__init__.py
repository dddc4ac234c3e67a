"""Distributed approximate quantum error correction workbench."""

import os

# numpy's bundled OpenBLAS starts a pool thread at import that busy-waits for
# about 0.1 s with no BLAS call made, and no daqec product (at most 128 x 256)
# wakes it again. On a 2-core VM (numpy 2.4.6, OpenBLAS 0.3.31) that thread
# took 0.11-0.13 s of CPU, so a correlated-errors run from the command line
# used 0.56 s of CPU instead of 0.43 s, at the same wall time. The variable
# must be set before the submodules below load numpy; a value the user set is
# kept, and if numpy is already loaded this has no effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import allocation, bounds_analytics, mixed_radix_sim, stabilizer_steane, wstate_code  # noqa: E402

__all__ = [
    "__version__",
    "allocation",
    "bounds_analytics",
    "mixed_radix_sim",
    "stabilizer_steane",
    "wstate_code",
]
