"""Numerical verification of slow-down/blow-up surgery on product flows."""

import os

# One BLAS thread unless the user chose otherwise: with two OpenBLAS threads and
# another process on the second core the homogeneous suite ran 5-50x slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import blowup, cones, config, forms, homogeneous, saddle  # noqa: E402, F401
