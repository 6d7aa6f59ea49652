"""Reference-guided cross-modal retrieval at desk scale.

Importing the package sets the loaded OpenBLAS to one thread for the
whole process: refalign's only parallelism is its own CPU-sized pools.
"""

__version__ = "0.1.0"

import ctypes
import functools
from contextlib import suppress

from . import tensor
from .tensor import Tensor, parameter, backward

__all__ = ["tensor", "Tensor", "parameter", "backward", "__version__"]


@functools.cache
def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count; None if there is none."""
    with suppress(OSError, StopIteration):
        with open("/proc/self/maps") as f:
            lib = ctypes.CDLL(next(line.split()[-1] for line in f if "openblas" in line))
        for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                     "openblas_%s_num_threads"):
            with suppress(AttributeError):
                return getattr(lib, name % "get"), getattr(lib, name % "set")
    return None


# numpy, imported by tensor, has loaded its BLAS by now
if _openblas_threads() is not None:
    _openblas_threads()[1](1)
