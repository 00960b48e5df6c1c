"""swinscan: shifted-window transformer pipeline for brain-MRI diagnostics.

Detection (tumor yes/no), 3-class tumor-type classification, threshold
segmentation with size estimation, a nine-measure evaluation suite, and a
JSON-over-HTTP service that renders PDF diagnostic reports.
"""

import ctypes
import os

__version__ = "0.1.0"
# before numpy loads: one BLAS thread unless set, as tensor.py uses every core
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # the most glibc accepts on 64-bit
_TRIM_THRESHOLD = 1 << 30  # above any working set of training or a worker


def _keep_heap() -> None:
    """Keep freed buffers of up to 32 MiB in the process's heap.

    By default glibc serves such buffers with mmap or trims them off the
    heap once freed, and each reuse faults their pages in again: a
    training step's activations and a request's body, JSON and PDF
    buffers.  Both thresholds are set, because setting either one turns
    off glibc's dynamic mmap threshold and leaves the other at its
    default.  Elsewhere this does nothing.  Forked workers inherit it.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_heap()
