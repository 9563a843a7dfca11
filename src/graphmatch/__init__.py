"""Graph similarity learning with cross-level node-graph matching, plus an
exact graph edit distance oracle for ground-truth generation."""

import ctypes
import os

__version__ = "0.1.0"

from .graphs import Graph, LabeledPair, make_graph, normalized_adjacency
from .ged import EditCostScheme, GedResult, ged_exact, normalized_similarity
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .training import TrainConfig, train

# glibc's own malloc settings; when any is given, the environment decides
GLIBC_MALLOC_VARS = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_")


def _keep_freed_heap(environ=os.environ):
    """On glibc, keep freed memory in the heap instead of returning it to the
    kernel, so each train step reuses the last step's pages rather than
    faulting them in again. Process-wide; returns whether it took effect."""
    try:
        glibc = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        glibc = False
    tunables = environ.get("GLIBC_TUNABLES", "").split(":")
    if (not glibc or any(v in environ for v in GLIBC_MALLOC_VARS)
            or any(t.startswith("glibc.malloc.") for t in tunables)):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_TRIM_THRESHOLD (-1) 1 GiB; M_MMAP_THRESHOLD (-3) 32 MiB, glibc's 64-bit maximum
    return all(mallopt(param, value) == 1 for param, value in ((-1, 1 << 30), (-3, 32 << 20)))


_keep_freed_heap()
