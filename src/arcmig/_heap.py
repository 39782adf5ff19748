"""Heap policy of the process: NumPy temporaries stay on the heap.

The Nystrom build, its Bessel kernel calls, the imaging blocks and the
map validation allocate and free arrays of 0.1-16 MB many times per run.
glibc serves an allocation at or above its mmap threshold with a fresh
mapping and unmaps it at free, so each reuse faults its pages in again.
The threshold starts at 128 KiB and rises only when a larger mapped block
is freed, so the cost of a solve depended on what the process had freed
before it (one 4 MB free early in a run halved the forward build's page
faults).  Fixing both thresholds at import keeps such temporaries on the
heap, where freed memory is reused, whatever ran earlier.
"""

import ctypes

# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# blocks below this come from the heap: the presets' largest temporaries
# are about 1 MiB (a 256-node complex Nystrom matrix) and a 512-node
# build's are 4 MiB; glibc's own dynamic threshold may reach 32 MiB
MMAP_THRESHOLD = 16 << 20
# free memory at the top of the heap is returned to the system above this
TRIM_THRESHOLD = 32 << 20


def keep_temporaries_on_heap():
    """Set glibc's mmap and trim thresholds; True when both were set.

    A C library without glibc's mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


applied = keep_temporaries_on_heap()
