"""BLAS policy of the process: NumPy's OpenBLAS runs on one thread.

The pipeline's BLAS work is small dense solves and GEMMs, which a second
OpenBLAS thread does not speed up; it spins on a core instead, and the
threaded LU and GEMMs round differently at each thread count.  Setting one
thread at import, as `_heap` fixes the heap policy, gives the same
artifact bytes on any core count for one NumPy/OpenBLAS build and leaves
the cores to the TE search's walkers.  A caller who wants a threaded BLAS
afterwards sets it back through `functions`.

A NumPy wheel ships its OpenBLAS in ``numpy.libs``; the library exports
a getter and a setter for its thread count, under the scipy-openblas
names or the plain ``openblas_*`` ones, reached through `ctypes`.  Under
another BLAS, or a NumPy without the bundled library, `functions` returns
None, the thread count is left alone and `applied` is false.
"""

import ctypes
import functools
from pathlib import Path

import numpy as np

# (getter, setter) symbol pairs, tried in order
_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def functions():
    """The (get, set) thread-count functions of NumPy's OpenBLAS, or None."""
    package = Path(np.__file__).resolve().parent
    for libdir in (package.parent / "numpy.libs", package / ".libs"):
        for path in sorted(libdir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get_name, set_name in _NAMES:
                get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    set_.argtypes, set_.restype = (ctypes.c_int,), None
                    return get, set_
    return None


def threads():
    """The BLAS thread count, or None when it cannot be read."""
    found = functions()
    return None if found is None else int(found[0]())


def use_one_thread():
    """Set BLAS to one thread; True when it was set.

    Without the thread-count functions, nothing is changed."""
    found = functions()
    if found is None:
        return False
    get, set_ = found
    set_(1)
    return get() == 1


applied = use_one_thread()
