"""Thread count of the OpenBLAS that NumPy loaded.

A NumPy wheel ships its OpenBLAS in ``numpy.libs``; the library exports
a getter and a setter for its thread count, under the scipy-openblas
names or the plain ``openblas_*`` ones.  They are reached through
`ctypes`, the way `_heap` reaches glibc's ``mallopt``, and resolved on
first use rather than at ``import arcmig``.  Under another BLAS, or a
NumPy without the bundled library, `functions` returns None and callers
leave the thread count alone.
"""

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (getter, setter) symbol pairs, tried in order
_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()


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


@contextmanager
def one_thread():
    """Hold BLAS to one thread for the body and restore its count on exit;
    without the thread-count functions, change nothing.

    The body runs under a module lock, so two overlapping holders cannot
    restore in the wrong order."""
    found = functions()
    if found is None:
        yield
        return
    get, set_ = found
    with _lock:
        saved = get()
        set_(1)
        try:
            yield
        finally:
            set_(saved)
