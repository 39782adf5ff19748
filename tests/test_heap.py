"""The heap policy set at import: a freed temporary is reused in place."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcmig import _heap

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# in a fresh interpreter, page faults of the second 4 MiB temporary; under
# glibc's default policy the first one is mapped and unmapped, the free
# raises the threshold, and the second is faulted in again on the heap
_PROBE = """
import resource
import numpy as np
import arcmig
from arcmig import _heap

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

a = np.ones(1 << 19)
del a
before = faults()
a = np.ones(1 << 19)
del a
print(_heap.applied, faults() - before)
"""


@pytest.mark.skipif(not _heap.applied, reason="the C library has no glibc mallopt")
def test_freed_temporary_is_reused_without_page_faults():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    applied, faults = out[0], int(out[1])
    assert applied == "True"
    # 4 MiB is 1024 pages; reuse touches none of them
    assert faults < 64, faults
