"""The heap policy set at import: a freed temporary is reused in place, and
the imaging engine's per-block temporaries with it."""

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


# in a fresh interpreter, page faults of a second TE-search map over 15
# row blocks; the engine allocates each block's temporaries (0.1-1 MB
# here) per call, so under glibc's default policy the blocks fault them in
# again, ~20 k faults against a handful
_IMAGING_PROBE = """
import resource
import numpy as np
import arcmig
from arcmig import _heap, imaging, msr
from arcmig.forward import BoundaryCondition

rng = np.random.default_rng(5)
dirs = msr.DirectionSet.full_view(36)
subs = []
for k in (9.0, 11.5):
    entries = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    matrix = msr.MsrMatrix(k=k, entries=entries, dirs=dirs, bc=BoundaryCondition.NEUMANN)
    subs.append(msr.svd_threshold(matrix, 0.01))
grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.03)
assert grid.nx * grid.ny >= 10 * imaging._BLOCK
args = (subs, grid, imaging.SteeringMode("te-search", 24), imaging.WeightScheme("unit"))
imaging.image_subspace(*args)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
imaging.image_subspace(*args)
print(_heap.applied, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _fresh_run(probe):
    """The applied flag and the fault count a probe prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    return out[0], int(out[1])


@pytest.mark.skipif(not _heap.applied, reason="the C library has no glibc mallopt")
def test_freed_temporary_is_reused_without_page_faults():
    applied, faults = _fresh_run(_PROBE)
    assert applied == "True"
    # 4 MiB is 1024 pages; reuse touches none of them
    assert faults < 64, faults


@pytest.mark.skipif(not _heap.applied, reason="the C library has no glibc mallopt")
def test_second_te_search_map_takes_few_page_faults():
    applied, faults = _fresh_run(_IMAGING_PROBE)
    assert applied == "True"
    assert faults < 1000, faults
