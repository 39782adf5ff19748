"""The BLAS policy set at import: artifact bytes that do not depend on the
core count."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcmig import _blas

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _forward_digests(preset, blas_threads, out):
    """sha256 of every MSR file `arcmig forward` writes in a fresh
    interpreter whose OpenBLAS starts at the given thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "arcmig.cli", "forward", "--preset", preset,
                    "--snr", "15", "--seed", "7", "--out", str(out)],
                   env=env, capture_output=True, check=True)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("msr_*.msr"))}


# G3,TM goes through the threaded LU solve; G2,TE also through the Neumann
# build's inverse and GEMMs
@pytest.mark.skipif(_blas.functions() is None, reason="no thread-count control of NumPy's BLAS")
@pytest.mark.parametrize("preset", ["G3,TM", "G2,TE"])
def test_msr_bytes_do_not_depend_on_blas_threads(tmp_path, preset):
    one = _forward_digests(preset, 1, tmp_path / "one")
    two = _forward_digests(preset, 2, tmp_path / "two")
    assert one and one == two
