"""The record a layer bench leaves: its results with the provenance needed
to compare two runs (git SHA, kernel backend, core count, NumPy version and
BLAS thread count), printed as one JSON line and written to
``BENCH_<name>.json`` at the repository root."""

import json
import os
import subprocess
from pathlib import Path

import numpy as np

import arcmig
from arcmig import _blas

ROOT = Path(__file__).resolve().parent.parent


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance():
    return {"git_sha": git_sha(), "backend": arcmig.BACKEND, "cpu_count": os.cpu_count(),
            "numpy": np.__version__, "blas_threads": _blas.threads()}


def record(name, results):
    """Print and write the record of bench `name`; returns its path."""
    payload = {"bench": name, **provenance(), **results}
    path = ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps(payload))
    return path
