#!/usr/bin/env python3
"""Benchmark: the preset sweep, end to end.

It runs ``arcmig image --preset P --aperture A --snr 15 --seed 7`` for the
eight catalog presets (G1-G4 x TM/TE) on the full and the limited aperture,
each in a fresh Python process on this checkout's ``src``, and records per
run:

* the process wall seconds;
* the stage seconds from the run's ``manifest.txt``;
* the sha256 of every artifact but ``manifest.txt``, which records
  timings; two checkouts whose digests agree wrote the same bytes.

Before it overwrites ``BENCH_sweep.json`` with the results and their
provenance (see ``_record.py``; they also end the output as one JSON
line), it compares every digest with the committed record and prints how
many are equal and which files differ.

Run:  python benchmarks/bench_sweep.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _record import ROOT, record

from arcmig import imaging

PRESETS = [f"G{i},{pol}" for i in range(1, 5) for pol in ("TM", "TE")]
APERTURES = ("full", "limited")


def run(preset, aperture, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv = [sys.executable, "-m", "arcmig.cli", "image", "--preset", preset,
            "--aperture", aperture, "--snr", "15", "--seed", "7", "--out", str(out)]
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True)
    wall = time.perf_counter() - t0
    meta = imaging.load_metadata(out / "manifest.txt")
    stages = {key[len("timing."):-len("_s")]: round(float(value), 4)
              for key, value in meta.items() if key.startswith("timing.")}
    digests = {path.name: imaging.file_sha256(path)
               for path in sorted(out.iterdir()) if path.name != "manifest.txt"}
    return {"wall_s": round(wall, 4), "stages_s": stages, "sha256": digests}


def all_digests(runs):
    """Every artifact digest of a sweep, keyed by (run label, file name)."""
    return {(label, name): digest
            for label, run in runs.items() for name, digest in run["sha256"].items()}


def main():
    path = ROOT / "BENCH_sweep.json"
    committed = all_digests(json.loads(path.read_text())["runs"]) if path.exists() else {}
    runs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for preset in PRESETS:
            for aperture in APERTURES:
                label = f"{preset} {aperture}"
                runs[label] = run(preset, aperture, Path(scratch) / label.replace(",", "_"))
                stages = ", ".join(f"{k} {v}" for k, v in runs[label]["stages_s"].items())
                print(f"{label}: wall {runs[label]['wall_s']} s; {stages}")
    total = sum(r["wall_s"] for r in runs.values())
    print(f"sweep wall {total:.2f} s over {len(runs)} runs")
    fresh = all_digests(runs)
    equal = sum(fresh.get(key) == digest for key, digest in committed.items())
    print(f"{equal} of {len(committed)} digests equal the committed record")
    for label, name in sorted(key for key in committed.keys() | fresh.keys()
                              if committed.get(key) != fresh.get(key)):
        print(f"differs: {label} {name}")
    record("sweep", {"argv": "image --snr 15 --seed 7", "wall_s": round(total, 4),
                     "runs": runs})


if __name__ == "__main__":
    main()
