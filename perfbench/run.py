#!/usr/bin/env python3
"""arcmig pipeline benchmark.

    python3 perfbench/run.py --workload tm_image --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each timed pass runs its steps in fresh
interpreters (`perfbench/step.py`), as every `arcmig` invocation does, so
no cache survives between passes.  Passes repeat while one more of the mean
pass length still fits in ``--seconds`` (at least one pass runs).
Afterwards the outputs of every pass are checked against computations made
apart from the program (`perfbench/checks.py`).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds a traced
pass after each untraced one and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
provenance and the per-pass figures.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_ROUNDS = 7
STEP_TIMEOUT_S = 150
IMAGE_SNR_DB = 15.0
REFINE_SNR_DB = 40.0
REFINE_SEEDS_PER_PASS = 3

# (preset, validate_map regime) per image workload
IMAGE_WORKLOADS = {
    "tm_image": [("G3,TM", "TM_BAND"), ("G4,TM", "TM_BAND")],
    "te_image": [("G2,TE", None)],
}
WORKLOADS = ("tm_image", "te_image", "refine")

def _derived_seeds(seed, count):
    """Program seeds drawn from the benchmark seed (never 0)."""
    import numpy as np

    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=count)]


def workload_steps(name, seed):
    """The generated inputs of one pass: a list of step specs."""
    if name == "refine":
        return [{"kind": "refine", "name": "refine", "snr": REFINE_SNR_DB,
                 "noise_seeds": _derived_seeds(seed, REFINE_SEEDS_PER_PASS)}]
    presets = IMAGE_WORKLOADS[name]
    return [
        {"kind": "image", "name": preset.replace(",", "_"), "preset": preset,
         "snr": IMAGE_SNR_DB, "seed": s, "validate": regime}
        for (preset, regime), s in zip(presets, _derived_seeds(seed, len(presets)))
    ]


class Runner:
    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.failures = []          # failed step launches

    def step(self, spec, out, setup_only=False, trace=False):
        """Run one step in a fresh interpreter; None if it did not finish."""
        out.mkdir(parents=True, exist_ok=True)
        result_path = out / ("setup.json" if setup_only else "result.json")
        log_path = out / ("setup.log" if setup_only else "step.log")
        full = dict(spec, out=str(out), setup_only=setup_only, trace=trace)
        with open(log_path, "w") as log:
            full["spawned_at"] = time.time()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "step.py"), json.dumps(full), str(result_path)],
                    cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=STEP_TIMEOUT_S,
                )
                status = proc.returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
        if status != 0:
            self.failures.append({"op": f"step {spec['name']}", "ok": False,
                                  "detail": f"exit {status}, log {log_path}"})
            return None
        return json.loads(result_path.read_text())

    def setup_sample(self, steps, out):
        times = [self.step(spec, out / spec["name"], setup_only=True) for spec in steps]
        if any(t is None for t in times):
            return None
        return sum(t["setup_s"] for t in times)

    def run_pass(self, steps, out, trace):
        results = {}
        for spec in steps:
            res = self.step(spec, out / spec["name"], trace=trace)
            if res is None:
                return None
            results[spec["name"]] = res
        return {
            "dir": out,
            "steps": results,
            "wall_s": sum(r["wall_s"] for r in results.values()),
            "cpu_s": sum(r["cpu_s"] for r in results.values()),
            "peak_rss_mib": max(r["peak_rss_kib"] for r in results.values()) / 1024.0,
            "ops": [op for r in results.values() for op in r["ops"]],
        }


def _checks(workload, seed, steps, passes, traced, work):
    """Run every output check; returns operation records."""
    import numpy as np

    import checks
    from arcmig import cli

    ops = checks.kernel_checks()
    rng = np.random.default_rng([seed, 1])
    if workload == "refine":
        for p in passes:
            ops += checks.refine_checks(p["steps"]["refine"]["outputs"]["refinements"])
        return ops
    scratch = work / "roundtrip.msr"
    for spec in steps:
        cfg = cli.preset_config(spec["preset"], seed=spec["seed"], snr_db=spec["snr"])
        fwd_ops, clean = checks.forward_checks(spec["preset"], cfg)
        ops += fwd_ops
        for p in passes:
            out = p["dir"] / spec["name"]
            validate = p["steps"][spec["name"]]["outputs"].get("validate")
            ops += checks.map_checks(out, spec["preset"], cfg, rng, validate)
            ops += checks.msr_file_checks(out, spec["preset"], cfg, clean, scratch)
        for p, t in zip(passes, traced):
            ops.append(checks.same_artifacts(p["dir"] / spec["name"], t["dir"] / spec["name"],
                                             spec["preset"]))
    return ops


def _per_layer(traced, passes):
    """Per-layer metrics: medians over the traced passes."""
    from spans import Tracer

    keys = traced[0]["steps"][next(iter(traced[0]["steps"]))]["trace"].keys()
    per_pass = []
    for t in traced:
        summed = Tracer.rates({k: sum(r["trace"][k] for r in t["steps"].values()) for k in keys})
        self_total = sum(v for k, v in summed.items() if k.endswith(".self_s"))
        summed["trace.unattributed_s"] = t["wall_s"] - self_total
        per_pass.append(summed)
    metrics = {}
    for k in per_pass[0]:
        values = [p[k] for p in per_pass]
        # counts repeat exactly between passes; keep them whole numbers
        metrics[k] = statistics.median_low(values) if _unit(k) in ("count", "bytes") else (
            statistics.median(values))
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                   - statistics.median(p["wall_s"] for p in passes))
    return metrics


def _unit(name):
    if name == "peak_rss_mib":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.startswith("ns_per") or ".ns_per" in name:
        return "ns"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _provenance(root, seed, passes):
    sha = "unknown"                      # a checkout without .git has no SHA
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "arcmig").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    first = next(iter(passes[0]["steps"].values()))["provenance"] if passes else {}
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "cpu_count": os.cpu_count(),
            "seed": seed, **first}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "arcmig" / "__init__.py").is_file():
        print(f"error: {root} holds no arcmig source (src/arcmig); run from the "
              "repository root", file=sys.stderr)
        return 2
    # BLAS may use every core this process may run on, and no more
    cores = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    os.environ["OPENBLAS_NUM_THREADS"] = str(
        min(int(requested), cores) if requested.isdigit() else cores)
    sys.path.insert(1, str(root / "src"))            # after this script's directory

    work = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(root)
    steps = workload_steps(args.workload, args.seed)

    rounds = 0 if args.trace else SETUP_ROUNDS
    setups = [runner.setup_sample(steps, work / f"setup{i}") for i in range(rounds)]
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        p = runner.run_pass(steps, work / f"pass{len(passes)}", trace=False)
        if p is None:
            break
        t = runner.run_pass(steps, work / f"traced{len(traced)}", trace=True) if args.trace else None
        if args.trace and t is None:
            break
        passes.append(p)
        if t is not None:
            traced.append(t)
        # whole passes only, and no pass that would overrun --seconds
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    ops = list(runner.failures)
    for p in passes + traced:
        ops += p["ops"]
    check_ops = _checks(args.workload, args.seed, steps, passes, traced, work) if passes else []
    ops += check_ops
    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        print(f"FAILED {op['op']}: {op.get('detail') or op.get('error', '')}", file=sys.stderr)

    if not passes or any(s is None for s in setups):
        print("error: no complete pass; see the logs under " + str(work), file=sys.stderr)
        return 1
    if args.trace:
        values = _per_layer(traced, passes)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    record = {
        "provenance": _provenance(root, args.seed, passes),
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mib")} for p in passes],
        "traced_passes": [{"wall_s": t["wall_s"]} for t in traced],
        "setup_samples": setups,
    }
    print(json.dumps(record))
    correct = all(op["ok"] for op in check_ops)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
