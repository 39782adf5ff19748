#!/usr/bin/env python3
"""Benchmark: the forward layer, stacked and one crack at a time.

It reports, as medians over repeats:

* the 2p central-difference residuals of one Gauss-Newton step at the
  reference scenario's initial guess (p + 1 = 6 coefficients, 64 nodes):
  the 12 cracks as one stack against 12 stacks of one, in ms, split into
  kernel (H0 over the node pairs), build (the rest of the system fill),
  solve (the batched LU solve) and far field;
* ms per `msr.assemble` frequency on the G3,TM, G4,TM and G2,TE presets
  (the stack-of-one path), split the same way plus the discretization,
  for the sweep on one `forward.discretize` result against one build per
  frequency, and the one-time build on its own line;
* ms per `validate_crack` call on the catalog cracks and the reference
  initial guess.

The split comes from timing wrappers placed around `forward._hankel0`,
the wavenumber-independent build (`discretize`, in `forward` and in `msr`,
which imports the name), the system builders (`forward._slp_system`, and
`forward._build_neumann` around it), `forward._solve_linear` and
`forward.far_field_matrix` for the duration of the measurement; a call
nested in another of its stage is not counted twice.  What is left of the
total is "other" (right-hand sides, density scaling).  The results and
their provenance go to ``BENCH_forward.json`` (see ``_record.py``) and, as
one JSON line, to the end of the output.

Run:  python benchmarks/bench_forward.py [--repeats 20]
"""

import argparse
import inspect
import statistics
import time
from contextlib import contextmanager

import numpy as np
from _record import record

from arcmig import cli, forward, geometry, msr, refine
from arcmig.forward import NystromConfig

# stage -> the functions whose time it collects; build excludes the kernel
STAGES = {
    "kernel": [(forward, "_hankel0")],
    "discretize": [(forward, "discretize"), (msr, "discretize")],
    "build": [(forward, "_slp_system"), (forward, "_build_neumann")],
    "solve": [(forward, "_solve_linear")],
    "far_field": [(forward, "far_field_matrix")],
}


@contextmanager
def stage_timers(stages):
    """Accumulate seconds per stage while the block runs; stages maps each
    stage to the (module, name) functions whose time it collects. Only the
    outermost of nested calls in one stage is timed, and a generator
    function's time is that of its iteration, not of the call that makes
    the generator."""
    seconds = dict.fromkeys(stages, 0.0)
    depth = dict.fromkeys(stages, 0)
    saved = []

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            if depth[stage]:
                return fn(*args, **kwargs)
            depth[stage] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] += time.perf_counter() - t0
                depth[stage] -= 1

        def iteration(*args, **kwargs):
            items, done = fn(*args, **kwargs), object()
            while True:
                t0 = time.perf_counter()
                item = next(items, done)
                seconds[stage] += time.perf_counter() - t0
                if item is done:
                    return
                yield item

        return iteration if inspect.isgeneratorfunction(fn) else wrapper

    for stage, targets in stages.items():
        for module, name in targets:
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, timed(stage, fn))
    try:
        yield seconds
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def split_ms(run, repeats):
    """Median total ms of ``run()`` and the median ms of each stage."""
    samples = []
    for _ in range(repeats):
        with stage_timers(STAGES) as seconds:
            t0 = time.perf_counter()
            run()
            total = time.perf_counter() - t0
        seconds["build"] -= seconds["kernel"]
        seconds["other"] = total - sum(seconds.values())
        seconds["total"] = total
        samples.append(seconds)
    return {key: round(1e3 * statistics.median(s[key] for s in samples), 3) for key in samples[0]}


def fd_cracks():
    """The 2p central-difference cracks at the reference initial guess."""
    initial, _, data = refine.reference_scenario()
    coeffs, h = initial.coefficients, refine.RefineConfig().fd_step
    bumps = h * np.eye(coeffs.size)
    rows = np.concatenate([coeffs + bumps, coeffs - bumps])
    return [geometry.chebyshev_graph_arc(c) for c in rows], data


def jacobian_ms(repeats):
    cracks, data = fd_cracks()
    cfg = NystromConfig(nodes_per_arc=64)

    def residual_fields(stack):
        disc = forward.discretize(stack, "dirichlet", cfg)
        forward.far_fields(disc, data.k, data.theta[None, :], data.observation_dirs)

    def stacked():
        residual_fields(cracks)

    def one_by_one():
        for crack in cracks:
            residual_fields([crack])

    return {"cracks": len(cracks), "stack": split_ms(stacked, repeats),
            "stacks_of_one": split_ms(one_by_one, repeats)}


def assemble_ms(preset, repeats):
    """Per frequency of the preset's sweep: on one discretization, and with
    one build per frequency; plus the median ms of one discretization."""
    cfg = cli.preset_config(preset, seed=7, snr_db=15.0)
    crack, dirs = cfg.crack(), cfg.direction_set()
    nystrom = NystromConfig(nodes_per_arc=cfg.nodes_data)
    ks = cfg.frequency_set().wavenumbers()
    disc = forward.discretize([crack], cfg.bc, nystrom)
    state = {"f": 0}

    def frequency(shared):
        def run():
            k = ks[state["f"] % len(ks)]
            msr.assemble(crack, k, dirs, cfg.bc, nystrom, disc if shared else None)
            state["f"] += 1

        return run

    count = max(repeats, len(ks))
    out = {"shared": split_ms(frequency(True), count),
           "per_frequency": split_ms(frequency(False), count)}
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        forward.discretize([crack], cfg.bc, nystrom)
        samples.append(time.perf_counter() - t0)
    out.update(discretize=round(1e3 * statistics.median(samples), 3),
               nodes=cfg.nodes_data, directions=dirs.count, frequencies=len(ks))
    return out


def validate_ms(repeats):
    cracks = {name: geometry.catalog(name) for name in geometry.catalog_names()}
    cracks["reference"] = geometry.chebyshev_graph_arc(refine.REFERENCE_INITIAL)
    out = {}
    for name, crack in cracks.items():
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            geometry.validate_crack(crack)
            samples.append(time.perf_counter() - t0)
        out[name] = round(1e3 * statistics.median(samples), 3)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()

    jac = jacobian_ms(args.repeats)
    print(f"FD residuals of one step ({jac['cracks']} cracks, 64 nodes), ms, median:")
    for label in ("stack", "stacks_of_one"):
        print(f"  {label}: " + ", ".join(f"{k} {v}" for k, v in jac[label].items()))
    presets = ("G3,TM", "G4,TM", "G2,TE")
    assemble = {preset: assemble_ms(preset, args.repeats) for preset in presets}
    for preset, row in assemble.items():
        print(f"msr.assemble {preset} ({row['nodes']} nodes per arc, {row['directions']} "
              f"directions, {row['frequencies']} frequencies), ms per frequency, median:")
        for label in ("shared", "per_frequency"):
            print(f"  {label}: " + ", ".join(f"{k} {v}" for k, v in row[label].items()))
        print(f"  discretize, once per sweep: {row['discretize']} ms")
    validate = validate_ms(args.repeats)
    print("validate_crack, ms per call: " + ", ".join(f"{k} {v}" for k, v in validate.items()))
    record("forward", {"repeats": args.repeats, "fd_residuals": jac, "assemble": assemble,
                       "validate_crack": validate})


if __name__ == "__main__":
    main()
