#!/usr/bin/env python3
"""Benchmark: the imaging engine, layer by layer.

It builds the signal subspaces that ``arcmig image --preset P --snr 15
--seed 7`` builds for P = G3,TM, G4,TM, G2,TE and G3,TE, and for G3,TM on
the limited aperture (``--aperture limited``), then times whole
``image_subspace`` calls on the preset grid at one block walker and
reports, in ns per grid point and frequency (median over repeats):

* for the TM presets, the two stages of the separable quadratic form: the
  direction-pair tables (the iteration of ``_pair_factors``, which
  includes the phase tables) and the GEMMs of those tables with the sum of
  their products (the rest of ``_separable_sum``); and the basis (paired:
  N^2/4 orbits in a real GEMM, or unpaired: N(N+1)/2 pairs in a complex
  one), the term count, and the `tracemalloc` peak bytes of one
  frequency's ``_separable_sum``;
* for the TE presets, the stages of the normal search (``_te_search``):
  the phase tables (``_phase_tables``), the conjugate phase blocks
  gathered from them (``_steering_block``), the real GEMMs against the
  four planes of G_f and the normal search (``_search_reduce``). The GEMM
  figure is the rest of ``_te_search``, so it also holds the per-frequency
  plane set-up and the block loop's own index work. Also the basis
  (paired, R = N real columns, or unpaired, R = 2N) and the `tracemalloc`
  peak bytes of one frequency's search on one block of the preset grid's
  first rows, the largest over the frequencies: about what each walker
  holds while it works on a block;
* for one whole ``image_subspace`` call on G2,TE: wall seconds, minor page
  faults (``ru_minflt``) and system seconds (``ru_stime``), both in the
  first call of the process and again after a call on a coarser grid;
* for G2,TE and G3,TE, ``image_subspace`` wall and CPU
  (``time.process_time``, every thread of the process) seconds, median
  over ``--calls`` calls, with one block walker and with the walker count
  the engine picks for the TE search (BLAS at one thread in both, as
  ``import arcmig`` sets it).

The stages are timed by wrappers placed around the engine's own functions
for the duration of each call (``bench_forward.stage_timers``). The
results and their provenance go to ``BENCH_imaging.json`` (see
``_record.py``) and, as one JSON line, to the end of the output.

Run:  python benchmarks/bench_imaging.py [--block 304] [--repeats 5] [--calls 3]
"""

import argparse
import math
import resource
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

from _record import record
from bench_forward import stage_timers

from arcmig import cli, imaging, msr

PRESETS = ("G3,TM", "G4,TM", "G3,TM limited", "G2,TE", "G3,TE")

# stage -> the engine functions whose time it collects
STAGES = {
    "separable": [(imaging, "_separable_sum")],
    "pair_tables": [(imaging, "_pair_factors")],
    "search": [(imaging, "_te_search")],
    "phase_tables": [(imaging, "_phase_tables")],
    "gather": [(imaging, "_steering_block")],
    "reduce": [(imaging, "_search_reduce")],
}


def preset_inputs(label):
    """Config, direction set and thresholded subspaces of a preset run;
    the label is the preset, then the aperture when it is not full."""
    preset, _, aperture = label.partition(" ")
    cfg = cli.preset_config(preset, aperture=aperture or "full", seed=7, snr_db=15.0)
    run = cli.run_pipeline(cfg, stop_after="forward")
    return cfg, cfg.direction_set(), [msr.svd_threshold(m, cfg.threshold) for m in run.matrices]


@contextmanager
def walkers(count):
    """The TE search on `count` block walkers while the block runs."""
    engine_choice = imaging._search_walkers
    imaging._search_walkers = lambda blocks: count
    try:
        yield
    finally:
        imaging._search_walkers = engine_choice


def peak_bytes(run):
    """The `tracemalloc` peak of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layers(cfg, dirs, subspaces, repeats):
    """Median ns per point and frequency of each engine stage over whole
    image_subspace calls at one walker, and the stage's peak bytes."""
    grid, mode, weight = cfg.grid(), cfg.steering_mode(), cfg.weight_scheme()
    search = mode.kind == "te-search"
    samples = []
    with walkers(1):
        for _ in range(repeats):
            with stage_timers(STAGES) as seconds:
                imaging.image_subspace(subspaces, grid, mode, weight)
            if search:
                seconds["gemm"] = seconds["search"] - sum(
                    seconds[key] for key in ("phase_tables", "gather", "reduce"))
                keys = ("phase_tables", "gather", "gemm", "reduce")
            else:
                seconds["gemm"] = seconds["separable"] - seconds["pair_tables"]
                keys = ("pair_tables", "gemm")
            samples.append(seconds)
        scale = 1e9 / (grid.nx * grid.ny * len(subspaces))
        out = {key: round(scale * statistics.median(s[key] for s in samples), 2) for key in keys}
        out.update(basis="paired" if imaging._paired(dirs) else "unpaired",
                   points=grid.nx * grid.ny, directions=dirs.count,
                   frequencies=len(subspaces), max_cut=max(sub.cut_index for sub in subspaces))
        if search:
            # the first rows of the grid, cut to one block of points
            block = replace(grid, x_hi=grid.x_lo + (imaging._BLOCK // 2 - 1) * grid.h,
                            y_hi=grid.y_lo + grid.h)
            out.update(real_columns=2 * imaging._kept(dirs), block_peak_bytes=max(
                peak_bytes(lambda sub=sub: imaging.image_subspace([sub], block, mode, weight))
                for sub in subspaces))
        else:
            form = subspaces[0].retained_left() @ subspaces[0].retained_right().conj().T
            out.update(terms=len(imaging._pair_orbits(dirs)[0]), frequency_peak_bytes=peak_bytes(
                lambda: imaging._separable_sum(grid, [subspaces[0].k], dirs, [form])))
    return out


def image_call(cfg, subspaces, grid):
    """Wall seconds, minor faults and system seconds of one image_subspace call."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    imaging.image_subspace(subspaces, grid, cfg.steering_mode(), cfg.weight_scheme())
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"wall_s": round(wall, 3), "ru_minflt": after.ru_minflt - before.ru_minflt,
            "ru_stime": round(after.ru_stime - before.ru_stime, 3)}


def walker_calls(cfg, subspaces, calls):
    """Median wall and CPU seconds of image_subspace with one block walker
    and with the engine's own walker count."""
    grid = cfg.grid()
    chosen = imaging._search_walkers(math.ceil(grid.nx * grid.ny / imaging._BLOCK))
    out = {"walkers": chosen}
    for label, count in (("one_walker", 1), ("chosen", chosen)):
        wall, cpu = [], []
        with walkers(count):
            for _ in range(calls):
                t0, c0 = time.perf_counter(), time.process_time()
                imaging.image_subspace(subspaces, grid, cfg.steering_mode(), cfg.weight_scheme())
                wall.append(time.perf_counter() - t0)
                cpu.append(time.process_time() - c0)
        out[label] = {"wall_s": round(statistics.median(wall), 3),
                      "cpu_s": round(statistics.median(cpu), 3)}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--block", type=int, default=imaging._BLOCK,
                        help="grid points per TE search block (default: the module's)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="image_subspace calls per preset for the layers (default: 5)")
    parser.add_argument("--calls", type=int, default=3,
                        help="image_subspace calls per walker count (default: 3)")
    args = parser.parse_args()
    imaging._BLOCK = args.block

    inputs = {preset: preset_inputs(preset) for preset in PRESETS}
    cfg, _, subspaces = inputs["G2,TE"]
    grid = cfg.grid()
    calls = {"first": image_call(cfg, subspaces, grid)}
    coarse = replace(grid, h=2.0 * grid.h)
    image_call(cfg, subspaces, coarse)
    calls["after_coarse"] = image_call(cfg, subspaces, grid)

    print(f"imaging engine, TE block {args.block} points; ns per point and frequency, median")
    rows = {}
    for preset, (pcfg, pdirs, psubs) in inputs.items():
        rows[preset] = layers(pcfg, pdirs, psubs, args.repeats)
        print(f"  {preset}: " + ", ".join(f"{k} {v}" for k, v in rows[preset].items()))
    for label, call in calls.items():
        print(f"image_subspace G2,TE ({label}): " + ", ".join(f"{k} {v}" for k, v in call.items()))
    counts = {}
    for preset in ("G2,TE", "G3,TE"):
        pcfg, _, psubs = inputs[preset]
        counts[preset] = walker_calls(pcfg, psubs, args.calls)
        print(f"image_subspace {preset}, median of {args.calls}: "
              + ", ".join(f"{k} {v}" for k, v in counts[preset].items()))
    record("imaging", {"block": args.block, "layer_unit": "ns per point and frequency",
                       "layers": rows, "image_subspace_G2_TE": calls,
                       "walkers": counts})


if __name__ == "__main__":
    main()
