#!/usr/bin/env python3
"""Benchmark: the imaging engine, layer by layer.

It builds the signal subspaces that ``arcmig image --preset P --snr 15
--seed 7`` builds for P = G3,TM, G4,TM, G2,TE and G3,TE, and for G3,TM on
the limited aperture (``--aperture limited``), then reports, in ns per
grid point and frequency (median over repeats and frequencies):

* for the TM presets, the two stages of the separable quadratic form over
  the whole grid: the direction-pair tables (``_pair_factors``, which
  include the phase tables) and the GEMMs of those tables with the sum of
  their products; and the basis (paired: N^2/4 orbits in a real GEMM, or
  unpaired: N(N+1)/2 pairs in a complex one), the term count, and the
  `tracemalloc` peak bytes of one frequency's ``_separable_sum``;
* for the TE presets, on the first block of ``imaging._BLOCK`` grid points:
  the conjugate phase block gathered from the factored phase tables, the
  same block from direct complex exps for comparison, the real GEMM
  against the four planes of G_f, and the normal search; the steering
  basis (paired, R = N real columns, or unpaired, R = 2N); and the peak
  bytes one ``product`` + ``reduce`` call on the block allocates, the
  largest over the frequencies: each walker holds this much while it
  works on a block;
* for one whole ``image_subspace`` call on G2,TE: wall seconds, minor page
  faults (``ru_minflt``) and system seconds (``ru_stime``), both in the
  first call of the process and again after a call on a coarser grid;
* for G2,TE and G3,TE, ``image_subspace`` wall and CPU
  (``time.process_time``, every thread of the process) seconds, median
  over ``--calls`` calls, with one block walker and with the walker count
  the engine picks for the TE search (BLAS at one thread in both, as
  ``import arcmig`` sets it).

The results and their provenance go to ``BENCH_imaging.json`` (see
``_record.py``) and, as one JSON line, to the end of the output.

Run:  python benchmarks/bench_imaging.py [--block 304] [--repeats 20] [--calls 3]
"""

import argparse
import math
import resource
import statistics
import time
import tracemalloc
from dataclasses import replace

import numpy as np
from _record import record

from arcmig import cli, imaging, msr

PRESETS = ("G3,TM", "G4,TM", "G3,TM limited", "G2,TE", "G3,TE")


def preset_inputs(label):
    """Config, direction set and thresholded subspaces of a preset run;
    the label is the preset, then the aperture when it is not full."""
    preset, _, aperture = label.partition(" ")
    cfg = cli.preset_config(preset, aperture=aperture or "full", seed=7, snr_db=15.0)
    run = cli.run_pipeline(cfg, stop_after="forward")
    return cfg, cfg.direction_set(), [msr.svd_threshold(m, cfg.threshold) for m in run.matrices]


def _ns_per_point(samples, points):
    return {key: round(1e9 * statistics.median(vals) / points, 2) for key, vals in samples.items()}


def separable_ns(cfg, dirs, subspaces, repeats):
    """Median ns per point and frequency of the pair tables and of the
    GEMMs of the separable form, over the whole preset grid."""
    grid = cfg.grid()
    forms = [sub.retained_left() @ sub.retained_right().conj().T for sub in subspaces]
    out = np.empty((grid.ny, imaging._padded_width(grid)), dtype=np.complex128)
    total = np.zeros_like(out)
    samples = {"pair_tables": [], "gemm": []}
    for sub, form in zip(subspaces, forms):
        for _ in range(repeats):
            t0 = time.perf_counter()
            factors = list(imaging._pair_factors(grid, sub.k, dirs, form))
            t1 = time.perf_counter()
            for left, right in factors:
                np.matmul(left, right, out=out.view(left.dtype))
                total += out
            t2 = time.perf_counter()
            samples["pair_tables"].append(t1 - t0)
            samples["gemm"].append(t2 - t1)
    tracemalloc.start()
    imaging._separable_sum(grid, [subspaces[0].k], dirs, forms[:1])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out = _ns_per_point(samples, grid.nx * grid.ny)
    out.update(basis="paired" if imaging._paired(dirs) else "unpaired",
               terms=len(imaging._pair_orbits(dirs)[0]), points=grid.nx * grid.ny,
               directions=dirs.count, frequencies=len(subspaces),
               max_cut=max(sub.cut_index for sub in subspaces), frequency_peak_bytes=peak)
    return out


def search_ns(cfg, dirs, subspaces, repeats):
    """Median ns per point and frequency of each TE search stage, on the
    first block of the preset grid, and the steering basis."""
    grid = cfg.grid()
    kept, expand = imaging._steering_basis(dirs)
    product, reduce = imaging._te_search(subspaces, np.ones(len(subspaces)), cfg.candidates,
                                         dirs, expand)
    rows = min(imaging._BLOCK, grid.nx * grid.ny)
    iy, ix = np.divmod(np.arange(rows), grid.nx)
    points = grid.points()[:rows]
    samples = {"phase_tables": [], "phase_direct": [], "gemm": [], "reduce": []}
    block_bytes = 0
    for f, sub in enumerate(subspaces):
        tx, ty = imaging._phase_tables(grid, sub.k, dirs, kept)
        real = imaging._steering_block(tx, ty, ix, iy).view(np.float64)
        tracemalloc.start()
        reduce(f, real, product(f, real))
        block_bytes = max(block_bytes, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        for _ in range(repeats):
            t0 = time.perf_counter()
            np.exp(1j * sub.k * (points @ dirs.directions().T)).conj() / math.sqrt(dirs.count)
            t1 = time.perf_counter()
            real = imaging._steering_block(tx, ty, ix, iy).view(np.float64)
            t2 = time.perf_counter()
            prod = product(f, real)
            t3 = time.perf_counter()
            reduce(f, real, prod)
            t4 = time.perf_counter()
            for key, dt in zip(samples, (t2 - t1, t1 - t0, t3 - t2, t4 - t3)):
                samples[key].append(dt)
    out = _ns_per_point(samples, rows)
    out.update(basis="paired" if kept < dirs.count else "unpaired", real_columns=len(expand),
               block=rows, directions=dirs.count, frequencies=len(subspaces),
               max_cut=max(sub.cut_index for sub in subspaces),
               block_peak_bytes=block_bytes)
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
    engine_choice = imaging._search_walkers
    try:
        for label, count in (("one_walker", 1), ("chosen", chosen)):
            imaging._search_walkers = lambda blocks, count=count: count
            wall, cpu = [], []
            for _ in range(calls):
                t0, c0 = time.perf_counter(), time.process_time()
                imaging.image_subspace(subspaces, grid, cfg.steering_mode(), cfg.weight_scheme())
                wall.append(time.perf_counter() - t0)
                cpu.append(time.process_time() - c0)
            out[label] = {"wall_s": round(statistics.median(wall), 3),
                          "cpu_s": round(statistics.median(cpu), 3)}
    finally:
        imaging._search_walkers = engine_choice
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--block", type=int, default=imaging._BLOCK,
                        help="grid points per TE search block (default: the module's)")
    parser.add_argument("--repeats", type=int, default=20)
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
    layers = {}
    for preset, (pcfg, pdirs, psubs) in inputs.items():
        stages = search_ns if pcfg.mode == "te-search" else separable_ns
        layers[preset] = stages(pcfg, pdirs, psubs, args.repeats)
        print(f"  {preset}: " + ", ".join(f"{k} {v}" for k, v in layers[preset].items()))
    for label, call in calls.items():
        print(f"image_subspace G2,TE ({label}): " + ", ".join(f"{k} {v}" for k, v in call.items()))
    walkers = {}
    for preset in ("G2,TE", "G3,TE"):
        pcfg, _, psubs = inputs[preset]
        walkers[preset] = walker_calls(pcfg, psubs, args.calls)
        print(f"image_subspace {preset}, median of {args.calls}: "
              + ", ".join(f"{k} {v}" for k, v in walkers[preset].items()))
    record("imaging", {"block": args.block, "layer_unit": "ns per point and frequency",
                       "layers": layers, "image_subspace_G2_TE": calls,
                       "walkers": walkers})


if __name__ == "__main__":
    main()
