#!/usr/bin/env python3
"""Benchmark: the metrics layer (`arcmig.analysis`), in ms per call.

It times, as the median over ``--calls`` calls (one warm-up call first):

* ``validate_map(..., "TM_BAND", ...)`` and ``localization_metrics`` on the
  G3,TM and G4,TM preset grids and cracks, the metrics an ``arcmig image``
  run and the perfbench ``tm_image`` workload compute; the map holds fixed
  uniform random values, since neither call's work depends on them;
  ``validate_map`` is also given per point-sample pair (grid points times
  its 32 crack samples per crack component), in ns; ``localization_metrics``
  includes the endpoint flags;
* ``forward.boundary_residual`` of the G3,TM and G4,TM verify probes (the
  Dirichlet plane wave from -y at the band's first wavenumber, solved at
  the preset's check node count), the check an ``arcmig image`` TM run
  makes before its forward stage;
* ``kernel_predict("TM_BAND", ...)`` at the far point (30, 0) against G4's
  32 samples, k over the G4,TM band: a scalar prediction whose radial table
  holds only the panels of its distances;
* one scalar ``ring_integrals`` call on the limited aperture
  [pi/6, 5 pi/6] at k = 15;
* ``kernel_predict("LV_TM_BAND" / "LV_TE_BAND", include_remainder=True)``
  at one point against one crack sample, k in [2 pi / 0.5, 2 pi / 0.3].

The results and their provenance go to ``BENCH_analysis.json`` (see
``_record.py``) and, as one JSON line, to the end of the output.

Run:  python benchmarks/bench_analysis.py [--calls 5]
"""

import argparse
import math
import statistics
import time

import numpy as np
from _record import record

from arcmig import analysis, cli, forward, imaging

PRESETS = ("G3,TM", "G4,TM")
ALPHA, BETA = math.pi / 6.0, 5.0 * math.pi / 6.0
K_FIRST, K_LAST = 2.0 * math.pi / 0.5, 2.0 * math.pi / 0.3


def _ms_per_call(fn, calls):
    fn()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(1e3 * statistics.median(times), 4)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--calls", type=int, default=5)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    results, ns_per_pair = {}, {}
    for preset in PRESETS:
        cfg = cli.preset_config(preset, seed=7, snr_db=15.0)
        crack, grid, ks = cfg.crack(), cfg.grid(), cfg.frequency_set().wavenumbers()
        image = imaging.ImageMap(grid=grid, values=rng.uniform(0.0, 1.0, grid.nx * grid.ny))
        params = {"k_first": ks[0], "k_last": ks[-1]}
        name = f"validate_map TM_BAND {preset}"
        results[name] = _ms_per_call(
            lambda: analysis.validate_map(image, crack, "TM_BAND", params), args.calls)
        samples = analysis.crack_samples_on_grid(crack, grid, 32)[0].shape[0]
        ns_per_pair[name] = round(1e6 * results[name] / (grid.nx * grid.ny * samples), 2)
        results[f"localization_metrics {preset}"] = _ms_per_call(
            lambda: analysis.localization_metrics(image, crack), args.calls)
        probe = forward.solve_density(
            crack, forward.PlaneWave(np.array([0.0, -1.0]), ks[0]),
            forward.BoundaryCondition.DIRICHLET, forward.NystromConfig(nodes_per_arc=cfg.nodes_check))
        results[f"boundary_residual {preset} probe"] = _ms_per_call(
            lambda: forward.boundary_residual(probe), args.calls)
    g4 = cli.preset_config("G4,TM")
    ks = g4.frequency_set().wavenumbers()
    samples_g4 = analysis.crack_samples_on_grid(g4.crack(), g4.grid(), 32)[0]
    results["kernel_predict TM_BAND far point"] = _ms_per_call(
        lambda: analysis.kernel_predict("TM_BAND", [30.0, 0.0], samples_g4,
                                        k_first=ks[0], k_last=ks[-1]), args.calls)

    x, xi = np.array([0.3, -0.6]), np.array([math.sin(0.3), math.cos(0.3)])
    results["ring_integrals scalar k"] = _ms_per_call(
        lambda: analysis.ring_integrals(ALPHA, BETA, 15.0, x, xi), 40 * args.calls)
    point, sample = np.array([0.2, 0.5]), np.array([[0.0, 0.0]])
    for kind in ("LV_TM_BAND", "LV_TE_BAND"):
        results[f"kernel_predict {kind} with remainder"] = _ms_per_call(
            lambda: analysis.kernel_predict(
                kind, point, sample, normals=xi[None, :], k_first=K_FIRST, k_last=K_LAST,
                alpha=ALPHA, beta=BETA, include_remainder=True,
            ), args.calls)

    print(f"{'call':44s}{'ms':>12s}")
    for name, ms in results.items():
        print(f"{name:44s}{ms:12.3f}")
    print(f"{'call':44s}{'ns/pair':>12s}")
    for name, ns in ns_per_pair.items():
        print(f"{name:44s}{ns:12.2f}")
    record("analysis", {"calls": args.calls, "ms_per_call": results,
                        "ns_per_point_sample_pair": ns_per_pair})


if __name__ == "__main__":
    main()
