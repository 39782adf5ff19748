#!/usr/bin/env python3
"""Benchmark: the order-0/1 Bessel kernels per argument range.

For each range of the evaluation scheme (series below 9, recurrence band
[9, 18), asymptotic sums from 18) it times separate calls of the views
(``j0v`` + ``j1v``, ``j0v`` + ``y0v``) against one fused ``jy01v`` call, in
nanoseconds per argument (best of five), and reports the largest deviation
from `scipy.special` scaled by max(1, |reference|) when scipy is present.
The results and their provenance go to ``BENCH_kernels.json`` (see
``_record.py``) and, as one JSON line, to the end of the output.

Run:  python benchmarks/bench_kernels.py [--size 200000]
"""

import argparse
import time

import numpy as np
from _record import record

from arcmig import kernels

RANGES = {
    "series [1e-3, 9)": (1e-3, 9.0),
    "recurrence [9, 18)": (9.0, 18.0),
    "asymptotic [18, 400)": (18.0, 400.0),
}


def _ns_per_arg(fn, x, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(x)
        best = min(best, time.perf_counter() - t0)
    return 1e9 * best / x.size


def _scipy_deviation(x):
    try:
        from scipy import special
    except ImportError:
        return None
    refs = (special.j0(x), special.j1(x), special.y0(x), special.y1(x))
    return max(
        float(np.max(np.abs(mine - ref) / np.maximum(1.0, np.abs(ref))))
        for mine, ref in zip(kernels.jy01v(x), refs)
    )


CASES = (
    ("j0v+j1v", lambda x: (kernels.j0v(x), kernels.j1v(x))),
    ("jy01v J", lambda x: kernels.jy01v(x, want_y=False)),
    ("j0v+y0v", lambda x: (kernels.j0v(x), kernels.y0v(x))),
    ("jy01v JY", kernels.jy01v),
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", type=int, default=200_000)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    print("ns per argument, best of 5; deviation = max |ours - scipy| / max(1, |scipy|)\n")
    print(f"{'range':22s}" + "".join(f"{name:>10s}" for name, _ in CASES) + f"{'deviation':>11s}")
    ranges = {}
    for label, (lo, hi) in RANGES.items():
        x = rng.uniform(lo, hi, args.size)
        row = {name: round(_ns_per_arg(fn, x)) for name, fn in CASES}
        dev = _scipy_deviation(x)
        print(f"{label:22s}" + "".join(f"{ns:10d}" for ns in row.values())
              + f"{'-' if dev is None else f'{dev:.1e}':>11s}")
        ranges[label] = {"ns_per_arg": row, "deviation": dev}
    record("kernels", {"size": args.size, "ranges": ranges})


if __name__ == "__main__":
    main()
