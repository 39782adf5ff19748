"""One step of a benchmark pass, run in a fresh interpreter.

    python perfbench/step.py SPEC_JSON RESULT_PATH

SPEC_JSON names the step (``kind`` = image | refine), its generated inputs,
the wall-clock time at which the parent spawned this process
(``spawned_at``), whether to stop after set-up (``setup_only``) and whether
to trace the layers (``trace``).  The step writes a JSON result: set-up
seconds (spawn to inputs built), wall and CPU seconds of the timed part,
peak resident memory, the operations it attempted and the outputs the
benchmark checks.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _image_setup(spec):
    from arcmig import cli

    cfg = cli.preset_config(spec["preset"], seed=spec["seed"], snr_db=spec["snr"])
    return dict(crack=cfg.crack(), ks=cfg.frequency_set().wavenumbers())


def _image_run(spec, inputs, ops, outputs):
    from arcmig import analysis, cli, imaging

    out = Path(spec["out"])
    argv = ["image", "--preset", spec["preset"], "--snr", repr(spec["snr"]),
            "--seed", str(spec["seed"]), "--out", str(out)]
    status = cli.main(argv)
    ops.append({"op": f"arcmig image {spec['preset']}", "ok": status == 0})
    if status != 0 or not spec.get("validate"):
        return
    ks = inputs["ks"]
    image = imaging.load_map(out / "map.csv")
    result = analysis.validate_map(
        image, inputs["crack"], spec["validate"], {"k_first": ks[0], "k_last": ks[-1]}
    )
    ops.append({"op": f"validate_map {spec['preset']}", "ok": True})
    outputs["validate"] = result


def _refine_setup(spec):
    from arcmig import refine

    return [refine.reference_scenario(noise=(spec["snr"], s)) for s in spec["noise_seeds"]]


def _refine_run(spec, scenarios, ops, outputs):
    from arcmig import refine

    runs = []
    for noise_seed, (initial, truth, data) in zip(spec["noise_seeds"], scenarios):
        trajectory = refine.newton_refine(initial, data)
        runs.append({
            "noise_seed": noise_seed,
            "residuals": [s.residual_value for s in trajectory],
            "final": trajectory[-1].coefficients.tolist(),
            "truth": truth.coefficients.tolist(),
        })
        ops.append({"op": f"newton_refine seed {noise_seed}", "ok": True})
    outputs["refinements"] = runs


STEPS = {"image": (_image_setup, _image_run), "refine": (_refine_setup, _refine_run)}


def blas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main(spec_json, result_path):
    spec = json.loads(spec_json)
    setup, run = STEPS[spec["kind"]]
    inputs = setup(spec)
    result = {"setup_s": time.time() - spec["spawned_at"]}
    if not spec["setup_only"]:
        import numpy as np

        import arcmig

        tracer = None
        if spec["trace"]:
            from spans import Tracer                 # this script's directory

            tracer = Tracer()
            tracer.install()
        ops, outputs = [], {}
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            run(spec, inputs, ops, outputs)
        except Exception:  # noqa: BLE001 - reported as a failed operation
            ops.append({"op": f"{spec['kind']} step", "ok": False,
                        "error": traceback.format_exc()})
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            ops=ops,
            outputs=outputs,
            provenance={"backend": arcmig.BACKEND, "numpy": np.__version__,
                        "blas_threads": blas_threads()},
        )
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(Path(spec["out"]) / "spans.jsonl")
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
