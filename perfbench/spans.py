"""In-memory span tracing of the arcmig layers, installed from outside.

`Tracer.install` replaces every public function of each layer module with
a wrapper that records a span (name, layer, start, end, parent) around the
call, then rebinds the wrapper wherever an arcmig module holds the original
(``from .forward import solve_density`` in `arcmig.cli` as much as
``forward.solve_density``).  No source of the program changes; arguments
and return values pass through untouched, so artifacts stay byte-identical.

A layer's self time is the time of its spans minus the time of their child
spans.  Work counts are taken at the same boundaries.
"""

import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("kernels", "geometry", "forward", "msr", "imaging", "analysis", "refine", "cli")

# imaging's metadata and hashing helpers serve the CLI's manifest: their
# time stays with the caller, so cli.self_s covers config, hashing and
# manifest writing.
_SKIP = {"imaging": {"save_metadata", "load_metadata", "file_sha256"}}

# msr.assemble is a forward solve plus a far-field evaluation; it counts
# as forward work.
_REASSIGN = {("msr", "assemble"): "forward"}

# self time of imaging.image_subspace, the base of imaging.ns_per_point_freq
SUBSPACE_SELF = "imaging.image_subspace_self_s"

_FAR_FIELD = {"forward.far_field", "forward.far_field_many", "forward.far_field_matrix"}


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


class Tracer:
    def __init__(self):
        self.spans = []            # [name, layer, start, end, parent index]
        self._stack = []           # indices into spans of the open spans
        self._child_time = []      # child time per open span
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.time_by_name = {}     # total span time per wrapped function
        self.self_by_name = {}
        self.counts = {}

    # ---------------------------------------------------------------- spans

    def _wrap(self, qualname, layer, fn, counter=None):
        tracer = self
        sig = inspect.signature(fn) if counter is not None else None

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # nested kernel calls (jnv -> j0v) are one evaluation
            if layer == "kernels" and stack and tracer.spans[stack[-1]][1] == "kernels":
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = stack[-1] if stack else -1
            tracer.spans.append([qualname, layer, time.perf_counter(), None, parent])
            stack.append(idx)
            tracer._child_time.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span = tracer.spans[idx]
                span[3] = end
                stack.pop()
                child = tracer._child_time.pop()
                duration = end - span[2]
                own = duration - child
                if tracer._child_time:
                    tracer._child_time[-1] += duration
                tracer.self_time[layer] += own
                tracer.time_by_name[qualname] = tracer.time_by_name.get(qualname, 0.0) + duration
                tracer.self_by_name[qualname] = tracer.self_by_name.get(qualname, 0.0) + own
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, qualname):
        return any(self.spans[i][0] == qualname for i in self._stack)

    # -------------------------------------------------------------- install

    def install(self):
        """Wrap the layer functions of the already-imported arcmig package."""
        from arcmig import analysis, cli, forward, geometry, imaging, msr, refine
        from arcmig.backend import kernels

        modules = dict(
            kernels=kernels, geometry=geometry, forward=forward, msr=msr,
            imaging=imaging, analysis=analysis, refine=refine, cli=cli,
        )
        counters = _counters(forward)
        replaced = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                if name in _SKIP.get(layer, ()):
                    continue
                qualname = f"{layer}.{name}"
                owner = _REASSIGN.get((layer, name), layer)
                replaced[fn] = self._wrap(qualname, owner, fn, counters.get(qualname))
        for name in ("points", "tangents", "normals"):
            method = getattr(geometry.ParametricArc, name)
            setattr(geometry.ParametricArc, name,
                    self._wrap(f"geometry.ParametricArc.{name}", "geometry", method))
        # the kernels backend is a module object that callers hold by
        # reference, so rebinding its attributes reaches them too
        for modname, module in list(sys.modules.items()):
            if modname != "arcmig" and not modname.startswith("arcmig."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])

    # --------------------------------------------------------------- report

    def summary(self):
        c = self.counts
        t = self.time_by_name
        s = self.self_by_name

        def span_time(*names):
            return sum(t.get(n, 0.0) for n in names)

        out = {f"{layer}.self_s": self.self_time[layer] for layer in LAYERS}
        out.update({
            "kernels.calls": c.get("kernels.calls", 0),
            "kernels.args": c.get("kernels.args", 0),
            "forward.solves": c.get("forward.solves", 0),
            "forward.rhs": c.get("forward.rhs", 0),
            "forward.unknowns": c.get("forward.unknowns", 0),
            "forward.far_field_s": span_time(*_FAR_FIELD),
            "msr.svd_s": span_time("msr.svd_threshold"),
            "msr.noise_s": span_time("msr.add_noise"),
            "msr.save_s": span_time("msr.save_msr"),
            "msr.bytes_written": c.get("msr.bytes_written", 0),
            "msr.cut_index_sum": c.get("msr.cut_index_sum", 0),
            "imaging.point_freqs": c.get("imaging.point_freqs", 0),
            SUBSPACE_SELF: s.get("imaging.image_subspace", 0.0),
            "imaging.save_s": span_time("imaging.save_map"),
            "imaging.bytes_written": c.get("imaging.bytes_written", 0),
            "analysis.predict_points": c.get("analysis.predict_points", 0),
            "refine.iterations": c.get("refine.iterations", 0),
            "refine.residual_evals": c.get("refine.residual_evals", 0),
        })
        return out

    @staticmethod
    def rates(summed):
        """Add the per-element rates to summed summaries (of one or more
        steps), consuming the helper key."""
        args, point_freqs = summed["kernels.args"], summed["imaging.point_freqs"]
        summed["kernels.ns_per_arg"] = 1e9 * summed["kernels.self_s"] / args if args else 0.0
        subspace = summed.pop(SUBSPACE_SELF)
        summed["imaging.ns_per_point_freq"] = 1e9 * subspace / point_freqs if point_freqs else 0.0
        return summed

    def write_spans(self, path):
        with open(path, "w") as fh:
            for idx, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": idx, "name": name, "layer": layer, "start": start,
                     "end": end, "parent": parent}
                ) + "\n")


def _counters(forward):
    """Work counters keyed by wrapped function; each gets the bound
    arguments and the result of one outermost call."""

    def kernel_1d(tracer, a, _):
        tracer.add("kernels.calls", 1)
        tracer.add("kernels.args", np.size(a["x"]))

    def kernel_table(tracer, a, _):
        tracer.add("kernels.calls", 1)
        tracer.add("kernels.args", (int(a["nmax"]) + 1) * np.size(a["x"]))

    def unknowns(crack, bc, cfg):
        per_arc = cfg.nodes_per_arc
        if forward.BoundaryCondition.parse(bc) is forward.BoundaryCondition.NEUMANN:
            per_arc -= 1                       # sine basis of orders 1..n-1
        return per_arc * len(crack.components)

    def solve_density(tracer, a, _):
        tracer.add("forward.solves", 1)
        tracer.add("forward.rhs", 1)
        tracer.add("forward.unknowns", unknowns(a["crack"], a["bc"], a["cfg"]))
        if tracer.inside("refine.newton_refine"):
            tracer.add("refine.residual_evals", 1)

    def assemble(tracer, a, _):
        tracer.add("forward.solves", 1)
        tracer.add("forward.rhs", a["dirs"].count)
        tracer.add("forward.unknowns", unknowns(a["crack"], a["bc"], a["cfg"]))

    def svd_threshold(tracer, _, result):
        tracer.add("msr.cut_index_sum", int(result.cut_index))

    def save_msr(tracer, a, _):
        tracer.add("msr.bytes_written", os.path.getsize(a["path"]))

    def save_map(tracer, a, _):
        tracer.add("imaging.bytes_written", os.path.getsize(a["path"]))

    def image_subspace(tracer, a, _):
        grid = a["grid"]
        tracer.add("imaging.point_freqs", grid.nx * grid.ny * len(a["subspaces"]))

    def kernel_predict_grid(tracer, a, _):
        x, points = a["x"], a["points"]
        tracer.add("analysis.predict_points",
                   len(np.atleast_2d(x)) * len(np.atleast_2d(points)))

    def newton_refine(tracer, _, result):
        tracer.add("refine.iterations", len(result) - 1)

    return {
        "kernels.j0v": kernel_1d, "kernels.j1v": kernel_1d,
        "kernels.y0v": kernel_1d, "kernels.y1v": kernel_1d,
        "kernels.jnv": kernel_1d, "kernels.jn_table": kernel_table,
        "forward.solve_density": solve_density,
        "msr.assemble": assemble,
        "msr.svd_threshold": svd_threshold,
        "msr.save_msr": save_msr,
        "imaging.save_map": save_map,
        "imaging.image_subspace": image_subspace,
        "analysis.kernel_predict_grid": kernel_predict_grid,
        "refine.newton_refine": newton_refine,
    }
