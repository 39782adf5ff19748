"""Experiment orchestration: config-driven runs of the forward -> MSR ->
imaging -> metrics pipeline, artifact persistence with a reproducibility
manifest, identity-suite verification, refinement runs, and grayscale
rendering.

Config files are TOML 1.0, read by the standard library's `tomllib`, with
every key in a section; every file the canonical serializer writes reads
back, and parse -> serialize is a byte-identical round trip.
"""

import argparse
import math
import stat
import sys
import time
from dataclasses import MISSING, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, analysis, geometry, imaging, kernels, msr, refine
from .backend import BACKEND
from .errors import (
    ConfigError,
    DegenerateSteeringError,
    DomainError,
    IterationError,
    LookupNameError,
    MapParseError,
    SingularityError,
    SolverError,
)
from .forward import (
    BoundaryCondition,
    NystromConfig,
    PlaneWave,
    boundary_residual,
    discretize,
    solve_density,
)
from .imaging import file_sha256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_CONFIG_ERRORS = (ConfigError, LookupNameError, MapParseError, DomainError, KeyError, OSError)
_NUMERIC_ERRORS = (
    SolverError,
    IterationError,
    SingularityError,
    DegenerateSteeringError,
    np.linalg.LinAlgError,
)

# Preset experiments, one row per catalog crack: the fields that differ
# from their defaults, with the direction count as (TM, TE)
PRESETS = {
    "G1": dict(count=(16, 16), freq_count=10, lambda_first=0.5, lambda_last=0.4,
               x_lo=-1.0, x_hi=1.0, y_lo=-1.0, y_hi=1.0),
    "G2": dict(count=(28, 36), freq_count=12, lambda_first=0.6, lambda_last=0.3,
               x_lo=-2.0, x_hi=2.0, y_lo=-2.0, y_hi=2.0, candidates=24),
    # the long spiral needs twice the quadrature resolution of the other
    # cracks to pass the pre-run residual verification
    "G3": dict(count=(40, 64), freq_count=16, lambda_first=0.5, lambda_last=0.3,
               x_lo=-2.0, x_hi=2.0, y_lo=-1.0, y_hi=3.0, candidates=24,
               nodes_data=256, nodes_check=128),
    "G4": dict(count=(32, 64), freq_count=24, lambda_first=0.4, lambda_last=0.2,
               x_lo=-1.0, x_hi=1.0, y_lo=-1.0, y_hi=1.0, candidates=24),
}

APERTURES = {
    "full": (0.0, 2.0 * math.pi),
    "limited": (math.pi / 6.0, 5.0 * math.pi / 6.0),
    "west": (5.0 * math.pi / 6.0, 7.0 * math.pi / 6.0),
    "south": (7.0 * math.pi / 6.0, 11.0 * math.pi / 6.0),
    "east": (-math.pi / 6.0, math.pi / 6.0),
}


# ---------------------------------------------------------------- config io

# TOML basic-string escapes: the quote, the backslash and every control
# character
_STRING_ESCAPES = {c: f"\\u{c:04X}" for c in (*range(0x20), 0x7F)} | {
    ord('"'): '\\"', ord("\\"): "\\\\", ord("\b"): "\\b", ord("\t"): "\\t",
    ord("\n"): "\\n", ord("\f"): "\\f", ord("\r"): "\\r",
}


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # "-0" would read back as the integer 0
        text = format(value, ".17g")
        return "-0.0" if text == "-0" else text
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return '"' + str(value).translate(_STRING_ESCAPES) + '"'


def parse_config_text(text, path="<config>"):
    """Parse TOML into {section: {key: value}}; every key lies in a section."""
    import tomllib     # only a config file needs it; preset runs never do

    try:
        tables = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for key, value in tables.items():
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: key {key!r} outside a section")
    return tables


_SECTION_ORDER = ["crack", "aperture", "frequencies", "noise", "grid", "imaging", "solver"]


def serialize_config(tables):
    """Canonical serializer: fixed section order, sorted keys."""
    lines = []
    ordered = [s for s in _SECTION_ORDER if s in tables]
    ordered += [s for s in sorted(tables) if s not in _SECTION_ORDER]
    for section in ordered:
        lines.append(f"[{section}]")
        for key in sorted(tables[section]):
            lines.append(f"{key} = {_format_value(tables[section][key])}")
        lines.append("")
    return "\n".join(lines)


def _key(section, key=None, default=MISSING):
    # a config field stored as [section] key; key defaults to the field name
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class ExperimentConfig:
    """One experiment. Each field states its config section, type and
    default once; a field without a default is a required key, and the
    dict-typed crack table is the whole [crack] section."""

    crack_table: dict = _key("crack")
    alpha: float = _key("aperture")
    beta: float = _key("aperture")
    count: int = _key("aperture")
    lambda_first: float = _key("frequencies")
    lambda_last: float = _key("frequencies")
    freq_count: int = _key("frequencies", "count")
    x_lo: float = _key("grid")
    x_hi: float = _key("grid")
    y_lo: float = _key("grid")
    y_hi: float = _key("grid")
    step: float = _key("grid", default=0.02)
    mode: str = _key("imaging", default="tm")
    candidates: int = _key("imaging", default=8)
    weight: str = _key("imaging", default="unit")
    threshold: float = _key("imaging", default=0.01)
    snr_db: float = _key("noise", default=None)
    seed: int = _key("noise", default=0)
    nodes_data: int = _key("solver", default=128)
    nodes_check: int = _key("solver", default=64)

    @property
    def bc(self):
        """The boundary condition the imaging mode images: Dirichlet (TM
        polarization) for tm, Neumann (TE) for te-search and te-plain."""
        return "dirichlet" if self.mode == "tm" else "neumann"

    @property
    def bounds(self):
        return (self.x_lo, self.x_hi, self.y_lo, self.y_hi)

    def validate(self):
        """Check every field a run needs but the crack table, which the run
        builds and checks before its first solve; returns self."""
        if self.nodes_data < 2 * self.nodes_check:
            raise ConfigError(
                "inverse-crime guard: data-generation nodes must be >= 2x the "
                f"verification nodes (got {self.nodes_data} vs {self.nodes_check})"
            )
        for nodes in (self.nodes_check, self.nodes_data):
            NystromConfig(nodes_per_arc=nodes)
        for build in (self.direction_set, self.frequency_set, self.grid,
                      self.steering_mode, self.weight_scheme):
            build()
        msr.check_threshold(self.threshold)
        if self.snr_db is not None:
            msr.NoiseSpec(self.snr_db, self.seed)
        return self

    def crack(self):
        return geometry.crack_from_config(self.crack_table)

    def direction_set(self):
        return msr.DirectionSet(self.alpha, self.beta, self.count)

    def frequency_set(self):
        return imaging.FrequencySet.from_wavelengths(
            self.lambda_first, self.lambda_last, self.freq_count
        )

    def grid(self):
        return imaging.SearchGrid(*self.bounds, self.step)

    def steering_mode(self):
        return imaging.SteeringMode(self.mode, self.candidates if self.mode == "te-search" else 0)

    def weight_scheme(self):
        return imaging.WeightScheme.parse(self.weight)

    def to_tables(self):
        """{section: {key: value}}; a run without noise has no [noise]
        section, so its seed is not written."""
        tables = {}
        for name, (section, key) in _KEYS.items():
            value = getattr(self, name)
            if key is None:
                tables[section] = dict(value)
            else:
                tables.setdefault(section, {})[key] = value
        if self.snr_db is None:
            del tables["noise"]
        return tables

    @classmethod
    def from_tables(cls, tables):
        """Typed read of every key; an unknown, mistyped or missing key raises
        ConfigError naming it."""
        known = set(_KEYS.values())
        for section, table in tables.items():
            unknown = [key for key in table if (section, key) not in known]
            if unknown and (section, None) not in known:
                raise ConfigError(f"unknown config key {section}.{unknown[0]}")
        values = {}
        for f in fields(cls):
            section, key = _KEYS[f.name]
            name = f"{section}.{key}" if key else f"[{section}]"
            where = tables if key is None else tables.get(section, {})
            value = where.get(key or section, MISSING)
            if value is not MISSING:
                values[f.name] = _typed(value, f.type, name)
            elif f.default is MISSING:
                raise ConfigError(f"missing config key {name}")
        return cls(**values).validate()


# (section, key) of each ExperimentConfig field; key None: the whole section
_KEYS = {
    f.name: (f.metadata["section"], None if f.type is dict else f.metadata["key"] or f.name)
    for f in fields(ExperimentConfig)
}


def _typed(value, kind, name):
    # an int is accepted for a float; a bool is neither
    if type(value) is kind or (kind is float and type(value) is int):
        try:
            return kind(value)
        except OverflowError:
            raise ConfigError(f"config key {name} is too large for a float") from None
    raise ConfigError(f"config key {name} must be {kind.__name__}, got {value!r}")


def _aperture_angles(name):
    """(alpha, beta) of a named aperture."""
    if name not in APERTURES:
        raise LookupNameError(f"unknown aperture {name!r}; valid: {sorted(APERTURES)}")
    return APERTURES[name]


def preset_config(spec, aperture="full", seed=ExperimentConfig.seed,
                  snr_db=ExperimentConfig.snr_db):
    """Named catalog preset, e.g. 'G1,TM' or 'Gamma3,TE'."""
    parts = [p.strip() for p in str(spec).split(",")]
    if len(parts) != 2:
        raise LookupNameError(f"preset must be '<crack>,<TM|TE>', got {spec!r}")
    crack_key = geometry.catalog_key(parts[0])
    polarization = parts[1].upper()
    if polarization not in ("TM", "TE"):
        raise LookupNameError(f"preset polarization must be TM or TE, got {parts[1]!r}")
    alpha, beta = _aperture_angles(aperture)
    row = dict(PRESETS[crack_key])
    row["count"] = row["count"][polarization == "TE"]
    if polarization == "TE":
        row["mode"] = "te-search"
    return ExperimentConfig(
        crack_table={"kind": "catalog", "name": crack_key},
        alpha=alpha, beta=beta, seed=seed, snr_db=snr_db, **row,
    ).validate()


# ------------------------------------------------------------- experiment

def verify_manifest(path):
    """Re-hash the artifacts recorded in a manifest; returns mismatches.
    Every artifact must be a plain file name in the manifest's directory:
    any other name raises MapParseError before a file is hashed, and only a
    regular file is opened (not a FIFO, a directory or a symbolic link)."""
    meta = imaging.load_metadata(path)
    base = Path(path).parent
    artifacts = {key[len("artifact.") : -len(".sha256")]: recorded
                 for key, recorded in meta.items()
                 if key.startswith("artifact.") and key.endswith(".sha256")}
    for name in artifacts:
        if Path(name).name != name or name in ("", ".."):
            raise MapParseError(f"{path}: artifact {name!r} is not a file name "
                                "in the manifest's directory")
    mismatches = []
    for name, recorded in artifacts.items():
        target = base / name
        try:
            mode = target.lstat().st_mode
        except FileNotFoundError:
            mismatches.append(f"{name}: missing")
            continue
        if not stat.S_ISREG(mode):
            mismatches.append(f"{name}: not a regular file")
        elif file_sha256(target) != recorded:
            mismatches.append(f"{name}: hash mismatch")
    return mismatches


class PipelineRun:
    """One run of forward -> MSR -> SVD -> imaging -> metrics in memory:
    the MSR matrices (noise added), their subspaces, the map, its metrics,
    the `verify` checks, the seconds and names of the stages completed.

    Building it builds the crack and, unless the run stops after the
    forward stage, checks that the grid covers the crack samples of the
    metrics, both before any solve. A stage that raises in `execute`
    leaves the record of the stages before it."""

    def __init__(self, cfg: ExperimentConfig, stop_after=None):
        self.cfg = cfg.validate()
        self.stop_after = stop_after
        self.crack = cfg.crack()
        if stop_after != "forward":
            analysis.crack_samples_on_grid(self.crack, cfg.grid())
        self.matrices, self.subspaces, self.image, self.metrics = [], None, None, None
        self.verify, self.timings, self.stages_completed = {}, {}, []

    def execute(self):
        """Run the stages up to `stop_after`; returns self."""
        cfg, crack = self.cfg, self.crack
        bc = BoundaryCondition.parse(cfg.bc)
        wavenumbers = cfg.frequency_set().wavenumbers()

        # solver verification at the check node count; data generation at
        # >= 2x that count (inverse-crime guard, validated above)
        t0 = time.perf_counter()
        if bc is BoundaryCondition.DIRICHLET:
            # the probe, and the discretization it holds, is dropped here
            defect = boundary_residual(
                solve_density(
                    crack,
                    PlaneWave(np.array([0.0, -1.0]), wavenumbers[0]),
                    bc,
                    NystromConfig(nodes_per_arc=cfg.nodes_check),
                )
            )
            self.verify["boundary_residual"] = defect
            if defect > 1e-6:
                raise SolverError(f"verification residual {defect:.3e} exceeds 1e-6")
        self.timings["verify"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        dirs = cfg.direction_set()
        data_cfg = NystromConfig(nodes_per_arc=cfg.nodes_data)
        # one discretization serves every wavenumber of the sweep
        disc = discretize([crack], bc, data_cfg)
        for f_idx, k in enumerate(wavenumbers):
            matrix = msr.assemble(crack, k, dirs, bc, data_cfg, disc)
            # entry (j, l) observes incidence theta_l at -theta_j, so
            # reciprocity makes the clean matrix symmetric for any
            # direction set and either boundary condition
            defect = matrix.symmetry_defect()
            self.verify["symmetry_defect"] = max(self.verify.get("symmetry_defect", 0.0), defect)
            if defect > 1e-6:
                raise SolverError(
                    f"assembled matrix violates reciprocal symmetry (defect {defect:.3e})"
                )
            if cfg.snr_db is not None:
                matrix = msr.add_noise(matrix, msr.NoiseSpec(cfg.snr_db, cfg.seed + f_idx))
            self.matrices.append(matrix)
        # its tables must not outlive the forward stage
        del disc
        self._completed("forward", t0)
        if self.stop_after == "forward":
            return self

        t0 = time.perf_counter()
        self.subspaces = [msr.svd_threshold(m, cfg.threshold) for m in self.matrices]
        self._completed("svd", t0)

        t0 = time.perf_counter()
        self.image = imaging.image_subspace(
            self.subspaces, cfg.grid(), cfg.steering_mode(), cfg.weight_scheme()
        )
        self._completed("imaging", t0)

        t0 = time.perf_counter()
        self.metrics = analysis.localization_metrics(self.image, crack)
        self._completed("metrics", t0)
        return self

    def _completed(self, stage, t0):
        self.timings[stage] = time.perf_counter() - t0
        self.stages_completed.append(stage)


def run_pipeline(cfg: ExperimentConfig, stop_after=None):
    """The pipeline in memory, writing no file; returns the PipelineRun."""
    return PipelineRun(cfg, stop_after).execute()


def run_experiment(cfg: ExperimentConfig, out_dir, stop_after=None):
    """The pipeline with artifact persistence; returns the executed
    PipelineRun, its writing and hashing timed as `timings["write"]`.

    A failed stage raises after writing the artifacts of the stages already
    completed and a manifest that records them."""
    run = PipelineRun(cfg, stop_after)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        run.execute()
    finally:
        t0 = time.perf_counter()
        artifacts = _save_artifacts(run, out)
        run.timings["write"] = time.perf_counter() - t0
        _write_manifest(run, artifacts, out / "manifest.txt")
    return run


def _write_manifest(run, artifacts, path):
    """Write `manifest.txt` from the run record and its artifacts' sha256."""
    meta = {"seed": run.cfg.seed, "backend": BACKEND, "version": __version__}
    for section, table in run.cfg.to_tables().items():
        for key, value in table.items():
            meta[f"config.{section}.{key}"] = _format_value(value)
    for name, digest in artifacts.items():
        meta[f"artifact.{name}.sha256"] = digest
    for stage, seconds in run.timings.items():
        meta[f"timing.{stage}_s"] = float(seconds)
    for check, value in run.verify.items():
        meta[f"verify.{check}"] = float(value)
    meta["stages"] = ",".join(run.stages_completed)
    imaging.save_metadata(meta, path)


def _save_artifacts(run, out):
    """Write the artifacts of the stages `run` completed; returns their
    sha256 by file name."""
    digests = {}

    def save(writer, value, name):
        writer(value, out / name)
        digests[name] = file_sha256(out / name)

    for f_idx, matrix in enumerate(run.matrices):
        save(msr.save_msr, matrix, f"msr_{f_idx:03d}.msr")
    if run.image is not None:
        meta = dict(run.image.provenance, threshold=run.cfg.threshold, seed=run.cfg.seed,
                    snr_db="none" if run.cfg.snr_db is None else run.cfg.snr_db)
        # so far the digests are those of the MSR files, the map's inputs
        meta.update({f"input.{name}.sha256": digest for name, digest in digests.items()})
        save(imaging.save_map, run.image, "map.csv")
        save(imaging.save_metadata, meta, "map.meta")
    if run.metrics is not None:
        save(imaging.save_metadata, run.metrics, "metrics.txt")
    return digests


# ----------------------------------------------------------------- render

def render_map(map_csv, out_path):
    """8-bit grayscale PGM (P5), min-max normalized, rows from max y down;
    a constant map renders as all-zero pixels."""
    image = imaging.load_map(map_csv)
    rows = image.as_rows()
    lo, hi = float(rows.min()), float(rows.max())
    if hi > lo:
        pixels = np.floor(255.0 * (rows - lo) / (hi - lo)).astype(np.uint8)
    else:
        pixels = np.zeros_like(rows, dtype=np.uint8)
    pixels = pixels[::-1, :]  # image convention: first row = largest y
    with open(out_path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode())
        fh.write(pixels.tobytes())


# ----------------------------------------------------------------- verify

def identity_suite(fast=False):
    """The analysis identity checks; returns a list of (name, ok, detail)."""
    rng = np.random.default_rng(123)
    results = []
    dirs = msr.DirectionSet.full_view(256).directions()
    cases = 20 if fast else 100
    worst_a = worst_b = 0.0
    tried = 0
    while tried < cases:
        k = rng.uniform(2.0, 30.0)
        x = rng.uniform(-1.5, 1.5, 2)
        r = float(np.hypot(*x))
        if k * r > 40.0 or r < 1e-6:
            continue
        tried += 1
        discrete = np.mean(np.exp(1j * k * (dirs @ x)))
        worst_a = max(worst_a, abs(discrete - kernels.j0v(np.array([k * r]))[0]))
        ang = rng.uniform(0.0, 2.0 * np.pi)
        xi = np.array([math.cos(ang), math.sin(ang)])
        discrete_b = np.mean((dirs @ xi) * np.exp(1j * k * (dirs @ x)))
        expected = 1j * ((x / r) @ xi) * kernels.j1v(np.array([k * r]))[0]
        worst_b = max(worst_b, abs(discrete_b - expected))
    results.append(("circle-average-j0", worst_a <= 1e-3, f"max defect {worst_a:.3e}"))
    results.append(("circle-average-j1", worst_b <= 1e-3, f"max defect {worst_b:.3e}"))

    # ring integrals against the internal adaptive quadrature
    alpha, beta = math.pi / 6.0, 5.0 * math.pi / 6.0
    worst = 0.0
    for _ in range(5 if fast else 20):
        k = rng.uniform(10.0, 21.0)
        x = rng.uniform(-1.0, 1.0, 2)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        xi = np.array([math.cos(ang), math.sin(ang)])
        res = analysis.ring_integrals(alpha, beta, k, x, xi)
        ref_p = analysis.adaptive_quad(
            lambda t: np.exp(1j * k * (math.cos(t) * x[0] + math.sin(t) * x[1])),
            alpha, beta, tol=1e-12,
        )
        ref_w = analysis.adaptive_quad(
            lambda t: (math.cos(t) * xi[0] + math.sin(t) * xi[1])
            * np.exp(1j * k * (math.cos(t) * x[0] + math.sin(t) * x[1])),
            alpha, beta, tol=1e-12,
        )
        worst = max(worst, abs(res.plain - ref_p), abs(res.weighted - ref_w))
    results.append(("ring-integrals", worst <= 1e-8, f"max defect {worst:.3e}"))

    full = analysis.ring_integrals(
        0.0, 2.0 * math.pi, 12.0, np.array([0.2, 0.1]), np.array([0.0, 1.0])
    )
    defect = abs(full.plain - 2.0 * math.pi * kernels.j0v(np.array([12.0 * math.hypot(0.2, 0.1)]))[0])
    results.append(
        ("ring-full-aperture", defect == 0.0 and full.tail_bound == 0.0, f"defect {defect:.3e}")
    )

    k1, kf = 2.0 * math.pi / 0.5, 2.0 * math.pi / 0.4
    band = analysis.kernel_predict(
        "TM_BAND", [0.3, 0.0], np.array([[0.0, 0.0]]),
        k_first=k1, k_last=kf, include_remainder=True,
    )
    ref = analysis.adaptive_quad(
        lambda k: kernels.j0v(np.array([k * 0.3]))[0] ** 2, k1, kf, tol=1e-12
    ).real / (kf - k1)
    results.append(("tm-band-kernel", abs(band - ref) <= 1e-6, f"defect {abs(band - ref):.3e}"))

    osc = analysis.halfline_oscillatory_j0(0.3, 1.0, t_max=500.0 if fast else 2000.0)
    defect = abs(osc - 1.0 / math.sqrt(1.0 - 0.09))
    results.append(("oscillatory-halfline", defect <= 1e-3, f"defect {defect:.3e}"))
    return results


# -------------------------------------------------------------------- CLI

def _add_common(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=str, help="config file path")
    source.add_argument("--preset", type=str, help="catalog preset, e.g. G1,TM")
    parser.add_argument("--aperture", type=str, default=None,
                        help=f"one of {sorted(APERTURES)} (presets: full)")
    parser.add_argument("--seed", type=int, default=None, help="noise seed (presets: 0)")
    parser.add_argument("--snr", type=float, default=None, help="noise SNR in dB")
    parser.add_argument("--out", type=str, required=True)
    parser.add_argument("--mode", type=str, default=None, help="tm | te-search | te-plain")
    parser.add_argument("--weight", type=str, default=None, help="unit | power:p | log")


def _config_from_args(args):
    if args.config:
        cfg = ExperimentConfig.from_tables(
            parse_config_text(Path(args.config).read_text(), args.config)
        )
    else:
        cfg = preset_config(args.preset)
    if args.aperture is not None:
        cfg.alpha, cfg.beta = _aperture_angles(args.aperture)
    if args.snr is not None:
        cfg.snr_db = args.snr
    if args.seed is not None:
        cfg.seed = args.seed
    if args.mode:
        cfg.mode = args.mode
    if args.weight:
        cfg.weight = args.weight
    return cfg.validate()


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, which exits 2 with one line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None):
    parser = _ArgumentParser(
        prog="arcmig",
        description="Far-field crack scattering and subspace-migration imaging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_forward = sub.add_parser("forward", help="synthesize and store MSR matrices")
    _add_common(p_forward)

    p_image = sub.add_parser("image", help="full pipeline: MSR, map, metrics")
    _add_common(p_image)

    p_verify = sub.add_parser("verify", help="run the analysis identity suites")
    p_verify.add_argument("--manifest", type=str, help="re-hash artifacts of a manifest")
    p_verify.add_argument("--fast", action="store_true")

    p_refine = sub.add_parser("refine", help="Gauss-Newton shape refinement")
    p_refine.add_argument("--out", type=str, required=True)
    p_refine.add_argument("--snr", type=float, default=None)
    p_refine.add_argument("--seed", type=int, default=0)

    p_render = sub.add_parser("render", help="render a map CSV to grayscale PGM")
    p_render.add_argument("--in", dest="input", type=str, required=True)
    p_render.add_argument("--out", type=str, required=True)

    try:
        return _dispatch(parser.parse_args(argv))
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _dispatch(args):
    if args.command == "forward":
        cfg = _config_from_args(args)
        run = run_experiment(cfg, args.out, stop_after="forward")
        print(f"wrote {len(run.matrices)} MSR files to {args.out}")
        return EXIT_OK

    if args.command == "image":
        cfg = _config_from_args(args)
        run = run_experiment(cfg, args.out)
        print(f"stages: {', '.join(run.stages_completed)}; artifacts in {args.out}")
        return EXIT_OK

    if args.command == "verify":
        if args.manifest:
            mismatches = verify_manifest(args.manifest)
            if mismatches:
                for item in mismatches:
                    print(f"FAIL manifest: {item}")
                return EXIT_NUMERIC
            print("PASS manifest: all artifact hashes match")
        ok = True
        for name, passed, detail in identity_suite(fast=args.fast):
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
            ok &= passed
        return EXIT_OK if ok else EXIT_NUMERIC

    if args.command == "refine":
        # --snr and --seed are checked, then --out made, before any work
        noise = None if args.snr is None else astuple(msr.NoiseSpec(args.snr, args.seed))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        initial, truth, data = refine.reference_scenario(noise=noise)
        trajectory = refine.newton_refine(initial, data)
        refine.save_trajectory(trajectory, out / "trajectory.csv")
        for state in trajectory:
            coeffs = " ".join(format(a, "+.4f") for a in state.coefficients)
            print(f"iter {state.iteration}: R = {state.residual_value:.6f}  a = {coeffs}")
        final = trajectory[-1].coefficients
        dev = float(np.max(np.abs(final - truth.coefficients)))
        print(f"max coefficient deviation from truth: {dev:.4f}")
        return EXIT_OK

    if args.command == "render":
        render_map(args.input, args.out)
        print(f"rendered {args.input} -> {args.out}")
        return EXIT_OK

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
