"""CLI tests: presets, config round trips, experiment artifacts, rendering,
manifest verification and exit codes."""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arcmig import analysis, cli, imaging, msr
from arcmig.errors import ConfigError, LookupNameError, SolverError
from arcmig.forward import NystromConfig


def test_preset_catalog_values():
    expectations = {
        ("G1", "TM"): (16, 10, 0.5, 0.4, (-1.0, 1.0, -1.0, 1.0)),
        ("G2", "TM"): (28, 12, 0.6, 0.3, (-2.0, 2.0, -2.0, 2.0)),
        ("G3", "TM"): (40, 16, 0.5, 0.3, (-2.0, 2.0, -1.0, 3.0)),
        ("G4", "TM"): (32, 24, 0.4, 0.2, (-1.0, 1.0, -1.0, 1.0)),
        ("G1", "TE"): (16, 10, 0.5, 0.4, (-1.0, 1.0, -1.0, 1.0)),
        ("G2", "TE"): (36, 12, 0.6, 0.3, (-2.0, 2.0, -2.0, 2.0)),
        ("G3", "TE"): (64, 16, 0.5, 0.3, (-2.0, 2.0, -1.0, 3.0)),
        ("G4", "TE"): (64, 24, 0.4, 0.2, (-1.0, 1.0, -1.0, 1.0)),
    }
    for (crack, pol), (n, f, l1, lf, bounds) in expectations.items():
        cfg = cli.preset_config(f"{crack},{pol}")
        assert cfg.count == n
        assert cfg.freq_count == f
        assert cfg.lambda_first == l1
        assert cfg.lambda_last == lf
        assert cfg.bounds == bounds
        assert cfg.step == 0.02
        assert cfg.bc == ("dirichlet" if pol == "TM" else "neumann")
    assert cli.preset_config("G1,TE").candidates == 8
    assert cli.preset_config("G3,TE").candidates == 24
    # unicode crack names are accepted
    assert cli.preset_config("Γ2,TM").count == 28


def test_gamma3_auxiliary_apertures():
    west = cli.preset_config("G3,TM", aperture="west")
    assert west.alpha == pytest.approx(5.0 * np.pi / 6.0)
    assert west.beta == pytest.approx(7.0 * np.pi / 6.0)
    south = cli.preset_config("G3,TM", aperture="south")
    assert south.alpha == pytest.approx(7.0 * np.pi / 6.0)
    east = cli.preset_config("G3,TM", aperture="east")
    assert east.alpha == pytest.approx(-np.pi / 6.0)
    assert east.beta == pytest.approx(np.pi / 6.0)


def test_unknown_preset_raises():
    with pytest.raises(LookupNameError):
        cli.preset_config("G9,TM")
    with pytest.raises(LookupNameError):
        cli.preset_config("G1,TEM")
    with pytest.raises(LookupNameError):
        cli.preset_config("G1,TM", aperture="sideways")


def test_config_round_trip_is_byte_identical():
    cfg = cli.preset_config("G2,TM", aperture="limited", seed=7, snr_db=15.0)
    text = cli.serialize_config(cfg.to_tables())
    reparsed = cli.parse_config_text(text)
    assert cli.serialize_config(reparsed) == text
    rebuilt = cli.ExperimentConfig.from_tables(reparsed)
    assert cli.serialize_config(rebuilt.to_tables()) == text


def test_config_strings_round_trip_with_escapes():
    # a crack table keeps keys the crack ignores, so any string reaches
    # the file: quotes, backslashes and control characters are escaped
    note = 'a"b\\c\nd\te\x00\x1f\x7f \u00e9'
    tables = cli.preset_config("G1,TM").to_tables()
    tables["crack"]["note"] = note
    text = cli.serialize_config(tables)
    reparsed = cli.parse_config_text(text)
    assert reparsed["crack"]["note"] == note
    assert cli.serialize_config(reparsed) == text


def _g1_config_text(section=None, key=None, value=None):
    """The G1,TM preset's config text, with one key set (value not None)
    or removed (value None)."""
    tables = cli.preset_config("G1,TM", seed=9, snr_db=15.0).to_tables()
    if value is None:
        tables.get(section, {}).pop(key, None)
    else:
        tables[section][key] = value
    return cli.serialize_config(tables)


def test_config_parser_errors():
    with pytest.raises(ConfigError):
        cli.parse_config_text("key = 1\n")  # key outside a section
    with pytest.raises(ConfigError):
        cli.parse_config_text("[a]\nbroken line\n")
    with pytest.raises(ConfigError):
        cli.parse_config_text("[a]\nx = what\n")
    # TOML 1.0: a "#" in a quoted string is no comment; a repeated key or
    # section, and a float spelling only Python reads, are errors
    assert cli.parse_config_text('[crack]\nname = "G#1"  # note\n') == {"crack": {"name": "G#1"}}
    for text in ("[grid]\nstep = 0.02\nstep = 0.5\n",
                 "[grid]\nstep = 0.02\n[grid]\nx_lo = 0.5\n",
                 "[grid]\nstep = .5\n"):
        with pytest.raises(ConfigError, match=r"^exp\.cfg: .*line"):
            cli.parse_config_text(text, "exp.cfg")
    # typed reads: each error names its section.key
    for section, key, value, message in [
        ("grid", "y_hi", "abc", "grid.y_hi must be float"),
        ("grid", "y_hi", [1, 2], "grid.y_hi must be float"),
        ("aperture", "count", 16.7, "aperture.count must be int"),
        ("imaging", "candidates", True, "imaging.candidates must be int"),
        ("imaging", "treshold", 0.02, "unknown config key imaging.treshold"),
        ("aperture", "alpha", None, "missing config key aperture.alpha"),
        ("imaging", "weight", "power:x", "unknown weight scheme"),
        ("imaging", "bc", "dirichlet", "unknown config key imaging.bc"),
    ]:
        tables = cli.parse_config_text(_g1_config_text(section, key, value))
        with pytest.raises(ConfigError, match=message):
            cli.ExperimentConfig.from_tables(tables)
    # an int is accepted for a float
    tables = cli.parse_config_text(_g1_config_text("grid", "y_hi", 1))
    assert cli.ExperimentConfig.from_tables(tables).y_hi == 1.0


def test_inverse_crime_guard():
    cfg = cli.preset_config("G1,TM")
    cfg.nodes_data = 64
    cfg.nodes_check = 64
    with pytest.raises(ConfigError):
        cfg.validate()


def test_render_rules(tmp_path):
    grid = imaging.SearchGrid(0.0, 0.1, 0.0, 0.1, 0.1)
    image = imaging.ImageMap(grid=grid, values=np.array([0.0, 1.0, 0.5, 0.25]))
    csv = tmp_path / "m.csv"
    imaging.save_map(image, csv)
    out = tmp_path / "m.pgm"
    cli.render_map(csv, out)
    raw = out.read_bytes()
    header, pixels = raw.split(b"255\n", 1)
    assert header == b"P5\n2 2\n"
    # rows from max y down: top row holds values (0.5, 0.25), bottom (0, 1)
    assert list(pixels) == [127, 63, 0, 255]
    # constant map renders as all-zero pixels
    flat = imaging.ImageMap(grid=grid, values=np.full(4, 3.7))
    imaging.save_map(flat, csv)
    cli.render_map(csv, out)
    assert list(out.read_bytes().split(b"255\n", 1)[1]) == [0, 0, 0, 0]
    # determinism
    cli.render_map(csv, tmp_path / "m2.pgm")
    assert out.read_bytes() == (tmp_path / "m2.pgm").read_bytes()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = cli.preset_config("G1,TM", seed=5, snr_db=15.0)
    cfg.step = 0.1           # coarse grid keeps the smoke test quick
    cfg.freq_count = 3
    run = cli.run_experiment(cfg, out)
    return cfg, out, run


def test_run_experiment_artifacts(small_run):
    cfg, out, run = small_run
    assert (out / "manifest.txt").exists()
    assert (out / "map.csv").exists()
    assert (out / "map.meta").exists()
    assert (out / "metrics.txt").exists()
    for f_idx in range(cfg.freq_count):
        assert (out / f"msr_{f_idx:03d}.msr").exists()
    assert run.stages_completed == ["forward", "svd", "imaging", "metrics"]
    metrics = imaging.load_metadata(out / "metrics.txt")
    assert "contrast" in metrics and "argmax_x" in metrics
    meta = imaging.load_metadata(out / "map.meta")
    assert meta["functional"] == "subspace-tm"
    assert "input.msr_000.msr.sha256" in meta
    manifest_meta = imaging.load_metadata(out / "manifest.txt")
    assert float(manifest_meta["verify.boundary_residual"]) < 1e-6


def test_te_run_records_symmetry_defect(tmp_path):
    # full-view Neumann runs check every clean MSR matrix for reciprocal
    # symmetry and record the largest defect over the frequencies
    cfg = cli.preset_config("G1,TE", seed=5, snr_db=15.0)
    cfg.freq_count = 3
    run = cli.run_experiment(cfg, tmp_path, stop_after="forward")
    recorded = float(imaging.load_metadata(tmp_path / "manifest.txt")["verify.symmetry_defect"])
    assert recorded == run.verify["symmetry_defect"]
    assert recorded < 1e-6
    nystrom = NystromConfig(nodes_per_arc=cfg.nodes_data)
    defects = [
        msr.assemble(cfg.crack(), k, cfg.direction_set(), "neumann", nystrom).symmetry_defect()
        for k in cfg.frequency_set().wavenumbers()
    ]
    assert recorded == max(defects)


@pytest.mark.parametrize("preset, aperture", [("G1,TM", "full"), ("G1,TE", "limited")])
def test_every_run_checks_reciprocity(preset, aperture, tmp_path):
    # entry (j, l) observes theta_l at -theta_j, so the clean matrix is
    # symmetric for any direction set and both boundary conditions
    cfg = cli.preset_config(preset, aperture=aperture, seed=5, snr_db=15.0)
    cfg.freq_count = 3
    run = cli.run_experiment(cfg, tmp_path, stop_after="forward")
    recorded = float(imaging.load_metadata(tmp_path / "manifest.txt")["verify.symmetry_defect"])
    assert recorded == run.verify["symmetry_defect"]
    nystrom = NystromConfig(nodes_per_arc=cfg.nodes_data)
    defects = [
        msr.assemble(cfg.crack(), k, cfg.direction_set(), cfg.bc, nystrom).symmetry_defect()
        for k in cfg.frequency_set().wavenumbers()
    ]
    assert recorded == max(defects)
    assert recorded < 1e-6


def test_reciprocity_violation_is_a_numeric_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(msr.MsrMatrix, "symmetry_defect", lambda self: 2e-6)
    cfg = cli.preset_config("G1,TM", seed=1)
    cfg.freq_count = 2
    with pytest.raises(SolverError, match="reciprocal symmetry"):
        cli.run_experiment(cfg, tmp_path / "run", stop_after="forward")
    code = cli.main(["forward", "--preset", "G1,TM", "--out", str(tmp_path / "cli")])
    assert code == 3


def test_run_experiment_deterministic(small_run, tmp_path):
    cfg, out, _ = small_run
    cli.run_experiment(cfg, tmp_path / "again")
    assert (out / "map.csv").read_bytes() == (tmp_path / "again" / "map.csv").read_bytes()
    for f_idx in range(cfg.freq_count):
        name = f"msr_{f_idx:03d}.msr"
        assert (out / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


def test_pipeline_record_matches_the_artifacts(small_run, tmp_path):
    # run_pipeline holds in memory what run_experiment writes
    cfg, out, _ = small_run
    run = cli.run_pipeline(cfg)
    assert run.stages_completed == ["forward", "svd", "imaging", "metrics"]
    imaging.save_map(run.image, tmp_path / "map.csv")
    assert (tmp_path / "map.csv").read_bytes() == (out / "map.csv").read_bytes()
    assert len(run.matrices) == cfg.freq_count
    for f_idx, matrix in enumerate(run.matrices):
        back = msr.load_msr(out / f"msr_{f_idx:03d}.msr")
        assert np.array_equal(matrix.entries, back.entries)
    imaging.save_metadata(run.metrics, tmp_path / "metrics.txt")
    assert (tmp_path / "metrics.txt").read_bytes() == (out / "metrics.txt").read_bytes()
    forward = cli.run_pipeline(cfg, stop_after="forward")
    assert forward.stages_completed == ["forward"] and len(forward.matrices) == cfg.freq_count
    assert forward.subspaces is None and forward.image is None and forward.metrics is None


def test_saved_msr_files_load(small_run):
    cfg, out, _ = small_run
    back = msr.load_msr(out / "msr_000.msr")
    assert back.count == cfg.count
    assert back.noise.snr_db == 15.0
    assert back.noise.seed == cfg.seed


def test_manifest_tamper_detection(small_run, tmp_path):
    cfg, out, _ = small_run
    assert cli.verify_manifest(out / "manifest.txt") == []
    target = out / "map.csv"
    original = target.read_text()
    try:
        target.write_text(original.replace("value", "value") + "tampered\n")
        mismatches = cli.verify_manifest(out / "manifest.txt")
        assert any("map.csv" in m for m in mismatches)
    finally:
        target.write_text(original)
    assert cli.verify_manifest(out / "manifest.txt") == []


def test_stage_failure_still_writes_manifest(tmp_path, monkeypatch):
    # an aborting stage leaves a manifest recording what completed
    cfg = cli.preset_config("G1,TM", seed=1)
    cfg.step = 0.5
    cfg.freq_count = 2

    def boom(*args, **kwargs):
        raise SolverError("synthetic SVD failure")

    monkeypatch.setattr(cli.msr, "svd_threshold", boom)
    with pytest.raises(SolverError):
        cli.run_experiment(cfg, tmp_path)
    meta = imaging.load_metadata(tmp_path / "manifest.txt")
    assert meta["stages"] == "forward"
    # the forward stage's MSR files are written and hashed, no map
    assert sorted(p.name for p in tmp_path.glob("msr_*.msr")) == ["msr_000.msr", "msr_001.msr"]
    assert cli.verify_manifest(tmp_path / "manifest.txt") == []
    assert not (tmp_path / "map.csv").exists()


def test_cli_forward_and_render(tmp_path):
    out = tmp_path / "fwd"
    code = cli.main(
        ["forward", "--preset", "G1,TM", "--out", str(out), "--seed", "3", "--snr", "15"]
    )
    assert code == 0
    # takes the coarse default grid? forward stops before imaging, so only
    # MSR files and the manifest exist
    assert (out / "msr_000.msr").exists()
    assert not (out / "map.csv").exists()


def test_cli_render_subcommand(tmp_path):
    grid = imaging.SearchGrid(0.0, 0.2, 0.0, 0.2, 0.1)
    image = imaging.ImageMap(grid=grid, values=np.linspace(0.0, 1.0, 9))
    csv = tmp_path / "m.csv"
    imaging.save_map(image, csv)
    code = cli.main(["render", "--in", str(csv), "--out", str(tmp_path / "m.pgm")])
    assert code == 0
    assert (tmp_path / "m.pgm").read_bytes().startswith(b"P5\n3 3\n255\n")


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    # config error: unknown preset
    assert cli.main(["image", "--preset", "G9,TM", "--out", str(tmp_path)]) == 2
    # config error: missing preset/config, or both given
    assert cli.main(["image", "--out", str(tmp_path)]) == 2
    both = ["--preset", "G1,TM", "--config", str(tmp_path / "exp.cfg")]
    assert cli.main(["image", *both, "--out", str(tmp_path)]) == 2
    # config error: mistyped keys, a bad weight, missing input files; each
    # prints one line on stderr
    capsys.readouterr()
    bad_cfg = tmp_path / "bad.cfg"
    for value in ("abc", [1, 2]):
        bad_cfg.write_text(_g1_config_text("grid", "y_hi", value))
        assert cli.main(["image", "--config", str(bad_cfg), "--out", str(tmp_path)]) == 2
    argv = ["image", "--preset", "G1,TM", "--weight", "power:x", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    missing = str(tmp_path / "missing")
    assert cli.main(["image", "--config", missing, "--out", str(tmp_path)]) == 2
    assert cli.main(["render", "--in", missing, "--out", str(tmp_path / "x.pgm")]) == 2
    assert cli.main(["verify", "--manifest", missing]) == 2
    # a directory where a file should be
    ok_map = tmp_path / "ok.csv"
    ok_map.write_text("x,y,value\n0,0,1\n1,0,1\n0,1,1\n1,1,1\n")
    assert cli.main(["image", "--config", str(tmp_path), "--out", str(tmp_path / "d")]) == 2
    assert not (tmp_path / "d").exists()
    assert cli.main(["verify", "--manifest", str(tmp_path)]) == 2
    assert cli.main(["render", "--in", str(ok_map), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 9 and all(line.startswith("config error: ") for line in lines)
    # numeric failure surfaces as exit code 3
    def boom(*args, **kwargs):
        raise SolverError("synthetic blow-up", condition=1e99)

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["image", "--preset", "G1,TM", "--out", str(tmp_path)]) == 3
    # parse error on a malformed map CSV
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,map\n")
    assert cli.main(["render", "--in", str(bad), "--out", str(tmp_path / "x.pgm")]) == 2
    # the error names the line that breaks the map, once
    bad.write_text("x,y,value\n0,0,1\n1,0\n")
    capsys.readouterr()
    assert cli.main(["render", "--in", str(bad), "--out", str(tmp_path / "x.pgm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("line 3") == 1


def test_out_that_names_a_file_exits_2(tmp_path, capsys, monkeypatch):
    # a file where the output directory, or one of its parents, should go
    # is a config error for every command that makes the directory, before
    # any of its work
    def no_work(*args, **kwargs):
        raise AssertionError("refine started its work before making --out")

    monkeypatch.setattr(cli.refine, "reference_scenario", no_work)
    taken = tmp_path / "taken"
    taken.write_text("")
    capsys.readouterr()
    for argv in (["image", "--preset", "G1,TM", "--out", str(taken)],
                 ["forward", "--preset", "G1,TM", "--out", str(taken)],
                 ["refine", "--out", str(taken)],
                 ["image", "--preset", "G1,TM", "--out", str(taken / "run")]):
        assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4 and all(line.startswith("config error:") for line in lines)
    assert taken.read_text() == ""
    # refine checks --snr and --seed before it makes --out
    fresh = tmp_path / "fresh"
    for noise in (["--snr", "nan"], ["--snr", "15", "--seed", "-1"]):
        assert cli.main(["refine", *noise, "--out", str(fresh)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not fresh.exists()


def test_cli_image_from_config_file(tmp_path):
    cfg = cli.preset_config("G1,TM", seed=9, snr_db=15.0)
    cfg.step = 0.25
    cfg.freq_count = 2
    path = tmp_path / "exp.cfg"
    path.write_text(cli.serialize_config(cfg.to_tables()))
    out = tmp_path / "run"
    assert cli.main(["image", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "map.csv").exists()
    meta = imaging.load_metadata(out / "manifest.txt")
    assert meta["config.noise.seed"] == "9"


@pytest.mark.parametrize("section, key, value", [("grid", "step", 5), ("imaging", "threshold", 1.5)])
def test_bad_config_fails_before_the_first_solve(section, key, value, tmp_path, monkeypatch):
    # validate() checks every field but the crack, and builds no crack;
    # the run builds the crack once, before its first solve
    path = tmp_path / "exp.cfg"
    path.write_text(_g1_config_text(section, key, value))
    assert cli.main(["image", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert not list(tmp_path.glob("**/msr_*.msr"))
    built = []
    monkeypatch.setattr(cli.geometry, "crack_from_config", lambda table: built.append(table))
    cli.preset_config("G3,TE").validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig.from_tables(cli.parse_config_text(path.read_text()))
    assert built == []


@pytest.mark.parametrize("coefficients", ["[0.1, nan]", '["a", "b"]', '"abc"', "true", "{ a = 1.0 }"])
def test_bad_chebyshev_crack_exits_2_before_any_output(coefficients, tmp_path, capsys):
    tables = cli.preset_config("G1,TM").to_tables()
    del tables["crack"]
    path = tmp_path / "exp.cfg"
    path.write_text(f'[crack]\nkind = "chebyshev-graph"\ncoefficients = {coefficients}\n\n'
                    + cli.serialize_config(tables))
    capsys.readouterr()
    for command in ("forward", "image"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("config error:") for line in lines)
    assert not (tmp_path / "run").exists()


def test_integer_too_large_for_a_float_exits_2_before_any_output(tmp_path, capsys):
    # TOML integers are unbounded: 10^400 has no float
    step = tmp_path / "step.cfg"
    step.write_text(_g1_config_text("grid", "step", 10**400))
    tables = cli.preset_config("G1,TM").to_tables()
    del tables["crack"]
    coefficients = tmp_path / "coefficients.cfg"
    coefficients.write_text(f'[crack]\nkind = "chebyshev-graph"\ncoefficients = [0.1, {10**400}]\n\n'
                            + cli.serialize_config(tables))
    capsys.readouterr()
    for path in (step, coefficients):
        assert cli.main(["image", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("config error:") for line in lines)
    assert "grid.step" in lines[0] and "too large" in lines[1]
    assert not (tmp_path / "run").exists()


def test_grid_step_too_small_for_its_extent_exits_2_before_any_output(tmp_path, capsys):
    # the step's point count is past the float range
    path = tmp_path / "exp.cfg"
    path.write_text(_g1_config_text("grid", "step", 5e-324))
    capsys.readouterr()
    assert cli.main(["image", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:") and "point count" in lines[0]
    assert not (tmp_path / "run").exists()


def test_grid_that_misses_the_crack_fails_before_the_first_solve(tmp_path, capsys):
    # G1 spans x in [-0.5, 0.5]: a grid from x = 0 misses half of it, which
    # the metrics stage refuses, so image refuses it before any solve
    path = tmp_path / "exp.cfg"
    path.write_text(_g1_config_text("grid", "x_lo", 0.0))
    capsys.readouterr()
    assert cli.main(["image", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert "outside the grid" in lines[0]
    assert not list(tmp_path.glob("**/msr_*.msr"))
    # forward computes no metrics, so it takes such a grid
    assert cli.main(["forward", "--config", str(path), "--out", str(tmp_path / "fwd")]) == 0
    assert list((tmp_path / "fwd").glob("msr_*.msr"))


def test_cli_seed_zero_overrides_config(tmp_path, monkeypatch):
    seeds = []

    def record(cfg, out_dir, stop_after=None):
        seeds.append(cfg.seed)
        return cli.PipelineRun(cfg, stop_after)

    monkeypatch.setattr(cli, "run_experiment", record)
    path = tmp_path / "exp.cfg"
    cfg = cli.preset_config("G1,TM", seed=5, snr_db=15.0)
    path.write_text(cli.serialize_config(cfg.to_tables()))
    assert cli.main(["image", "--config", str(path), "--seed", "0", "--out", str(tmp_path)]) == 0
    assert cli.main(["image", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert cli.main(["image", "--preset", "G1,TM", "--out", str(tmp_path)]) == 0
    assert seeds == [0, 5, 0]     # --seed 0 wins; the file's seed; the preset default


def test_cli_aperture_and_mode_apply_to_either_source(tmp_path, monkeypatch, capsys):
    runs = []

    def record(cfg, out_dir, stop_after=None):
        runs.append((cfg.alpha, cfg.beta, cfg.bc, cfg.mode))
        return cli.PipelineRun(cfg, stop_after)

    monkeypatch.setattr(cli, "run_experiment", record)
    path = tmp_path / "exp.cfg"
    path.write_text(_g1_config_text())
    config, out = ["--config", str(path)], ["--out", str(tmp_path)]
    assert cli.main(["image", *config, "--aperture", "limited", *out]) == 0
    assert cli.main(["image", "--preset", "G1,TM", "--aperture", "limited", *out]) == 0
    assert cli.main(["image", *config, "--mode", "te-plain", *out]) == 0
    assert cli.main(["image", "--preset", "G1,TE", "--mode", "tm", *out]) == 0
    limited, full = (math.pi / 6.0, 5.0 * math.pi / 6.0), (0.0, 2.0 * math.pi)
    assert runs == [
        (*limited, "dirichlet", "tm"),
        (*limited, "dirichlet", "tm"),
        (*full, "neumann", "te-plain"),    # bc follows --mode both ways
        (*full, "dirichlet", "tm"),
    ]
    # an unknown aperture name, or a file that names imaging.bc, exits 2
    capsys.readouterr()
    assert cli.main(["image", *config, "--aperture", "sideways", *out]) == 2
    path.write_text(_g1_config_text("imaging", "bc", "dirichlet"))
    assert cli.main(["image", *config, *out]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and "unknown aperture" in lines[0] and "imaging.bc" in lines[1]
    assert len(runs) == 4


def test_bc_follows_the_imaging_mode(tmp_path, monkeypatch):
    runs = []

    def record(cfg, out_dir, stop_after=None):
        runs.append((cfg.mode, cfg.bc))
        return cli.PipelineRun(cfg, stop_after)

    monkeypatch.setattr(cli, "run_experiment", record)
    expected = [("tm", "dirichlet"), ("te-search", "neumann"), ("te-plain", "neumann")]
    cfg = cli.preset_config("G1,TM")
    for mode, bc in expected:
        cfg.mode = mode
        assert cfg.validate().bc == bc
        assert "bc" not in cfg.to_tables()["imaging"]
        for preset in ("G1,TM", "G1,TE"):
            argv = ["image", "--preset", preset, "--mode", mode, "--out", str(tmp_path)]
            assert cli.main(argv) == 0
    assert runs == [pair for pair in expected for _ in range(2)]
    with pytest.raises(AttributeError):
        cfg.bc = "dirichlet"


def test_cli_verify_fast():
    assert cli.main(["verify", "--fast"]) == 0


def test_cli_verify_manifest(small_run, tmp_path, capsys):
    # a copy of the run, so that editing its artifacts leaves the fixture's
    _, out, _ = small_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    argv = ["verify", "--manifest", str(run / "manifest.txt"), "--fast"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "PASS manifest: all artifact hashes match"
    original = (run / "map.csv").read_bytes()
    (run / "map.csv").write_bytes(original + b"0,0,0\n")
    assert cli.main(argv) == 3
    assert capsys.readouterr().out.splitlines() == ["FAIL manifest: map.csv: hash mismatch"]
    (run / "map.csv").write_bytes(original)
    (run / "msr_000.msr").unlink()
    assert cli.main(argv) == 3
    assert capsys.readouterr().out.splitlines() == ["FAIL manifest: msr_000.msr: missing"]


def test_cli_verify_manifest_reads_only_its_directory(tmp_path, monkeypatch, capsys):
    # an artifact name that leaves the manifest's directory exits 2 before
    # any file, the plain names before it included, is hashed
    run, outside = tmp_path / "run", tmp_path / "outside.txt"
    run.mkdir()
    outside.write_text("x\n")
    (run / "map.csv").write_text("x\n")
    hashed = []
    monkeypatch.setattr(cli, "file_sha256", lambda path: hashed.append(path) or "0")
    for name in ("../outside.txt", str(outside)):
        manifest = run / "manifest.txt"
        manifest.write_text(f"artifact.map.csv.sha256 = 0\nartifact.{name}.sha256 = 0\n")
        capsys.readouterr()
        assert cli.main(["verify", "--manifest", str(manifest), "--fast"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert hashed == []


def test_cli_verify_manifest_hashes_only_regular_files(tmp_path, monkeypatch, capsys):
    # a FIFO would block the hash forever and a link leaves the directory:
    # both are reported without being opened
    run, outside = tmp_path / "run", tmp_path / "outside.txt"
    run.mkdir()
    outside.write_text("x\n")
    (run / "map.csv").write_text("x\n")
    os.mkfifo(run / "fifo")
    (run / "link").symlink_to(outside)

    def spy(path):
        assert Path(path).name == "map.csv", f"hashed {path}"
        return "0"

    monkeypatch.setattr(cli, "file_sha256", spy)
    manifest = run / "manifest.txt"
    manifest.write_text("".join(f"artifact.{name}.sha256 = 0\n"
                                for name in ("map.csv", "fifo", "link")))
    capsys.readouterr()
    assert cli.main(["verify", "--manifest", str(manifest), "--fast"]) == 3
    assert capsys.readouterr().out.splitlines() == ["FAIL manifest: fifo: not a regular file",
                                                    "FAIL manifest: link: not a regular file"]


def test_cli_refine(tmp_path):
    code = cli.main(["refine", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "iter,a0,a1,a2,a3,a4,a5,R"
    assert len(lines) >= 3


def test_endpoint_top_fractions_match_per_endpoint_rule():
    # the rule written out per endpoint, grid points and percentile retaken
    # each time; G4's four endpoints, one of them moved off the grid
    from arcmig import geometry

    g4 = geometry.catalog("G4")
    far = geometry.line_segment([0.3, 0.1], [5.0, 5.0])
    crack = geometry.Crack(list(g4.components) + list(far.components))
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.05)
    rng = np.random.default_rng(5)
    for values in (rng.random(grid.nx * grid.ny), np.zeros(grid.nx * grid.ny)):
        image = imaging.ImageMap(grid, values)
        expected = {}
        for c_idx, arc in enumerate(crack.components):
            for label, t_end in (("lo", -1.0), ("hi", 1.0)):
                end = np.atleast_2d(arc.points(np.array([t_end])))[0]
                pts = grid.points()
                near = np.hypot(pts[:, 0] - end[0], pts[:, 1] - end[1]) <= 2.0 * grid.h + 1e-12
                expected[f"endpoint_{c_idx}_{label}_top5"] = bool(
                    near.any() and np.max(values[near]) >= np.quantile(values, 0.95)
                )
        assert analysis._endpoint_top_fractions(image, crack) == expected
        assert expected["endpoint_2_hi_top5"] is False
    assert list(expected.values()) == [True] * 5 + [False]


def test_image_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs every run its import; np.unique and np.quantile import it
    script = ("import sys\nfrom arcmig import cli\n"
              f"assert cli.main(['image', '--preset', 'G1,TM', '--out', {str(tmp_path)!r}]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"
