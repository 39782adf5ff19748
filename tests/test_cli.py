"""CLI tests: presets, config round trips, experiment artifacts, rendering,
manifest verification and exit codes."""

import numpy as np
import pytest

from arcmig import cli, imaging, msr
from arcmig.errors import ConfigError, LookupNameError, SolverError


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


def test_config_parser_errors():
    with pytest.raises(ConfigError):
        cli.parse_config_text("key = 1\n")  # key outside a section
    with pytest.raises(ConfigError):
        cli.parse_config_text("[a]\nbroken line\n")
    with pytest.raises(ConfigError):
        cli.parse_config_text("[a]\nx = what\n")


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
    manifest = cli.run_experiment(cfg, out)
    return cfg, out, manifest


def test_run_experiment_artifacts(small_run):
    cfg, out, manifest = small_run
    assert (out / "manifest.txt").exists()
    assert (out / "map.csv").exists()
    assert (out / "map.meta").exists()
    assert (out / "metrics.txt").exists()
    for f_idx in range(cfg.freq_count):
        assert (out / f"msr_{f_idx:03d}.msr").exists()
    assert manifest.stages_completed == ["forward", "svd", "imaging", "metrics"]
    metrics = imaging.load_metadata(out / "metrics.txt")
    assert "contrast" in metrics and "argmax_x" in metrics
    meta = imaging.load_metadata(out / "map.meta")
    assert meta["functional"] == "subspace-tm"
    assert "input.msr_000.msr.sha256" in meta


def test_run_experiment_deterministic(small_run, tmp_path):
    cfg, out, _ = small_run
    cli.run_experiment(cfg, tmp_path / "again")
    assert (out / "map.csv").read_bytes() == (tmp_path / "again" / "map.csv").read_bytes()
    for f_idx in range(cfg.freq_count):
        name = f"msr_{f_idx:03d}.msr"
        assert (out / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


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


def test_cli_exit_codes(tmp_path, monkeypatch):
    # config error: unknown preset
    assert cli.main(["image", "--preset", "G9,TM", "--out", str(tmp_path)]) == 2
    # config error: missing preset/config
    assert cli.main(["image", "--out", str(tmp_path)]) == 2
    # numeric failure surfaces as exit code 3
    def boom(*args, **kwargs):
        raise SolverError("synthetic blow-up", condition=1e99)

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["image", "--preset", "G1,TM", "--out", str(tmp_path)]) == 3
    # parse error on a malformed map CSV
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,map\n")
    assert cli.main(["render", "--in", str(bad), "--out", str(tmp_path / "x.pgm")]) == 2


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


def test_cli_seed_zero_overrides_config(tmp_path, monkeypatch):
    seeds = []

    def record(cfg, out_dir, stop_after=None):
        seeds.append(cfg.seed)
        return cli.RunManifest(config_tables={})

    monkeypatch.setattr(cli, "run_experiment", record)
    path = tmp_path / "exp.cfg"
    cfg = cli.preset_config("G1,TM", seed=5, snr_db=15.0)
    path.write_text(cli.serialize_config(cfg.to_tables()))
    assert cli.main(["image", "--config", str(path), "--seed", "0", "--out", str(tmp_path)]) == 0
    assert cli.main(["image", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert cli.main(["image", "--preset", "G1,TM", "--out", str(tmp_path)]) == 0
    assert seeds == [0, 5, 0]     # --seed 0 wins; the file's seed; the preset default


def test_cli_verify_fast():
    assert cli.main(["verify", "--fast"]) == 0


def test_cli_refine(tmp_path):
    code = cli.main(["refine", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "iter,a0,a1,a2,a3,a4,a5,R"
    assert len(lines) >= 3
