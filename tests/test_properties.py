"""Property tests: byte round trips of the config, MSR and map formats,
grid-step inference of `load_map`, and unit steering vectors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcmig import cli, imaging, msr
from arcmig.errors import ConfigError, DegenerateSteeringError
from arcmig.forward import BoundaryCondition

# the config subset has no escapes: names and strings use the characters
# the program writes (crack names, modes, weights like "power:2")
_NAME = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=10)
_STRING = st.text("ABCGTMabcdeghilmnoprstuw0123456789:._-", max_size=10)
_SCALAR = st.one_of(st.booleans(), st.integers(), st.floats(), _STRING)
_VALUE = st.one_of(_SCALAR, st.lists(st.one_of(st.integers(), st.floats()), max_size=6))
_SECTIONS = st.sampled_from(cli._SECTION_ORDER + ["extra", "zz_custom"])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_SECTIONS, st.dictionaries(_NAME, _VALUE, max_size=6), max_size=5))
@example({"grid": {"x_lo": -0.0}, "crack": {"coefficients": [0.25, -0.0]}})
def test_config_parse_serialize_round_trip(tables):
    text = cli.serialize_config(tables)
    assert cli.serialize_config(cli.parse_config_text(text)) == text


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["G1,TM", "G2,TE", "G3,TM", "G4,TE"]),
    st.sampled_from(sorted(cli.APERTURES)),
    st.integers(0, 2**31 - 1),
    st.one_of(st.none(), st.floats(-20.0, 60.0)),
    st.floats(0.01, 0.5),
    st.sampled_from(["tm", "te-search", "te-plain"]),
    st.sampled_from(["unit", "log"]) | st.integers(1, 12).map(lambda p: f"power:{p}"),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_experiment_config_round_trip(preset, aperture, seed, snr_db, step, mode, weight,
                                      threshold):
    cfg = cli.preset_config(preset, aperture=aperture, seed=seed, snr_db=snr_db)
    cfg.step, cfg.mode, cfg.weight, cfg.threshold = step, mode, weight, threshold
    text = cli.serialize_config(cfg.to_tables())
    reparsed = cli.parse_config_text(text)
    assert cli.serialize_config(reparsed) == text
    rebuilt = cli.ExperimentConfig.from_tables(reparsed)
    assert cli.serialize_config(rebuilt.to_tables()) == text


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6),
    st.floats(1e-3, 1e3),
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 2.0 * math.pi),
    st.sampled_from(list(BoundaryCondition)),
    st.one_of(st.none(), st.tuples(st.floats(-40.0, 80.0), st.integers(0, 2**31 - 1))),
    st.data(),
)
def test_msr_save_load_save_is_byte_identical(tmp_path_factory, n, k, alpha, span, bc, noise, data):
    parts = data.draw(st.lists(st.floats(), min_size=2 * n * n, max_size=2 * n * n))
    entries = np.array([complex(re, im) for re, im in zip(parts[::2], parts[1::2])]).reshape(n, n)
    spec = None if noise is None else msr.NoiseSpec(*noise)
    dirs = msr.DirectionSet(alpha, alpha + span, n)
    matrix = msr.MsrMatrix(k=k, entries=entries, dirs=dirs, bc=bc, noise=spec)
    out = tmp_path_factory.mktemp("msr")
    msr.save_msr(matrix, out / "a.msr")
    msr.save_msr(msr.load_msr(out / "a.msr"), out / "b.msr")
    assert (out / "a.msr").read_bytes() == (out / "b.msr").read_bytes()


def _grid_args(nx, ny):
    """SearchGrid arguments whose x and y extents hold nx and ny grid steps
    plus a fraction of one."""
    return st.builds(
        lambda x_lo, y_lo, h, nx, ny, fx, fy: (
            x_lo, x_lo + h * (nx - 1 + fx), y_lo, y_lo + h * (ny - 1 + fy), h
        ),
        st.floats(-100.0, 100.0),
        st.floats(-100.0, 100.0),
        st.floats(1e-3, 10.0),
        nx,
        ny,
        st.floats(0.0, 0.9),
        st.floats(0.0, 0.9),
    )


def _grids():
    counts = st.integers(2, 12)
    return _grid_args(counts, counts).map(lambda args: imaging.SearchGrid(*args))


@settings(max_examples=100, deadline=None)
@given(_grids(), st.data())
def test_map_save_load_save_is_byte_identical(tmp_path_factory, grid, data):
    size = grid.nx * grid.ny
    values = np.array(data.draw(st.lists(st.floats(), min_size=size, max_size=size)))
    out = tmp_path_factory.mktemp("map")
    imaging.save_map(imaging.ImageMap(grid=grid, values=values), out / "a.csv")
    imaging.save_map(imaging.load_map(out / "a.csv"), out / "b.csv")
    assert (out / "a.csv").read_bytes() == (out / "b.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(_grid_args(st.just(1), st.integers(1, 12)) | _grid_args(st.integers(1, 12), st.just(1)))
def test_any_grid_with_one_row_or_column_is_refused(args):
    # a step beyond the extent leaves one row or column, which a saved map
    # cannot record: the grid is refused, so every saved map reads back
    with pytest.raises(ConfigError):
        imaging.SearchGrid(*args)


@settings(max_examples=200, deadline=None)
@given(_grids())
@example(imaging.SearchGrid(1.0, 4.001, 0.0, 3.001, 3.001))
def test_load_map_infers_the_grid(tmp_path_factory, grid):
    # the inferred step reproduces every saved coordinate exactly
    out = tmp_path_factory.mktemp("grid")
    imaging.save_map(imaging.ImageMap(grid=grid, values=np.zeros(grid.nx * grid.ny)), out / "m.csv")
    loaded = imaging.load_map(out / "m.csv").grid
    assert (loaded.nx, loaded.ny) == (grid.nx, grid.ny)
    assert np.array_equal(loaded.xs(), grid.xs())
    assert np.array_equal(loaded.ys(), grid.ys())
    assert abs(loaded.h - grid.h) <= 1e-9 * grid.h


_DIRS = st.builds(
    lambda alpha, span, count: msr.DirectionSet(alpha, alpha + span, count),
    st.floats(-math.pi, math.pi),
    st.floats(1e-3, 2.0 * math.pi),
    st.integers(2, 64),
) | st.builds(msr.DirectionSet.full_view, st.integers(2, 64))
_POINT = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))


@settings(max_examples=200, deadline=None)
@given(_POINT, st.floats(0.1, 100.0), _DIRS, st.floats(0.0, 2.0 * math.pi))
def test_steering_vectors_are_unit(x, k, dirs, nu_angle):
    assert abs(np.linalg.norm(imaging.steering_tm(x, k, dirs)) - 1.0) <= 1e-12
    nu = np.array([math.cos(nu_angle), math.sin(nu_angle)])
    try:
        te = imaging.steering_te(x, k, dirs, nu)
    except DegenerateSteeringError:
        return
    assert abs(np.linalg.norm(te) - 1.0) <= 1e-12
