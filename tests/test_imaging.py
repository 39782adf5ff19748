"""Imaging functionals: steering identities, map properties, persistence."""

import numpy as np
import pytest

from arcmig import analysis, geometry, imaging, msr, specfun
from arcmig.errors import ConfigError, DegenerateSteeringError, MapParseError
from arcmig.forward import BoundaryCondition as BC
from arcmig.forward import NystromConfig

K_HALF = 2.0 * np.pi / 0.5


@pytest.fixture(scope="module")
def micro_subspaces():
    """Single-frequency micro-segment data: point-like target, alias-free N."""
    center = np.array([0.1, -0.15])
    crack = geometry.line_segment(center - [0.005, 0.0], center + [0.005, 0.0], "micro")
    dirs = msr.DirectionSet.full_view(96)
    m = msr.assemble(crack, K_HALF, dirs, BC.DIRICHLET, NystromConfig(nodes_per_arc=64))
    return center, dirs, msr.svd_threshold(m, 0.01), m


def test_steering_tm_at_origin():
    dirs = msr.DirectionSet.full_view(16)
    v = imaging.steering_tm(np.zeros(2), K_HALF, dirs)
    assert np.allclose(v, np.full(16, 1.0 / 4.0), atol=1e-15)


def test_steering_tm_unit_norm():
    rng = np.random.default_rng(0)
    dirs = msr.DirectionSet.full_view(32)
    for _ in range(10):
        v = imaging.steering_tm(rng.uniform(-2, 2, 2), rng.uniform(1, 30), dirs)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_steering_inner_product_matches_bessel_j0():
    # <steering(x), steering(y)> ~ J_0(k |x-y|) at N = 256 full view
    dirs = msr.DirectionSet.full_view(256)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 2)
        y = rng.uniform(-1.5, 1.5, 2)
        k = rng.uniform(4.0, 15.0)
        sx = imaging.steering_tm(x, k, dirs)
        sy = imaging.steering_tm(y, k, dirs)
        inner = np.vdot(sx, sy)
        assert abs(inner - specfun.bessel_j(0, k * np.hypot(*(x - y)))) < 2e-3


def test_steering_te_vanishing_components_and_norm():
    dirs = msr.DirectionSet.full_view(8)
    nu = np.array([0.0, 1.0])
    v = imaging.steering_te(np.array([0.3, 0.2]), K_HALF, dirs, nu)
    proj = dirs.directions() @ nu
    assert np.allclose(v[np.abs(proj) < 1e-12], 0.0)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_steering_te_inner_product_matches_bessel_j1():
    # un-normalized inner products reproduce i (rhat . nu) J_1(k r) / ...
    dirs = msr.DirectionSet.full_view(256)
    n = dirs.count
    d = dirs.directions()
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        k = rng.uniform(4.0, 12.0)
        ang = rng.uniform(0, 2 * np.pi)
        nu = np.array([np.cos(ang), np.sin(ang)])
        sx = (d @ nu) * np.exp(1j * k * (d @ x))
        plain_y = np.exp(1j * k * (d @ y))
        inner = np.vdot(sx, plain_y) / n
        r = np.hypot(*(y - x))
        rhat = (y - x) / r
        expected = 1j * (rhat @ nu) * specfun.bessel_j(1, k * r)
        assert abs(inner - expected) < 2e-3


def test_steering_te_degenerate_error():
    # two opposite directions, candidate normal orthogonal to both
    dirs = msr.DirectionSet.full_view(2)
    with pytest.raises(DegenerateSteeringError):
        imaging.steering_te(np.zeros(2), K_HALF, dirs, np.array([0.0, 1.0]))


def test_micro_segment_single_frequency_matches_kernel(micro_subspaces):
    center, dirs, sub, _ = micro_subspaces
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    img = imaging.image_subspace(
        [sub], grid, imaging.SteeringMode.tm(), imaging.WeightScheme.unit(), dirs
    )
    pred = analysis.kernel_predict_grid(
        "TM_SINGLE", grid.points(), np.array([center]), k=K_HALF
    )
    assert np.max(np.abs(img.values - pred)) < 5e-2


def test_global_phase_invariance(micro_subspaces):
    from dataclasses import replace

    center, dirs, sub, _ = micro_subspaces
    grid = imaging.SearchGrid(-0.3, 0.3, -0.5, 0.1, 0.05)
    base = imaging.image_subspace(
        [sub], grid, imaging.SteeringMode.tm(), imaging.WeightScheme.unit(), dirs
    )
    # the SVD gauge freedom multiplies matched singular-vector pairs by a
    # common phase; K = U S V* is preserved and so must be the map
    gamma = 0.7321
    rotated = replace(
        sub,
        left_vectors=sub.left_vectors * np.exp(1j * gamma),
        right_vectors=sub.right_vectors * np.exp(1j * gamma),
    )
    img = imaging.image_subspace(
        [rotated], grid, imaging.SteeringMode.tm(), imaging.WeightScheme.unit(), dirs
    )
    assert np.max(np.abs(img.values - base.values)) < 1e-12


def test_kirchhoff_rank_one_peak():
    dirs = msr.DirectionSet.full_view(64)
    y0 = np.array([0.3, -0.4])
    s = imaging.steering_tm(y0, K_HALF, dirs)
    k_mat = np.outer(s, s)
    m = msr.MsrMatrix(k=K_HALF, entries=k_mat, dirs=dirs, bc=BC.DIRICHLET)
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    img = imaging.image_kirchhoff([m], grid, dirs)
    assert np.linalg.norm(img.argmax_point() - y0) <= 0.02 + 1e-12


def test_kirchhoff_linearity():
    dirs = msr.DirectionSet.full_view(16)
    rng = np.random.default_rng(5)
    k_mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    grid = imaging.SearchGrid(-0.5, 0.5, -0.5, 0.5, 0.1)
    m1 = msr.MsrMatrix(k=K_HALF, entries=k_mat, dirs=dirs, bc=BC.DIRICHLET)
    m2 = msr.MsrMatrix(k=K_HALF, entries=2.0 * k_mat, dirs=dirs, bc=BC.DIRICHLET)
    img1 = imaging.image_kirchhoff([m1], grid, dirs)
    img2 = imaging.image_kirchhoff([m2], grid, dirs)
    assert np.allclose(img2.values, 2.0 * img1.values, rtol=1e-12)


def test_weight_scheme_values():
    ks = np.array([2.0, 4.0, 8.0])
    assert np.allclose(imaging.WeightScheme.unit().values(ks), 1.0)
    assert np.allclose(imaging.WeightScheme.power_p(2).values(ks), ks**2)
    assert np.allclose(imaging.WeightScheme.log().values(ks), np.log(ks))
    assert np.allclose(
        imaging.WeightScheme.custom(lambda k: np.sqrt(k)).values(ks), np.sqrt(ks)
    )
    with pytest.raises(ConfigError):
        imaging.WeightScheme.power_p(0)
    with pytest.raises(ConfigError):
        imaging.WeightScheme.custom(lambda k: -1.0).values(ks)


def test_grid_layout_and_nearest_index():
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    assert grid.nx == 101 and grid.ny == 101
    pts = grid.points()
    assert np.allclose(pts[0], [-1.0, -1.0])
    assert np.allclose(pts[1], [-0.98, -1.0])      # x varies fastest
    assert np.allclose(pts[grid.nx], [-1.0, -0.98])
    idx = grid.index_nearest(np.array([0.0, 0.3]))
    assert np.allclose(pts[idx], [0.0, 0.3])
    with pytest.raises(ConfigError):
        grid.index_nearest(np.array([2.0, 0.0]))


def test_direction_set_mismatch_rejected(micro_subspaces):
    _, dirs, sub, _ = micro_subspaces
    other = msr.DirectionSet.full_view(32)
    grid = imaging.SearchGrid(-0.2, 0.2, -0.2, 0.2, 0.1)
    with pytest.raises(ConfigError):
        imaging.image_subspace(
            [sub], grid, imaging.SteeringMode.tm(), imaging.WeightScheme.unit(), other
        )


def test_map_rows_do_not_depend_on_block_position(micro_subspaces):
    # 65 x 65 = 4225 points span five row blocks; the sub-grid starts at
    # y = -0.5, point 1560 of the full grid, in the middle of its second
    # block. A dyadic step makes the shared points bitwise equal.
    _, dirs, sub, _ = micro_subspaces
    mode, unit = imaging.SteeringMode.tm(), imaging.WeightScheme.unit()
    full_grid = imaging.SearchGrid(-2.0, 2.0, -2.0, 2.0, 0.0625)
    sub_grid = imaging.SearchGrid(-2.0, 2.0, -0.5, 2.0, 0.0625)
    start = full_grid.index_nearest(np.array([-2.0, -0.5]))
    assert full_grid.nx * full_grid.ny > 3 * 1024 and start % 1024 != 0
    assert np.array_equal(sub_grid.points(), full_grid.points()[start:])
    full = imaging.image_subspace([sub], full_grid, mode, unit, dirs)
    part = imaging.image_subspace([sub], sub_grid, mode, unit, dirs)
    assert np.array_equal(part.values, full.values[start:])


def test_te_search_degenerate_candidate_raises():
    # directions 0 and pi: the first of L = 4 candidates, nu = (0, 1), is
    # orthogonal to both
    dirs = msr.DirectionSet(0.0, np.pi, 2)
    rng = np.random.default_rng(3)
    entries = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sub = msr.svd_threshold(msr.MsrMatrix(k=K_HALF, entries=entries, dirs=dirs, bc=BC.NEUMANN))
    grid = imaging.SearchGrid(-0.2, 0.2, -0.2, 0.2, 0.1)
    with pytest.raises(DegenerateSteeringError):
        imaging.image_subspace(
            [sub], grid, imaging.SteeringMode.te_search(4), imaging.WeightScheme.unit(), dirs
        )


def test_te_search_matches_brute_force_oracle():
    # the vectorized normal-search path against a direct per-point loop
    crack = geometry.catalog("G1")
    dirs = msr.DirectionSet.full_view(16)
    freqs = imaging.FrequencySet.from_wavelengths(0.5, 0.4, 2)
    subs = []
    for kf in freqs.wavenumbers():
        m = msr.assemble(crack, kf, dirs, BC.NEUMANN, NystromConfig(nodes_per_arc=64))
        subs.append(msr.svd_threshold(m, 0.01))
    grid = imaging.SearchGrid(-0.6, 0.6, -0.1, 0.7, 0.2)
    candidates = 8
    img = imaging.image_subspace(
        subs, grid, imaging.SteeringMode.te_search(candidates),
        imaging.WeightScheme.unit(), dirs,
    )
    normals = imaging.candidate_normals(candidates)
    expected = []
    for x in grid.points():
        acc = 0.0 + 0.0j
        for sub in subs:
            for m_i in range(sub.cut_index):
                u = sub.left_vectors[:, m_i]
                vbar = sub.right_vectors[:, m_i].conj()
                best = None
                for nu in normals:
                    sv = imaging.steering_te(x, sub.k, dirs, nu)
                    term = np.vdot(sv, u) * np.vdot(sv, vbar)
                    if best is None or abs(term) > abs(best):
                        best = term
                acc += best
        expected.append(abs(acc) / len(subs))
    assert np.allclose(img.values, expected, atol=1e-12)


def test_noiseless_peak_normalization():
    # noiseless full-view TM with unit weight: the map's global max sits in
    # [0.5, 1.3] (theoretical peak is about 1; discretization and the
    # threshold cut account for the band)
    crack = geometry.catalog("G1")
    dirs = msr.DirectionSet.full_view(16)
    freqs = imaging.FrequencySet.from_wavelengths(0.5, 0.4, 10)
    subs = []
    for kf in freqs.wavenumbers():
        m = msr.assemble(crack, kf, dirs, BC.DIRICHLET, NystromConfig(nodes_per_arc=64))
        subs.append(msr.svd_threshold(m, 0.01))
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    img = imaging.image_subspace(
        subs, grid, imaging.SteeringMode.tm(), imaging.WeightScheme.unit(), dirs
    )
    assert 0.5 <= float(img.values.max()) <= 1.3
    # the crack midpoint carries a near-peak value
    mid = img.values[grid.index_nearest(np.array([0.0, 0.3]))]
    assert mid >= 0.8 * float(img.values.max())


def test_map_csv_round_trip(tmp_path, micro_subspaces):
    center, dirs, sub, _ = micro_subspaces
    grid = imaging.SearchGrid(-0.5, 0.5, -0.5, 0.5, 0.1)
    img = imaging.image_subspace(
        [sub], grid, imaging.SteeringMode.tm(), imaging.WeightScheme.unit(), dirs
    )
    path = tmp_path / "map.csv"
    imaging.save_map(img, path)
    back = imaging.load_map(path)
    assert np.array_equal(back.values, img.values)
    assert back.grid.nx == img.grid.nx and back.grid.ny == img.grid.ny
    assert back.grid.h == pytest.approx(img.grid.h, rel=1e-12)
    # writing the same map twice is byte-identical
    path2 = tmp_path / "map2.csv"
    imaging.save_map(img, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_map_csv_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,value\n0,0,1\n0.1,0,oops\n")
    with pytest.raises(MapParseError) as err:
        imaging.load_map(path)
    assert err.value.line == 3


def test_metadata_round_trip(tmp_path):
    meta = {"functional": "subspace-tm", "alpha": 0.0, "directions": 16}
    path = tmp_path / "map.meta"
    imaging.save_metadata(meta, path)
    back = imaging.load_metadata(path)
    assert back["functional"] == "subspace-tm"
    assert float(back["alpha"]) == 0.0
    assert int(back["directions"]) == 16
