"""Imaging functionals: steering identities, map properties, persistence."""

import math
import sys
import threading

import numpy as np
import pytest

from arcmig import _blas, analysis, geometry, imaging, kernels, msr
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
        assert abs(inner - kernels.jnv(0, np.array([k * np.hypot(*(x - y))]))[0]) < 2e-3


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
        expected = 1j * (rhat @ nu) * kernels.jnv(1, np.array([k * r]))[0]
        assert abs(inner - expected) < 2e-3


def test_steering_te_degenerate_error():
    # two opposite directions, candidate normal orthogonal to both
    dirs = msr.DirectionSet.full_view(2)
    with pytest.raises(DegenerateSteeringError):
        imaging.steering_te(np.zeros(2), K_HALF, dirs, np.array([0.0, 1.0]))


def test_micro_segment_single_frequency_matches_kernel(micro_subspaces):
    center, _, sub, _ = micro_subspaces
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    img = imaging.image_subspace(
        [sub], grid, imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
    )
    pred = analysis.kernel_predict_grid(
        "TM_SINGLE", grid.points(), np.array([center]), k=K_HALF
    )
    assert np.max(np.abs(img.values - pred)) < 5e-2


def test_global_phase_invariance(micro_subspaces):
    from dataclasses import replace

    center, _, sub, _ = micro_subspaces
    grid = imaging.SearchGrid(-0.3, 0.3, -0.5, 0.1, 0.05)
    base = imaging.image_subspace(
        [sub], grid, imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
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
        [rotated], grid, imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
    )
    assert np.max(np.abs(img.values - base.values)) < 1e-12


def test_kirchhoff_rank_one_peak():
    dirs = msr.DirectionSet.full_view(64)
    y0 = np.array([0.3, -0.4])
    s = imaging.steering_tm(y0, K_HALF, dirs)
    k_mat = np.outer(s, s)
    m = msr.MsrMatrix(k=K_HALF, entries=k_mat, dirs=dirs, bc=BC.DIRICHLET)
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    img = imaging.image_kirchhoff([m], grid)
    assert np.linalg.norm(img.argmax_point() - y0) <= 0.02 + 1e-12


def test_kirchhoff_linearity():
    dirs = msr.DirectionSet.full_view(16)
    rng = np.random.default_rng(5)
    k_mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    grid = imaging.SearchGrid(-0.5, 0.5, -0.5, 0.5, 0.1)
    m1 = msr.MsrMatrix(k=K_HALF, entries=k_mat, dirs=dirs, bc=BC.DIRICHLET)
    m2 = msr.MsrMatrix(k=K_HALF, entries=2.0 * k_mat, dirs=dirs, bc=BC.DIRICHLET)
    img1 = imaging.image_kirchhoff([m1], grid)
    img2 = imaging.image_kirchhoff([m2], grid)
    assert np.allclose(img2.values, 2.0 * img1.values, rtol=1e-12)


def test_weight_scheme_values():
    ks = np.array([2.0, 4.0, 8.0])
    assert np.allclose(imaging.WeightScheme("unit").values(ks), 1.0)
    assert np.allclose(imaging.WeightScheme("power", 2).values(ks), ks**2)
    assert np.allclose(imaging.WeightScheme("log").values(ks), np.log(ks))
    with pytest.raises(ConfigError):
        imaging.WeightScheme("power", 0)
    with pytest.raises(ConfigError):
        imaging.WeightScheme("custom")


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
    # the second frequency's subspace was built over another direction set
    _, _, sub, m = micro_subspaces
    other = msr.svd_threshold(
        msr.MsrMatrix(k=2.0 * K_HALF, entries=m.entries[:32, :32],
                      dirs=msr.DirectionSet.full_view(32), bc=BC.DIRICHLET)
    )
    grid = imaging.SearchGrid(-0.2, 0.2, -0.2, 0.2, 0.1)
    with pytest.raises(ConfigError, match="more than one direction set"):
        imaging.image_subspace(
            [sub, other], grid, imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
        )


def test_map_rows_do_not_depend_on_block_position(micro_subspaces):
    # 65 x 65 = 4225 points span more than three row blocks; the sub-grid
    # starts at y = -0.5, point 1560 of the full grid, in the middle of a
    # block. A dyadic step makes the shared points bitwise equal.
    _, _, sub, _ = micro_subspaces
    mode, unit = imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
    full_grid = imaging.SearchGrid(-2.0, 2.0, -2.0, 2.0, 0.0625)
    sub_grid = imaging.SearchGrid(-2.0, 2.0, -0.5, 2.0, 0.0625)
    start = full_grid.index_nearest(np.array([-2.0, -0.5]))
    block = imaging._BLOCK
    assert full_grid.nx * full_grid.ny > 3 * block and start % block != 0
    assert np.array_equal(sub_grid.points(), full_grid.points()[start:])
    full = imaging.image_subspace([sub], full_grid, mode, unit)
    part = imaging.image_subspace([sub], sub_grid, mode, unit)
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
            [sub], grid, imaging.SteeringMode("te-search", 4), imaging.WeightScheme("unit")
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
        subs, grid, imaging.SteeringMode("te-search", candidates),
        imaging.WeightScheme("unit")
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


def _te_search_oracle(subs, grid, dirs, candidates):
    """The TE normal-search map by a direct loop over points, subspace
    vectors and candidate normals."""
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
    return np.array(expected)


def test_te_search_limited_aperture_odd_candidates_matches_oracle():
    # a limited aperture makes the candidate weights N / ||Theta nu_l||^2
    # differ, and an odd L scans every candidate (no nu_{l+L/2} = -nu_l fold)
    crack = geometry.catalog("G1")
    dirs = msr.DirectionSet(np.pi / 6.0, 5.0 * np.pi / 6.0, 16)
    candidates = 7
    norms = np.linalg.norm(dirs.directions() @ imaging.candidate_normals(candidates).T, axis=0)
    assert norms.max() > 1.4 * norms.min()
    freqs = imaging.FrequencySet.from_wavelengths(0.5, 0.4, 2)
    subs = []
    for kf in freqs.wavenumbers():
        m = msr.assemble(crack, kf, dirs, BC.NEUMANN, NystromConfig(nodes_per_arc=64))
        subs.append(msr.svd_threshold(m, 0.01))
    grid = imaging.SearchGrid(-0.6, 0.6, -0.1, 0.7, 0.2)
    img = imaging.image_subspace(
        subs, grid, imaging.SteeringMode("te-search", candidates),
        imaging.WeightScheme("unit")
    )
    expected = _te_search_oracle(subs, grid, dirs, candidates)
    assert np.allclose(img.values, expected, atol=1e-12)


def test_te_search_full_view_odd_directions_matches_oracle():
    # full view with odd N holds no -theta: the search runs on the
    # unpaired basis, R = 2N
    crack = geometry.catalog("G1")
    dirs = msr.DirectionSet.full_view(15)
    assert not imaging._paired(dirs) and imaging._kept(dirs) == 15
    freqs = imaging.FrequencySet.from_wavelengths(0.5, 0.4, 2)
    subs = []
    for kf in freqs.wavenumbers():
        m = msr.assemble(crack, kf, dirs, BC.NEUMANN, NystromConfig(nodes_per_arc=64))
        subs.append(msr.svd_threshold(m, 0.01))
    grid = imaging.SearchGrid(-0.6, 0.6, -0.1, 0.7, 0.2)
    img = imaging.image_subspace(
        subs, grid, imaging.SteeringMode("te-search", 8), imaging.WeightScheme("unit")
    )
    expected = _te_search_oracle(subs, grid, dirs, 8)
    assert np.allclose(img.values, expected, atol=1e-12)


def test_factored_phase_block_matches_direct_exponentials():
    # phases k theta . x reach ~75 rad on this grid; the product of the x
    # and y tables agrees with the direct exponentials within 1e-13
    dirs = msr.DirectionSet.full_view(36)
    grid = imaging.SearchGrid(-1.5, 1.5, -1.0, 2.0, 0.05)
    k = 2.0 * np.pi / 0.2
    pts = grid.points()
    phase = k * (pts @ dirs.directions().T)
    assert np.max(np.abs(phase)) > 50.0
    direct = np.exp(1j * phase).conj() / np.sqrt(dirs.count)
    tx, ty = imaging._phase_tables(grid, k, dirs, dirs.count)
    iy, ix = np.divmod(np.arange(len(pts)), grid.nx)
    block = imaging._steering_block(tx, ty, ix, iy)
    assert np.max(np.abs(block - direct)) < 1e-13


def _random_msr(dirs, ks, seed):
    """Random complex MSR matrices over dirs, one per wavenumber."""
    rng = np.random.default_rng(seed)
    n = dirs.count
    return [
        msr.MsrMatrix(k=k, entries=rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                      dirs=dirs, bc=BC.DIRICHLET)
        for k in ks
    ]


def _engine_maps(matrices, grid, dirs):
    """TM (power weight), TE-plain (log weight) and Kirchhoff maps; a
    threshold of 0.3 keeps part of each spectrum."""
    subs = [msr.svd_threshold(m, 0.3) for m in matrices]
    assert all(0 < sub.cut_index < dirs.count for sub in subs)
    return subs, {
        "tm": imaging.image_subspace(subs, grid, imaging.SteeringMode("tm"),
                                     imaging.WeightScheme("power", 1)).values,
        "te-plain": imaging.image_subspace(subs, grid, imaging.SteeringMode("te-plain"),
                                           imaging.WeightScheme("log")).values,
        "kirchhoff": imaging.image_kirchhoff(matrices, grid).values,
    }


@pytest.mark.parametrize(
    "dirs",
    [msr.DirectionSet.full_view(15), msr.DirectionSet(np.pi / 6.0, 5.0 * np.pi / 6.0, 16),
     msr.DirectionSet.full_view(16)],
    ids=["odd-full-view", "limited", "even-full-view"],
)
def test_quadratic_form_maps_match_direct_formula(dirs):
    # the separable form against per-point steering vectors; the three sets
    # have 120 pairs, 136 pairs and 64 orbits: two, three and one chunk
    ks = [9.0, 11.5]
    grid = imaging.SearchGrid(-0.6, 0.6, -0.4, 0.6, 0.04)
    matrices = _random_msr(dirs, ks, seed=11)
    subs, maps = _engine_maps(matrices, grid, dirs)
    expected = {"tm": [], "te-plain": [], "kirchhoff": []}
    for x in grid.points():
        acc = dict.fromkeys(expected, 0.0 + 0.0j)
        for m, sub in zip(matrices, subs):
            sv = imaging.steering_tm(x, sub.k, dirs)
            term = sum(np.vdot(sv, sub.left_vectors[:, i]) * np.vdot(sv, sub.right_vectors[:, i].conj())
                       for i in range(sub.cut_index))
            acc["tm"] += sub.k * term
            acc["te-plain"] += np.log(sub.k) * term
            acc["kirchhoff"] += sv.conj() @ m.entries @ sv.conj()
        for key in expected:
            expected[key].append(abs(acc[key]) / len(ks))
    for key, values in maps.items():
        peak = max(expected[key])
        assert np.max(np.abs(values - expected[key])) <= 1e-12 * peak, key


def test_paired_basis_matches_unpaired_basis(monkeypatch):
    # full view with even N holds -theta for every theta: the phase tables
    # keep N/2 directions and S has N columns, against 2N unpaired
    dirs = msr.DirectionSet.full_view(24)
    assert imaging._paired(dirs) and imaging._kept(dirs) == 12
    limited = msr.DirectionSet(0.0, np.pi, 24)
    assert not imaging._paired(limited) and imaging._kept(limited) == 24
    ks = [8.0, 10.0, 12.0]
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.1)
    matrices = _random_msr(dirs, ks, seed=12)

    def maps():
        subs, out = _engine_maps(matrices, grid, dirs)
        out["te-search"] = _te_search_map(subs, grid, dirs)
        return out

    paired = maps()
    # the same set treated as holding no opposite directions: every engine
    # keeps all N directions, the TE search R = 2N columns and the
    # separable form N(N+1)/2 complex pair terms
    monkeypatch.setattr(imaging, "_paired", lambda dirs: False)
    assert imaging._kept(dirs) == 24
    assert len(imaging._pair_orbits(dirs)[0]) == 24 * 25 // 2
    unpaired = maps()
    for key, values in paired.items():
        assert np.max(np.abs(values - unpaired[key])) <= 1e-13 * np.max(unpaired[key]), key


@pytest.mark.parametrize("n", [2, 8, 16, 40])
def test_pair_orbits_cover_every_pair_once(n):
    # even full view: N^2/4 terms, each with its partner {a + h, b + h},
    # and the N/2 constant pairs {a, a + h} make up the N(N+1)/2 pairs
    # a <= b; an unpaired set has one term per pair
    h = n // 2
    first, second = imaging._pair_orbits(msr.DirectionSet.full_view(n))
    assert len(first) == n * n // 4 and np.all(first <= second)
    partner = np.sort([(first + h) % n, (second + h) % n], axis=0)
    pairs = np.concatenate([np.stack([first, second]), partner,
                            np.stack([np.arange(h), np.arange(h) + h])], axis=1)
    assert sorted(map(tuple, pairs.T)) == list(zip(*np.triu_indices(n)))
    for dirs in (msr.DirectionSet.full_view(n + 1), msr.DirectionSet(0.0, np.pi, n)):
        assert np.array_equal(np.stack(imaging._pair_orbits(dirs)),
                              np.stack(np.triu_indices(dirs.count)))


@pytest.mark.parametrize(
    "dirs", [msr.DirectionSet.full_view(40), msr.DirectionSet(0.3, 2.1, 24)],
    ids=["paired", "unpaired"],
)
def test_separable_form_over_several_pair_chunks_matches_direct_formula(dirs):
    # 400 orbits and 300 pairs: seven and five chunks of _PAIRS terms; an
    # odd column count pads the x side
    terms = len(imaging._pair_orbits(dirs)[0])
    assert terms > 4 * imaging._PAIRS and terms % imaging._PAIRS
    ks = [7.0, 9.5, 12.0]
    grid = imaging.SearchGrid(-0.7, 0.7, -0.5, 0.6, 0.1)
    assert grid.nx % 4
    matrices = _random_msr(dirs, ks, seed=14)
    values = imaging.image_kirchhoff(matrices, grid).values
    pts = grid.points()
    acc = 0.0
    for m in matrices:
        s = np.exp(-1j * m.k * (pts @ dirs.directions().T)) / np.sqrt(dirs.count)
        acc = acc + np.einsum("pa,ab,pb->p", s, m.entries, s)
    expected = np.abs(acc) / len(ks)
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(expected)


def test_one_point_last_block_matches_a_full_block():
    # q _BLOCK + 1 points leave one point in the last block; it gets the
    # same bits as in a grid of the last two rows, where it shares a block
    # with 2 nx - 1 others. A dyadic step makes the shared points bitwise equal.
    block, h = imaging._BLOCK, 0.0625
    for count in range(block + 1, 100 * block, block):
        nx = next((d for d in range(2, math.isqrt(count) + 1) if count % d == 0), 0)
        if nx:
            break
    ny = count // nx
    full_grid = imaging.SearchGrid(-1.0, -1.0 + (nx - 1) * h, -2.0, -2.0 + (ny - 1) * h, h)
    rows_grid = imaging.SearchGrid(-1.0, -1.0 + (nx - 1) * h, -2.0 + (ny - 2) * h,
                                   -2.0 + (ny - 1) * h, h)
    assert full_grid.nx * full_grid.ny % block == 1
    assert np.array_equal(rows_grid.points(), full_grid.points()[-2 * nx:])
    dirs = msr.DirectionSet.full_view(16)
    matrices = _random_msr(dirs, [9.0, 11.5], seed=13)

    def maps(grid):
        subs, out = _engine_maps(matrices, grid, dirs)
        out["te-search"] = _te_search_map(subs, grid, dirs)
        return out

    full, rows = maps(full_grid), maps(rows_grid)
    for key, values in rows.items():
        assert np.array_equal(values, full[key][-2 * nx:]), key


def _te_search_map(subs, grid, dirs):
    return imaging.image_subspace(subs, grid, imaging.SteeringMode("te-search", 8),
                                  imaging.WeightScheme("unit")).values


def _te_subspaces(seed):
    dirs = msr.DirectionSet.full_view(16)
    matrices = _random_msr(dirs, [9.0, 11.5], seed=seed)
    return [msr.svd_threshold(m, 0.3) for m in matrices], dirs


def _spy_reduce(monkeypatch, check=lambda: None):
    """The thread of every call of the TE search's reduce, in call order;
    check() runs at the start of each call."""
    threads = []
    reduce = imaging._search_reduce

    def counted(*args):
        threads.append(threading.current_thread())
        check()
        return reduce(*args)

    monkeypatch.setattr(imaging, "_search_reduce", counted)
    return threads


def _steering_basis(dirs):
    """The complex (R x N) map E with s = S E, for S the real view of the
    conjugate steering block over the `_kept` directions: s_n = S_2n + i S_2n+1,
    and on a paired set s_{n+N/2} = S_2n - i S_2n+1."""
    n, kept = dirs.count, imaging._kept(dirs)
    idx = np.arange(kept)
    expand = np.zeros((2 * kept, n), dtype=np.complex128)
    expand[2 * idx, idx] = 1.0
    expand[2 * idx + 1, idx] = 1j
    if imaging._paired(dirs):
        expand[2 * idx, idx + kept] = 1.0
        expand[2 * idx + 1, idx + kept] = -1j
    return expand


@pytest.mark.parametrize(
    "dirs",
    [msr.DirectionSet.full_view(24), msr.DirectionSet.full_view(15),
     msr.DirectionSet(0.0, np.pi, 24)],
    ids=["paired", "odd-full-view", "limited"],
)
def test_folded_planes_equal_the_steering_basis_product(monkeypatch, dirs):
    # the search's first block GEMM, on planes folded from F_f's rows,
    # equals the GEMM of the same block against E F_f bit for bit
    ks = [8.0, 10.0]
    subs = [msr.svd_threshold(m, 0.3) for m in _random_msr(dirs, ks, seed=25)]
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.1)
    assert grid.nx * grid.ny >= imaging._BLOCK
    blocks = []
    reduce = imaging._search_reduce

    def copied(prod, *args):
        blocks.append(prod.copy())
        return reduce(prod, *args)

    monkeypatch.setattr(imaging, "_search_reduce", copied)
    monkeypatch.setattr(imaging, "_search_walkers", lambda blocks: 1)
    _te_search_map(subs, grid, dirs)
    d = dirs.directions()
    dx, dy = d[:, :1], d[:, 1:]
    iy, ix = np.divmod(np.arange(imaging._BLOCK), grid.nx)
    for f, sub in enumerate(subs):
        u, v = sub.retained_left(), sub.retained_right().conj()
        planes = _steering_basis(dirs) @ np.stack([dx * u, dy * u, dx * v, dy * v])
        tx, ty = imaging._phase_tables(grid, sub.k, dirs, imaging._kept(dirs))
        s = imaging._steering_block(tx, ty, ix, iy).view(np.float64)
        expected = np.empty((4, imaging._BLOCK, u.shape[1]), dtype=np.complex128)
        np.matmul(s, planes.view(np.float64), out=expected.view(np.float64))
        assert blocks[f].tobytes() == expected.tobytes()


@pytest.mark.parametrize("bounds, walking", [((-0.6, 0.6, -0.4, 0.6, 0.04), 2),
                                             ((-0.3, 0.3, -0.2, 0.2, 0.1), 1)],
                         ids=["ragged-last-block", "under-one-block"])
def test_te_search_walkers_give_the_serial_map(monkeypatch, bounds, walking):
    # 806 points are two full blocks and a ragged one, split 2 + 1 between
    # two walkers; 35 points are one block, and the second walker gets none
    grid = imaging.SearchGrid(*bounds)
    subs, dirs = _te_subspaces(seed=21)
    threads = _spy_reduce(monkeypatch)
    monkeypatch.setattr(imaging, "_search_walkers", lambda blocks: 1)
    serial = _te_search_map(subs, grid, dirs)
    assert set(threads) == {threading.current_thread()}
    threads.clear()
    monkeypatch.setattr(imaging, "_search_walkers", lambda blocks: 2)
    parallel = _te_search_map(subs, grid, dirs)
    assert len(set(threads)) == walking
    assert parallel.tobytes() == serial.tobytes()


def test_te_search_walkers_outnumbering_cores_give_the_serial_map(monkeypatch):
    # five walkers share ten blocks of one sum while the interpreter switches
    # threads every microsecond; each walker writes only its own blocks
    grid = imaging.SearchGrid(-0.6, 0.6, -0.4, 1.1, 0.025)
    assert grid.nx * grid.ny > 9 * imaging._BLOCK
    subs, dirs = _te_subspaces(seed=24)
    monkeypatch.setattr(imaging, "_search_walkers", lambda blocks: 1)
    serial = _te_search_map(subs, grid, dirs)
    monkeypatch.setattr(imaging, "_search_walkers", lambda blocks: 5)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = _te_search_map(subs, grid, dirs)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert parallel.tobytes() == serial.tobytes()


@pytest.mark.skipif(_blas.functions() is None, reason="no thread-count control of NumPy's BLAS")
@pytest.mark.parametrize("failing", [None, "caller", "thread"],
                         ids=["no-error", "caller-walker", "thread-walker"])
def test_te_search_runs_on_one_blas_thread(monkeypatch, failing):
    # import arcmig set BLAS to one thread; every walker runs under it
    assert _blas.applied
    assert _blas.threads() == 1
    grid = imaging.SearchGrid(-0.6, 0.6, -0.4, 0.8, 0.05)
    subs, dirs = _te_subspaces(seed=22)
    seen, boom = [], RuntimeError("reduce failed")
    caller = threading.current_thread()

    def check():
        seen.append(_blas.threads())
        walker = "caller" if threading.current_thread() is caller else "thread"
        if walker == failing:
            raise boom

    threads = _spy_reduce(monkeypatch, check)
    monkeypatch.setattr(imaging, "_search_walkers", lambda blocks: 2)
    if failing is None:
        _te_search_map(subs, grid, dirs)
        assert len(set(threads)) == 2
    else:
        with pytest.raises(RuntimeError) as raised:
            _te_search_map(subs, grid, dirs)
        assert raised.value is boom
    assert seen and set(seen) == {1}
    assert _blas.threads() == 1


def test_te_search_without_blas_control_walks_serially(monkeypatch):
    grid = imaging.SearchGrid(-0.6, 0.6, -0.4, 0.8, 0.05)
    subs, dirs = _te_subspaces(seed=23)
    monkeypatch.setattr(imaging, "_search_walkers", lambda blocks: 1)
    serial = _te_search_map(subs, grid, dirs)
    monkeypatch.undo()
    threads = _spy_reduce(monkeypatch)
    monkeypatch.setattr(_blas, "applied", False)
    values = _te_search_map(subs, grid, dirs)
    assert set(threads) == {threading.current_thread()}
    assert values.tobytes() == serial.tobytes()


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
        subs, grid, imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
    )
    assert 0.5 <= float(img.values.max()) <= 1.3
    # the crack midpoint carries a near-peak value
    mid = img.values[grid.index_nearest(np.array([0.0, 0.3]))]
    assert mid >= 0.8 * float(img.values.max())


def test_map_csv_round_trip(tmp_path, micro_subspaces):
    center, _, sub, _ = micro_subspaces
    grid = imaging.SearchGrid(-0.5, 0.5, -0.5, 0.5, 0.1)
    img = imaging.image_subspace(
        [sub], grid, imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
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


def test_map_csv_with_crlf_line_ends_loads_alike(tmp_path, micro_subspaces):
    center, _, sub, _ = micro_subspaces
    grid = imaging.SearchGrid(-0.5, 0.5, -0.5, 0.5, 0.1)
    img = imaging.image_subspace(
        [sub], grid, imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
    )
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    imaging.save_map(img, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    a, b = imaging.load_map(lf), imaging.load_map(crlf)
    assert a.grid == b.grid
    assert a.values.tobytes() == b.values.tobytes()


def _reference_save_map(image, path):
    """The per-point formatter of NumPy scalars that save_map replaced,
    kept as the byte reference."""
    g = image.grid
    xs, ys = g.xs(), g.ys()
    lines = ["x,y,value"]
    idx = 0
    for iy in range(g.ny):
        for ix in range(g.nx):
            lines.append(f"{xs[ix]:.17g},{ys[iy]:.17g},{image.values[idx]:.17g}")
            idx += 1
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_save_map_bytes_match_reference_formatter(tmp_path):
    # the G3 preset grid (201 x 201 points), values over many magnitudes
    # and the special values
    grid = imaging.SearchGrid(-2.0, 2.0, -1.0, 3.0, 0.02)
    rng = np.random.default_rng(8)
    size = grid.nx * grid.ny
    values = rng.uniform(0.0, 1.0, size) * 10.0 ** rng.integers(-300, 300, size)
    values[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, np.finfo(float).max]
    image = imaging.ImageMap(grid=grid, values=values)
    imaging.save_map(image, tmp_path / "new.csv")
    _reference_save_map(image, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_grid_with_one_row_or_column_is_refused():
    # such a map would not record its step, so load_map could not read it
    with pytest.raises(ConfigError):
        imaging.SearchGrid(0.0, 0.05, 0.0, 1.0, 0.1)
    # nor can a grid whose extent is past the float range have a step
    with pytest.raises(ConfigError):
        imaging.SearchGrid(-1e308, 1e308, 0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        imaging.SearchGrid(0.0, 1.0, 0.0, 0.05, 0.1)
    grid = imaging.SearchGrid(0.0, 0.1, 0.0, 0.1, 0.1)
    assert (grid.nx, grid.ny) == (2, 2)


def test_map_csv_parse_error_carries_line(tmp_path):
    def rows(points):
        return "".join(f"{x},{y},1\n" for x, y in points)

    cases = [
        ("0,0,1\n0.1,0,oops\n", 3),
        # (0, 1) twice and no (1, 1): the point count of a 2 x 2 grid
        (rows([(0, 0), (1, 0), (0, 1), (0, 1)]), 5),
        # the 2 x 2 grid in column-major order
        (rows([(0, 0), (0, 1), (1, 0), (1, 1)]), 3),
        # x = 0.1 is no multiple of the step 0.15 the other coordinates share
        (rows([(x, y) for y in (0, 0.15, 0.3) for x in (0, 0.1, 0.3)]), 3),
        # a row of two fields
        ("0,0,1\n1,0\n", 3),
        # three points: no full grid
        (rows([(0, 0), (1, 0), (0, 1)]), 4),
        # a full grid of one row
        (rows([(0, 0), (1, 0)]), 3),
        # a full 3 x 2 grid whose x step 0.9, 0.1 is no one step
        (rows([(x, y) for y in (0, 1) for x in (0, 0.9, 1)]), 1),
    ]
    path = tmp_path / "bad.csv"
    for body, line in cases:
        path.write_text("x,y,value\n" + body)
        with pytest.raises(MapParseError) as err:
            imaging.load_map(path)
        assert err.value.line == line
        assert str(err.value).count(f"line {line}") == 1
    meta = tmp_path / "bad.meta"
    meta.write_text("a = 1\nbroken\n")
    with pytest.raises(MapParseError, match="line 2") as err:
        imaging.load_metadata(meta)
    assert err.value.line == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, line", [
    ("0,0,1\ninf,0,1\n0,1,1\ninf,1,1\n", 3),
    ("0,0,1\nnan,0,1\n0,1,1\nnan,1,1\n", 3),
    ("0,0,1\n1,-inf,1\n0,1,1\n1,1,1\n", 3),
    # a full 2 x 2 grid whose inferred step 1e300 leaves one row
    ("0,0,1\n1e300,0,1\n0,1,1\n1e300,1,1\n", 1),
    # finite coordinates whose extent exceeds the float range
    ("".join(f"{x},{y},1\n" for y in (0, 1) for x in (-1e308, 0, 1e308)), 1),
], ids=["inf-x", "nan-x", "inf-y", "step-past-the-extent", "extent-past-the-float-range"])
def test_map_csv_bad_coordinates_carry_line(tmp_path, body, line):
    # a non-finite coordinate names its own line, and a grid the saved
    # points cannot have come from is an inconsistent step at line 1
    path = tmp_path / "bad.csv"
    path.write_text("x,y,value\n" + body)
    with pytest.raises(MapParseError) as err:
        imaging.load_map(path)
    assert err.value.line == line


def test_map_csv_blank_or_comment_line_carries_line(tmp_path):
    # NumPy's reader skips a blank line and rejects a '#' line; either way
    # the line rule names the line
    rows = ["0,0,1", "1,0,1", "0,1,1", "1,1,1"]
    path = tmp_path / "bad.csv"
    for bad in ("", "#", "# 0,1,1"):
        for at in (0, 2, len(rows)):
            body = rows[:at] + [bad] + rows[at:]
            path.write_text("x,y,value\n" + "\n".join(body) + "\n")
            with pytest.raises(MapParseError) as err:
                imaging.load_map(path)
            assert err.value.line == at + 2
    # only blank lines after the header: line 2, as the line rule says
    path.write_text("x,y,value\n\n\n")
    with pytest.raises(MapParseError) as err:
        imaging.load_map(path)
    assert err.value.line == 2


def test_metadata_round_trip(tmp_path):
    meta = {"functional": "subspace-tm", "alpha": 0.0, "directions": 16}
    path = tmp_path / "map.meta"
    imaging.save_metadata(meta, path)
    back = imaging.load_metadata(path)
    assert back["functional"] == "subspace-tm"
    assert float(back["alpha"]) == 0.0
    assert int(back["directions"]) == 16
