"""Forward-solver tests: boundary residuals, reciprocity, convergence,
far-field consistency at large but finite radius."""

import numpy as np
import pytest

from arcmig import forward, geometry
from arcmig.errors import ConfigError, DomainError
from arcmig.forward import BoundaryCondition as BC
from arcmig.forward import NystromConfig, PlaneWave

from _oracles import far_field_direct_sums

K_HALF = 2.0 * np.pi / 0.5
CFG64 = NystromConfig(nodes_per_arc=64)


def test_gamma1_density_mirror_symmetry():
    crack = geometry.catalog("G1")
    wave = PlaneWave(np.array([0.0, -1.0]), K_HALF)
    sol = forward.solve_density(crack, wave, BC.DIRICHLET, CFG64)
    defect = np.max(np.abs(sol.values - sol.values[::-1])) / np.max(np.abs(sol.values))
    assert defect < 1e-8


def test_gamma1_boundary_residual():
    crack = geometry.catalog("G1")
    wave = PlaneWave(np.array([1.0, 0.0]), K_HALF)
    sol = forward.solve_density(crack, wave, BC.DIRICHLET, CFG64)
    assert forward.boundary_residual(sol) < 1e-6


def test_all_catalog_residuals_at_128_nodes():
    cfg = NystromConfig(nodes_per_arc=128)
    wave = PlaneWave(np.array([np.cos(0.3), np.sin(0.3)]), K_HALF)
    for name in geometry.catalog_names():
        sol = forward.solve_density(geometry.catalog(name), wave, BC.DIRICHLET, cfg)
        assert forward.boundary_residual(sol) < 1e-6, name


def test_self_convergence_dirichlet():
    crack = geometry.catalog("G2")
    wave = PlaneWave(np.array([0.6, 0.8]), K_HALF)
    obs = np.array([0.0, 1.0])
    vals = {}
    for n in (32, 64, 128, 256):
        sol = forward.solve_density(crack, wave, BC.DIRICHLET, NystromConfig(nodes_per_arc=n))
        vals[n] = forward.far_field(sol, obs)
    assert abs(vals[64] - vals[128]) / abs(vals[128]) < 1e-6
    err32 = abs(vals[32] - vals[256]) / abs(vals[256])
    err64 = abs(vals[64] - vals[256]) / abs(vals[256])
    order = np.log2(err32 / max(err64, 1e-16))
    assert order > 2.0


def test_self_convergence_neumann():
    crack = geometry.catalog("G2")
    wave = PlaneWave(np.array([0.6, 0.8]), K_HALF)
    obs = np.array([0.0, 1.0])
    vals = {}
    for n in (32, 64, 256):
        sol = forward.solve_density(crack, wave, BC.NEUMANN, NystromConfig(nodes_per_arc=n))
        vals[n] = forward.far_field(sol, obs)
    err32 = abs(vals[32] - vals[256]) / abs(vals[256])
    err64 = abs(vals[64] - vals[256]) / abs(vals[256])
    assert err64 < 1e-6
    assert np.log2(err32 / max(err64, 1e-16)) > 2.0


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.NEUMANN])
def test_reciprocity(bc):
    crack = geometry.catalog("G2")
    rng = np.random.default_rng(7)
    for _ in range(3):
        a1, a2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        theta = np.array([np.cos(a1), np.sin(a1)])
        xhat = np.array([np.cos(a2), np.sin(a2)])
        s1 = forward.solve_density(crack, PlaneWave(theta, K_HALF), bc, CFG64)
        s2 = forward.solve_density(crack, PlaneWave(-xhat, K_HALF), bc, CFG64)
        u1 = forward.far_field(s1, xhat)
        u2 = forward.far_field(s2, -theta)
        assert abs(u1 - u2) / abs(u1) < 1e-6


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.NEUMANN])
def test_far_field_consistency_at_distance(bc):
    crack = geometry.catalog("G1")
    wave = PlaneWave(np.array([0.0, -1.0]), K_HALF)
    sol = forward.solve_density(crack, wave, bc, CFG64)
    radius = 1e4 * 0.5
    for ang in (0.7, 2.1, 4.4):
        obs = np.array([np.cos(ang), np.sin(ang)])
        u_s = forward.scattered_field(sol, radius * obs)
        u_inf = forward.far_field(sol, obs)
        assert abs(u_s * np.sqrt(radius) * np.exp(-1j * wave.k * radius) - u_inf) < 1e-3


def test_energy_sanity_bounded_far_field():
    crack = geometry.catalog("G3")
    wave = PlaneWave(np.array([0.0, -1.0]), K_HALF)
    sol = forward.solve_density(crack, wave, BC.DIRICHLET, CFG64)
    angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    obs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    vals = forward.far_field_matrix(sol.values[:, None], sol.disc, sol.k, obs)[0, :, 0]
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 50.0


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.NEUMANN])
def test_single_density_far_field_matches_direct_sums(bc):
    # far_field and the batch formula on values[:, None] agree with the
    # per-direction sums within 1e-13 of the largest far-field modulus
    crack = geometry.catalog("G4")
    wave = PlaneWave(np.array([np.cos(0.7), np.sin(0.7)]), K_HALF)
    sol = forward.solve_density(crack, wave, bc, CFG64)
    angles = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    obs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ref = far_field_direct_sums(sol, obs)
    tol = 1e-13 * np.max(np.abs(ref))
    batch = forward.far_field_matrix(sol.values[:, None], sol.disc, sol.k, obs)[0, :, 0]
    assert np.max(np.abs(batch - ref)) <= tol
    single = np.array([forward.far_field(sol, xhat) for xhat in obs])
    assert np.max(np.abs(single - ref)) <= tol


def test_multi_component_coupling():
    # Gamma4 solves the coupled block system; both components must carry
    # nonzero density under broadside illumination
    crack = geometry.catalog("G4")
    wave = PlaneWave(np.array([0.0, -1.0]), 2.0 * np.pi / 0.4)
    sol = forward.solve_density(crack, wave, BC.DIRICHLET, CFG64)
    assert len(sol.disc.component_slices) == 2
    for sl in sol.disc.component_slices:
        assert np.max(np.abs(sol.values[sl])) > 1e-3


def test_multi_component_neumann_reciprocity():
    # the coupled two-component hypersingular system must stay reciprocal
    crack = geometry.catalog("G4")
    k = 2.0 * np.pi / 0.4
    rng = np.random.default_rng(17)
    a1, a2 = rng.uniform(0.0, 2.0 * np.pi, 2)
    theta = np.array([np.cos(a1), np.sin(a1)])
    xhat = np.array([np.cos(a2), np.sin(a2)])
    s1 = forward.solve_density(crack, PlaneWave(theta, k), BC.NEUMANN, CFG64)
    s2 = forward.solve_density(crack, PlaneWave(-xhat, k), BC.NEUMANN, CFG64)
    u1 = forward.far_field(s1, xhat)
    u2 = forward.far_field(s2, -theta)
    assert abs(u1 - u2) / abs(u1) < 1e-6
    for sl in s1.disc.component_slices:
        assert np.max(np.abs(s1.values[sl])) > 1e-4


def test_stacked_two_component_build_equals_single_builds():
    # a stack of two-component cracks: the coupling blocks and both self
    # blocks of each crack are the ones its own build gives, bit for bit
    segments = geometry.Crack(
        list(geometry.line_segment([-0.5, 0.2], [0.4, 0.5]).components)
        + list(geometry.line_segment([-0.3, -0.6], [0.6, -0.2]).components)
    )
    cracks = [geometry.catalog("G4"), segments]
    thetas = np.array([[0.6, -0.8], [-1.0, 0.0]])
    disc = forward.discretize(cracks, BC.DIRICHLET, CFG64)
    values, flat = forward._solve_many(disc, K_HALF, thetas)
    for b, crack in enumerate(cracks):
        one_values, one_flat = forward._solve_many(
            forward.discretize([crack], BC.DIRICHLET, CFG64), K_HALF, thetas
        )
        assert np.array_equal(values[b], one_values[0])
        assert np.array_equal(flat[b], one_flat[0])


def test_neumann_system_takes_one_crack():
    cracks = [geometry.catalog("G1"), geometry.line_segment([-0.3, -0.6], [0.6, -0.2])]
    with pytest.raises(DomainError):
        forward.discretize(cracks, BC.NEUMANN, CFG64)


def test_grazing_neumann_segment_is_silent():
    # flat sound-hard segment, incidence along the segment: the incident
    # field already satisfies the boundary condition
    crack = geometry.catalog("G1")
    wave = PlaneWave(np.array([1.0, 0.0]), K_HALF)
    sol = forward.solve_density(crack, wave, BC.NEUMANN, CFG64)
    assert np.max(np.abs(sol.values)) < 1e-12


def test_config_validation():
    with pytest.raises(ConfigError):
        NystromConfig(nodes_per_arc=8)
    with pytest.raises(ConfigError):
        NystromConfig(nodes_per_arc=33)
    with pytest.raises(DomainError):
        PlaneWave(np.array([1.0, 1.0]), K_HALF)
    with pytest.raises(DomainError):
        PlaneWave(np.array([1.0, 0.0]), -2.0)


def test_far_field_requires_unit_direction():
    crack = geometry.catalog("G1")
    wave = PlaneWave(np.array([0.0, -1.0]), K_HALF)
    sol = forward.solve_density(crack, wave, BC.DIRICHLET, CFG64)
    with pytest.raises(DomainError):
        forward.far_field(sol, np.array([1.0, 1.0]))


@pytest.mark.parametrize("midpoint", [True, False])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_lattice_log_weights_match_direct(n, midpoint):
    lattice = forward._lattice_log_weights(n)
    assert lattice is forward._lattice_log_weights(n)
    assert not lattice.flags.writeable
    scale = np.max(np.abs(lattice))
    p = np.arange(2 * n)
    assert np.max(np.abs(lattice - forward._km_log_weights(n, p * np.pi / n))) < 1e-13 * scale
    grid = forward._NodeGrid(n, midpoint)
    tau = grid.tau
    direct = 0.5 * (
        forward._km_log_weights(n, tau[:, None] - tau[None, :])
        + forward._km_log_weights(n, tau[:, None] + tau[None, :])
    )
    assert np.max(np.abs(forward._grid_log_weights(grid) - direct)) < 1e-13 * scale


def _general_slp_system(k, disc):
    # the off-node path at a copy of the grid's own tau: direct weights,
    # one Hankel evaluation per block entry
    grid, slices = disc.grid, disc.component_slices
    return np.stack(
        [
            np.block(
                [
                    [
                        forward._slp_quad_matrix(
                            k, grid.tau.copy(), points[ra], grid, points[rb],
                            same_arc=ra == rb, tgt_speed=speed[ra],
                        )
                        for rb in slices
                    ]
                    for ra in slices
                ]
            )
            for points, speed in zip(disc.points, disc.speed)
        ]
    )


@pytest.mark.parametrize("name, bc", [("G4", BC.DIRICHLET), ("G1", BC.NEUMANN)])
def test_on_grid_build_matches_general_path(name, bc, monkeypatch):
    crack = geometry.catalog(name)
    cfg = NystromConfig(nodes_per_arc=32)
    k = 2.0 * np.pi / 0.4

    disc = forward.discretize([crack], bc, cfg)
    assert len(disc.component_slices) == len(crack.components)

    def build():
        if bc is BC.NEUMANN:
            return forward._build_neumann(disc, k)
        return forward._slp_system(k, disc)[0]

    fast = build()
    monkeypatch.setattr(forward, "_slp_system", _general_slp_system)
    reference = build()
    assert np.max(np.abs(fast - reference)) < 1e-13 * np.max(np.abs(reference))


def test_two_component_neumann_operator_matches_reference():
    # the cross-component blocks use the normal products nu_a(i) . nu_b(j),
    # the sine basis of the source component and the interpolation rows of
    # the target component; here each is formed afresh from the arcs
    crack = geometry.catalog("G4")
    k = 2.0 * np.pi / 0.4
    disc = forward.discretize([crack], BC.NEUMANN, NystromConfig(nodes_per_arc=32))
    q_mat = forward._slp_system(k, disc)[0]
    grid = disc.grid
    blocks = []
    for arc_a, rows in zip(crack.components, disc.component_slices):
        speed_a = np.linalg.norm(arc_a.tangents(grid.t), axis=1)
        interp_a = forward._interp_derivative_rows(grid) / (speed_a * grid.sin_tau)[1:-1, None]
        line = []
        for arc_b, cols in zip(crack.components, disc.component_slices):
            q_ab = q_mat[rows, cols]
            nu_dot = np.einsum("id,jd->ij", arc_a.normals(grid.t), arc_b.normals(grid.t))
            orders = np.arange(1, grid.n)
            sin_b = np.sin(np.outer(grid.tau, orders))
            dcos_b = np.cos(np.outer(grid.tau, orders)) * orders
            jacobian_b = np.linalg.norm(arc_b.tangents(grid.t), axis=1) * grid.sin_tau
            part1 = (k * k) * ((q_ab * nu_dot)[1:-1] * jacobian_b) @ sin_b
            line.append(part1 + interp_a @ (q_ab @ dcos_b))
        blocks.append(line)
    reference = np.block(blocks)
    fast = forward._build_neumann(disc, k)
    assert np.max(np.abs(fast - reference)) < 1e-12 * np.max(np.abs(reference))
