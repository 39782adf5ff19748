"""Gauss-Newton refinement tests on the bundled reference scenario."""

import numpy as np
import pytest

from arcmig import cli, forward, msr, refine
from arcmig.errors import DomainError, IterationError
from arcmig.forward import BoundaryCondition as BC
from arcmig.forward import NystromConfig, PlaneWave, solve_density
from arcmig.geometry import catalog, chebyshev_graph_arc, chebyshev_value

from _oracles import far_field_direct_sums


@pytest.fixture(scope="module")
def scenario():
    return refine.reference_scenario()


def test_chebyshev_matches_cosine_form():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=6)
    theta = rng.uniform(0.0, np.pi, 100)
    direct = sum(coeffs[j] * np.cos(j * theta) for j in range(6))
    assert np.max(np.abs(chebyshev_value(coeffs, np.cos(theta)) - direct)) < 1e-12


def test_truth_residual_vanishes_with_matched_nodes(scenario):
    initial, truth, _ = scenario
    data_matched = refine.synthesize_data(
        truth.crack(),
        2.0 * np.pi / 0.5,
        np.array([0.0, -1.0]),
        msr.DirectionSet(np.pi / 6.0, 5.0 * np.pi / 6.0, 8).directions(),
        NystromConfig(nodes_per_arc=64),
    )
    assert refine.residual(truth, data_matched) <= 1e-10


def test_data_and_residual_match_direct_far_field_sums(scenario):
    # refinement data and residuals come from the batch far-field formula;
    # they agree with per-direction sums within 1e-13 relative
    initial, truth, data = scenario
    k, theta, obs = data.k, data.theta, data.observation_dirs
    wave = PlaneWave(theta, k)
    truth_sol = solve_density(truth.crack(), wave, BC.DIRICHLET, NystromConfig(nodes_per_arc=128))
    ref_values = far_field_direct_sums(truth_sol, obs)
    assert np.max(np.abs(data.values - ref_values)) <= 1e-13 * np.max(np.abs(ref_values))
    guess_sol = solve_density(initial.crack(), wave, BC.DIRICHLET, NystromConfig(nodes_per_arc=64))
    diff = data.values - far_field_direct_sums(guess_sol, obs)
    ref_residual = 0.5 * float(np.vdot(diff, diff).real)
    assert refine.residual(initial, data) == pytest.approx(ref_residual, rel=1e-13)


def test_residual_permutation_invariant(scenario):
    initial, truth, data = scenario
    perm = np.random.default_rng(3).permutation(data.values.size)
    permuted = refine.FarFieldData(
        k=data.k,
        theta=data.theta,
        observation_dirs=data.observation_dirs[perm],
        values=data.values[perm],
    )
    assert refine.residual(initial, data) == pytest.approx(
        refine.residual(initial, permuted), rel=1e-14
    )


def test_residual_grows_with_coefficient_bump(scenario):
    _, truth, data = scenario
    bumped = truth.coefficients.copy()
    bumped[0] += 0.1
    assert refine.residual(bumped, data) > refine.residual(truth, data)


def test_jacobian_step_independence(scenario):
    # FD Jacobian columns at 1e-6 match the 1e-5 evaluation to rel 1e-3
    initial, _, data = scenario
    cfg = NystromConfig(nodes_per_arc=64)
    coeffs = initial.coefficients

    def column(j, h):
        up = coeffs.copy()
        up[j] += h
        dn = coeffs.copy()
        dn[j] -= h
        ru = refine._residual_vectors([up], data, cfg)[0]
        rd = refine._residual_vectors([dn], data, cfg)[0]
        return (ru - rd) / (2.0 * h)

    for j in range(coeffs.size):
        c6 = column(j, 1e-6)
        c5 = column(j, 1e-5)
        assert np.linalg.norm(c6 - c5) / np.linalg.norm(c6) < 1e-3


def fd_rows(coeffs, h):
    """The 2p central-difference coefficient vectors: +h bumps, then -h."""
    rows = []
    for sign in (1.0, -1.0):
        for j in range(coeffs.size):
            bumped = coeffs.copy()
            bumped[j] += sign * h
            rows.append(bumped)
    return rows


def test_stacked_solve_equals_stacks_of_one(scenario):
    # one build over the 12 FD-perturbed reference cracks gives, bit for
    # bit, the densities and far fields of each crack solved on its own
    initial, _, data = scenario
    cfg = NystromConfig(nodes_per_arc=64)
    cracks = [chebyshev_graph_arc(c) for c in fd_rows(initial.coefficients, 1e-6)]
    wave = PlaneWave(data.theta, data.k)
    obs, thetas = data.observation_dirs, data.theta[None, :]
    disc = forward.discretize(cracks, BC.DIRICHLET, cfg)
    values, flat = forward._solve_many(disc, data.k, thetas)
    fields = forward.far_fields(disc, data.k, thetas, obs)[..., 0]
    assert values.shape == (12, 64, 1) and fields.shape == (12, 8)
    for b, crack in enumerate(cracks):
        single = solve_density(crack, wave, BC.DIRICHLET, cfg)
        assert np.array_equal(values[b, :, 0], single.values)
        assert np.array_equal(flat[b, :, 0], single.flat)
        one_disc = forward.discretize([crack], BC.DIRICHLET, cfg)
        one = forward.far_fields(one_disc, data.k, thetas, obs)[0, :, 0]
        assert np.array_equal(fields[b], one)
        by_density = forward.far_field_matrix(
            single.values[:, None], single.disc, single.k, obs
        )[0, :, 0]
        assert np.array_equal(fields[b], by_density)


def test_stack_needs_one_component_count():
    with pytest.raises(DomainError):
        forward.discretize([catalog("G1"), catalog("G4")], BC.DIRICHLET)


def test_far_field_data_rejects_a_non_unit_direction():
    with pytest.raises(DomainError, match="unit vector"):
        refine.FarFieldData(k=10.0, theta=[1.0, 1.0], observation_dirs=[[1.0, 0.0]], values=[1.0])


def _analytic_residuals(monkeypatch, residual_of, calls=None):
    """Replace the far-field residual rows by ``residual_of`` applied to
    each coefficient row; each call's rows are appended to ``calls``."""

    def rows_residual(coeff_rows, data, cfg):
        rows = np.asarray(coeff_rows, dtype=np.float64)
        if calls is not None:
            calls.append(rows.copy())
        return np.array([residual_of(row) for row in rows])

    monkeypatch.setattr(refine, "_residual_vectors", rows_residual)


def _half_square(vec):
    return 0.5 * float(vec @ vec)


def test_rejected_step_escalates_the_damping(monkeypatch, scenario):
    # Rosenbrock residuals: from (-1.2, 1) the undamped Gauss-Newton step
    # raises R from 12.1 to ~1171, so it is retried with more damping
    def rosenbrock(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    calls = []
    _analytic_residuals(monkeypatch, rosenbrock, calls)
    start = np.array([-1.2, 1.0])
    traj = refine.newton_refine(start, scenario[2], refine.RefineConfig(max_iters=4))
    # calls: the start, the Jacobian stack, then the damped trials of step 1
    trials = []
    for rows in calls[2:]:
        if len(rows) != 1:
            break
        trials.append(_half_square(rosenbrock(rows[0])))
    assert len(trials) >= 2
    assert trials[0] > traj[0].residual_value
    assert np.array_equal(traj[1].coefficients, calls[1 + len(trials)][0])
    assert trials[-1] == traj[1].residual_value <= traj[0].residual_value
    residuals = [s.residual_value for s in traj]
    assert len(traj) > 2
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))


def test_no_damping_level_lowers_the_residual(monkeypatch, scenario):
    # a kink at the start point: every step along the FD gradient raises
    # R, at every damping level, so the trajectory ends at iteration 0
    start = np.array(refine.REFERENCE_INITIAL)

    def kinked(x):
        t = x[0] - start[0]
        return np.array([1.0 + (t if t >= 0.0 else -2.0 * t), 0.5])

    _analytic_residuals(monkeypatch, kinked)
    traj = refine.newton_refine(start, scenario[2])
    assert [s.iteration for s in traj] == [0]
    assert traj[0].residual_value == _half_square(kinked(start))


def test_non_finite_residual_raises_with_the_last_state(monkeypatch, scenario):
    # linear residuals that turn NaN on the second Jacobian stack: one
    # Gauss-Newton step is taken, then the refinement stops with its state
    target = np.array([0.5, -0.25])
    jacobians = []

    def rows_residual(coeff_rows, data, cfg):
        rows = np.asarray(coeff_rows, dtype=np.float64)
        if len(rows) > 1:
            jacobians.append(rows)
        vecs = rows - target
        return np.full_like(vecs, np.nan) if len(jacobians) == 2 else vecs

    monkeypatch.setattr(refine, "_residual_vectors", rows_residual)
    with pytest.raises(IterationError, match="non-finite") as info:
        refine.newton_refine(np.array([3.0, 2.0]), scenario[2])
    state = info.value.last_state
    assert isinstance(state, refine.NewtonState) and state.iteration == 1
    assert np.allclose(state.coefficients, target)
    assert state.residual_value < 1e-12


def test_stacked_jacobian_equals_column_loop(scenario):
    initial, _, data = scenario
    cfg = NystromConfig(nodes_per_arc=64)
    coeffs, h = initial.coefficients, 1e-6
    reference = np.empty((2 * data.values.size, coeffs.size))
    for j in range(coeffs.size):
        up = coeffs.copy()
        up[j] += h
        dn = coeffs.copy()
        dn[j] -= h
        reference[:, j] = (
            refine._residual_vectors([up], data, cfg)[0]
            - refine._residual_vectors([dn], data, cfg)[0]
        ) / (2.0 * h)
    jac = refine._fd_jacobian(coeffs, lambda rows: refine._residual_vectors(rows, data, cfg), h)
    assert np.array_equal(jac, reference)
    assert jac.flags.c_contiguous


def test_start_at_truth_stops_immediately(scenario):
    _, truth, _ = scenario
    data_matched = refine.synthesize_data(
        truth.crack(),
        2.0 * np.pi / 0.5,
        np.array([0.0, -1.0]),
        msr.DirectionSet(np.pi / 6.0, 5.0 * np.pi / 6.0, 8).directions(),
        NystromConfig(nodes_per_arc=64),
    )
    traj = refine.newton_refine(truth, data_matched)
    assert traj[-1].iteration <= 1
    assert traj[-1].residual_value <= 1e-10


def test_reference_refinement_converges(scenario):
    initial, truth, data = scenario
    traj = refine.newton_refine(initial, data)
    assert traj[-1].iteration <= 10
    assert np.max(np.abs(traj[-1].coefficients - truth.coefficients)) < 0.05
    residuals = [s.residual_value for s in traj]
    assert all(b <= a + 1e-12 for a, b in zip(residuals[1:], residuals[2:]))


def test_noisy_refinement_stalls_at_noise_floor():
    # with measurement noise the stop rule freezes the iteration near the
    # noise floor instead of chasing the data into the noise
    initial, truth, data = refine.reference_scenario(noise=(15.0, 42))
    traj = refine.newton_refine(initial, data)
    residuals = [s.residual_value for s in traj]
    assert traj[-1].iteration <= 10
    assert residuals[-1] < residuals[0]
    assert all(b <= a + 1e-12 for a, b in zip(residuals[1:], residuals[2:]))
    # the data's noise level bounds the attainable residual from below
    assert residuals[-1] > 1e-4


def test_catalog_gamma2_close_to_reference_expansion():
    # the reference degree-5 coefficients track the catalog profile; the
    # measured ceiling is ~0.028 (coefficients are two-decimal roundings)
    truth = np.array(refine.REFERENCE_TRUE)
    s = np.linspace(-1.0, 1.0, 2001)
    crack = catalog("G2")
    y_cat = np.atleast_2d(crack.components[0].points(s))[:, 1]
    dev = np.max(np.abs(y_cat - chebyshev_value(truth, s)))
    assert dev < 0.03


def test_initial_guess_from_map():
    # scripted convenience: fit the ridge of an imaging map; useful when
    # the map itself is clean (alias-free direction count): the G2,TM
    # preset at 96 directions in place of 28
    cfg = cli.preset_config("G2,TM", seed=5, snr_db=15.0)
    cfg.count = 96
    guess = refine.initial_guess_from_map(cli.run_pipeline(cfg).image, degree=5)
    s_axis = np.linspace(-1.0, 1.0, 401)
    true_prof = chebyshev_value(np.array(refine.REFERENCE_TRUE), s_axis)
    assert np.max(np.abs(guess.profile(s_axis) - true_prof)) < 0.1
    # the guess lands in the Gauss-Newton basin of the reference scenario
    _, truth, data = refine.reference_scenario()
    traj = refine.newton_refine(guess, data)
    assert np.max(np.abs(traj[-1].coefficients - truth.coefficients)) < 0.05


def test_trajectory_csv_layout(tmp_path, scenario):
    initial, _, data = scenario
    traj = refine.newton_refine(initial, data, refine.RefineConfig(max_iters=2))
    path = tmp_path / "traj.csv"
    refine.save_trajectory(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,a0,a1,a2,a3,a4,a5,R"
    assert lines[1].startswith("0,")
    assert len(lines) == len(traj) + 1
    fields = lines[1].split(",")
    assert len(fields) == 8
    assert float(fields[-1]) == pytest.approx(traj[0].residual_value)
