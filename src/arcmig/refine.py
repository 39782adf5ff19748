"""Newton-type shape refinement of a Chebyshev-graph crack from far-field
data: damped Gauss-Newton on the stacked real/imaginary residual with a
central finite-difference Jacobian.

The damping escalates (Levenberg style) whenever a trial step would
increase the residual, so the trajectory is non-increasing after the first
step by construction; the base damping is the configured value.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, IterationError
from .forward import BoundaryCondition, NystromConfig, PlaneWave, far_field_many, solve_density
from .geometry import chebyshev_graph_arc, chebyshev_value, validate_crack
from .msr import NoiseSpec, noisy_values

__all__ = [
    "ChebyshevCrack",
    "FarFieldData",
    "NewtonState",
    "RefineConfig",
    "observation_directions",
    "synthesize_data",
    "residual",
    "newton_refine",
    "initial_guess_from_map",
    "save_trajectory",
    "reference_scenario",
    "REFERENCE_INITIAL",
    "REFERENCE_TRUE",
]

REFERENCE_INITIAL = (0.2741, 0.2267, -0.2062, -0.0276, -0.0678, 0.0009)
REFERENCE_TRUE = (0.26, 0.23, -0.22, -0.03, -0.06, 0.00)


@dataclass(frozen=True)
class ChebyshevCrack:
    """Graph crack y = sum_j a_j T_j(s), s in [-1, 1]."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        if c.ndim != 1 or c.size < 1:
            raise ConfigError("coefficients must be a nonempty vector")
        object.__setattr__(self, "coefficients", c)

    def crack(self):
        return chebyshev_graph_arc(self.coefficients)

    def profile(self, s):
        return chebyshev_value(self.coefficients, np.asarray(s, dtype=np.float64))

    def validate(self):
        validate_crack(self.crack())
        return self


@dataclass(frozen=True)
class FarFieldData:
    """Observed far-field values u_inf(x_hat_j; theta) at one wavenumber."""

    k: float
    theta: np.ndarray
    observation_dirs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observation_dirs, dtype=np.float64))
        vals = np.asarray(self.values, dtype=np.complex128)
        if obs.shape[0] != vals.shape[0]:
            raise ConfigError("observation count does not match data values")
        object.__setattr__(self, "observation_dirs", obs)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))


@dataclass(frozen=True)
class NewtonState:
    iteration: int
    coefficients: np.ndarray
    residual_value: float


@dataclass(frozen=True)
class RefineConfig:
    stop_tol: float = 0.001
    max_iters: int = 20
    fd_step: float = 1e-6
    damping: float = 1e-8

    def __post_init__(self):
        if min(self.stop_tol, self.fd_step, self.damping) <= 0 or self.max_iters <= 0:
            raise ConfigError("refine parameters must be positive")


def observation_directions(alpha, beta, count):
    """x_hat_j on the aperture arc, endpoints included."""
    ang = alpha + (beta - alpha) * np.arange(count) / (count - 1)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def synthesize_data(
    crack,
    k,
    theta,
    observation_dirs,
    cfg: NystromConfig = NystromConfig(nodes_per_arc=128),
    noise=None,
) -> FarFieldData:
    """Forward-solve a truth crack and record far-field data; optional
    (snr_db, seed) noise with the Frobenius-calibrated convention."""
    sol = solve_density(crack, PlaneWave(np.asarray(theta), k), BoundaryCondition.DIRICHLET, cfg)
    values = far_field_many(sol, observation_dirs)
    if noise is not None:
        values = noisy_values(values, NoiseSpec(*noise))
    return FarFieldData(k=k, theta=np.asarray(theta), observation_dirs=observation_dirs, values=values)


def _residual_vector(coeffs, data: FarFieldData, cfg: NystromConfig):
    crack = chebyshev_graph_arc(np.asarray(coeffs, dtype=np.float64))
    sol = solve_density(crack, PlaneWave(data.theta, data.k), BoundaryCondition.DIRICHLET, cfg)
    diff = data.values - far_field_many(sol, data.observation_dirs)
    return np.concatenate([diff.real, diff.imag])


def residual(coeffs, data: FarFieldData, cfg: NystromConfig = NystromConfig(nodes_per_arc=64)):
    """Discrete least-square functional R = 1/2 sum_j |u_true - u_comp|^2."""
    if isinstance(coeffs, ChebyshevCrack):
        coeffs = coeffs.coefficients
    vec = _residual_vector(coeffs, data, cfg)
    return 0.5 * float(vec @ vec)


def newton_refine(
    initial,
    data: FarFieldData,
    cfg: RefineConfig = RefineConfig(),
    solver_cfg: NystromConfig = NystromConfig(nodes_per_arc=64),
) -> list:
    """Damped Gauss-Newton trajectory from the initial coefficients.

    Stops when |R(n) - R(n-1)| < stop_tol or at max_iters; returns the full
    trajectory of `NewtonState` (iteration 0 included)."""
    if isinstance(initial, ChebyshevCrack):
        coeffs = initial.coefficients.copy()
    else:
        coeffs = np.asarray(initial, dtype=np.float64).copy()
    ChebyshevCrack(coeffs).validate()
    p1 = coeffs.size

    def safe_residual_vec(c):
        vec = _residual_vector(c, data, solver_cfg)
        if not np.all(np.isfinite(vec)):
            raise IterationError(
                "non-finite residual during refinement", last_state=trajectory[-1]
            )
        return vec

    trajectory = []
    vec = _residual_vector(coeffs, data, solver_cfg)
    r_val = 0.5 * float(vec @ vec)
    trajectory.append(NewtonState(0, coeffs.copy(), r_val))
    for it in range(1, cfg.max_iters + 1):
        jac = np.empty((vec.size, p1))
        for j in range(p1):
            bumped_up = coeffs.copy()
            bumped_up[j] += cfg.fd_step
            bumped_dn = coeffs.copy()
            bumped_dn[j] -= cfg.fd_step
            jac[:, j] = (safe_residual_vec(bumped_up) - safe_residual_vec(bumped_dn)) / (
                2.0 * cfg.fd_step
            )
        jtj = jac.T @ jac
        jtr = jac.T @ vec
        mu = cfg.damping
        step = None
        new_vec = None
        new_r = None
        while mu <= 1e8:
            try:
                trial = np.linalg.solve(jtj + mu * np.eye(p1), -jtr)
            except np.linalg.LinAlgError as exc:
                raise IterationError(
                    "singular damped normal equations", last_state=trajectory[-1]
                ) from exc
            trial_vec = safe_residual_vec(coeffs + trial)
            trial_r = 0.5 * float(trial_vec @ trial_vec)
            if trial_r <= r_val:
                step, new_vec, new_r = trial, trial_vec, trial_r
                break
            mu *= 100.0
        if step is None:
            # no damping level decreases R: already at a local minimum
            break
        coeffs = coeffs + step
        vec, prev_r, r_val = new_vec, r_val, new_r
        trajectory.append(NewtonState(it, coeffs.copy(), r_val))
        if abs(r_val - prev_r) < cfg.stop_tol:
            break
    return trajectory


def save_trajectory(trajectory: Sequence[NewtonState], path):
    """CSV trajectory: iter,a0,...,ap,R."""
    p1 = trajectory[0].coefficients.size
    header = "iter," + ",".join(f"a{j}" for j in range(p1)) + ",R"
    lines = [header]
    for state in trajectory:
        coeffs = ",".join(format(a, ".17g") for a in state.coefficients)
        lines.append(f"{state.iteration},{coeffs},{state.residual_value:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def initial_guess_from_map(image, degree=5, ridge_fraction=0.5):
    """Fit Chebyshev coefficients to the ridge of an imaging map.

    A scripted convenience, not a guaranteed procedure: per grid column,
    the best map value above ``ridge_fraction`` of the global peak marks a
    ridge point (x, y); the degree-``degree`` graph is then the
    value-weighted least-squares fit through those points.  Columns whose
    maxima stay below the threshold contribute nothing, so a partially
    imaged crack yields a guess supported only where the map saw it.
    """
    grid = image.grid
    rows = image.as_rows()                  # (ny, nx), y ascending
    peak = float(rows.max())
    if peak <= 0.0:
        raise ConfigError("map has no positive values to fit")
    xs = grid.xs()
    ys = grid.ys()
    best_iy = np.argmax(rows, axis=0)
    best_val = rows[best_iy, np.arange(grid.nx)]
    keep = best_val >= ridge_fraction * peak
    if np.count_nonzero(keep) <= degree:
        raise ConfigError("not enough ridge points above the threshold to fit")
    s_pts = xs[keep]
    y_pts = ys[best_iy[keep]]
    weights = best_val[keep]
    # Vandermonde in the T basis, weighted normal equations
    cols = [np.ones_like(s_pts), s_pts]
    for _ in range(2, degree + 1):
        cols.append(2.0 * s_pts * cols[-1] - cols[-2])
    vand = np.stack(cols[: degree + 1], axis=1)
    w_sqrt = np.sqrt(weights)[:, None]
    coeffs, *_ = np.linalg.lstsq(w_sqrt * vand, w_sqrt[:, 0] * y_pts, rcond=None)
    return ChebyshevCrack(coeffs)


def reference_scenario(noise=None, data_nodes=128):
    """The bundled reference refinement experiment: k = 2 pi / 0.5, eight
    observation directions on [pi/6, 5 pi/6], broadside incidence from
    above, truth = the reference coefficient crack."""
    k = 2.0 * np.pi / 0.5
    obs = observation_directions(np.pi / 6.0, 5.0 * np.pi / 6.0, 8)
    theta = np.array([0.0, -1.0])
    truth = ChebyshevCrack(np.array(REFERENCE_TRUE))
    data = synthesize_data(
        truth.crack(), k, theta, obs, NystromConfig(nodes_per_arc=data_nodes), noise=noise
    )
    return ChebyshevCrack(np.array(REFERENCE_INITIAL)), truth, data
