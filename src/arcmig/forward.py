"""Direct solver: layer densities and far-field patterns for plane-wave
scattering from open arcs, by a Nystrom discretization of the boundary
integral equations.

Both boundary conditions use the cosine substitution t = cos(tau): the
transformed densities are smooth 2pi-periodic functions and the kernel's
logarithmic singularity factors over the two lines sigma = tau and
sigma = 2pi - tau, each handled by spectrally accurate periodic
log-quadrature.  The Dirichlet single-layer equation is collocated on a
midpoint grid; the Neumann hypersingular operator is regularized with the
Maue identity (tangential-derivative form) and solved in a sine basis on
the endpoint grid, with trigonometric differentiation for the outer
arc-length derivative.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .backend import kernels
from .errors import ConfigError, DomainError, SolverError
from .geometry import Crack

__all__ = [
    "BoundaryCondition",
    "PlaneWave",
    "NystromConfig",
    "DensitySolution",
    "solve_density",
    "far_field",
    "far_field_matrix",
    "scattered_field",
    "boundary_residual",
]

_EULER_GAMMA = 0.5772156649015328606


class BoundaryCondition(Enum):
    """Dirichlet = TM polarization, Neumann = TE polarization."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"

    @classmethod
    def parse(cls, value):
        if isinstance(value, cls):
            return value
        key = str(value).strip().lower()
        if key in ("dirichlet", "tm"):
            return cls.DIRICHLET
        if key in ("neumann", "te"):
            return cls.NEUMANN
        raise ConfigError(f"unknown boundary condition {value!r}")


@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave exp(i k theta . x)."""

    direction: np.ndarray
    k: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.float64)
        object.__setattr__(self, "direction", d)
        if abs(np.hypot(d[0], d[1]) - 1.0) > 1e-9:
            raise DomainError(f"incident direction must be a unit vector, got {d}")
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise DomainError(f"wavenumber must be positive and finite, got {self.k}")

    def field(self, points):
        points = np.atleast_2d(points)
        return np.exp(1j * self.k * (points @ self.direction))


@dataclass(frozen=True)
class NystromConfig:
    nodes_per_arc: int = 128
    rhs_tolerance: float = 1e-8

    def __post_init__(self):
        if self.nodes_per_arc < 16 or self.nodes_per_arc % 2:
            raise ConfigError(
                f"nodes_per_arc must be even and >= 16, got {self.nodes_per_arc}"
            )
        if not self.rhs_tolerance > 0.0:
            raise ConfigError("rhs_tolerance must be positive")


class _ArcGrid:
    """Discretization of one component under t = cos(tau)."""

    def __init__(self, arc, n, midpoint):
        self.arc = arc
        self.n = n
        self.midpoint = midpoint
        if midpoint:
            self.tau = (2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)
            self.fold = np.ones(n)
        else:
            self.tau = np.arange(n + 1) * np.pi / n
            self.fold = np.ones(n + 1)
            self.fold[0] = self.fold[-1] = 0.5
        self.t = np.cos(self.tau)
        self.sin_tau = np.sin(self.tau)
        self.points = np.atleast_2d(arc.points(self.t))
        dz = np.atleast_2d(arc.tangents(self.t))
        self.speed = np.hypot(dz[:, 0], dz[:, 1])
        unit = dz / self.speed[:, None]
        self.normals = np.stack([-unit[:, 1], unit[:, 0]], axis=1)
        # |dz/dtau| = |z'(t)| sin(tau): the 1-form Jacobian of the substitution
        self.jacobian = self.speed * self.sin_tau
        self.quad_w = (np.pi / n) * self.fold * self.jacobian

    def size(self):
        return self.tau.size


def _km_log_weights(n, u):
    """Kussmaul-Martensen weights R(u) for the 2n-point periodic rule:
    integral of ln(4 sin^2((tau-sigma)/2)) f(sigma) over [0, 2pi]."""
    out = -(np.pi / n**2) * np.cos(n * u)
    for m in range(1, n):
        out -= (2.0 * np.pi / n) * np.cos(m * u) / m
    return out


@functools.cache
def _lattice_log_weights(n):
    """R(p pi / n) for p = 0 .. 2n-1, read-only.

    On both node grids every tau_i -+ sigma_j is such a lattice angle, so
    these 2n values are all the weights an on-grid block needs.  Each
    cosine is taken at the exact lattice angle (m p mod 2n) pi / n.
    Depends on n only: one O(n^2) build per node count, shared by every
    wavenumber and every solve; an entry holds 2n floats."""
    p = np.arange(2 * n)
    cos_lattice = np.cos(p * (np.pi / n))
    m = np.arange(1, n)
    series = cos_lattice[np.outer(p, m) % (2 * n)] @ (1.0 / m)
    out = -(np.pi / n**2) * cos_lattice[(n * p) % (2 * n)] - (2.0 * np.pi / n) * series
    out.flags.writeable = False
    return out


def _grid_log_weights(grid: _ArcGrid):
    """0.5 (R(tau_i - sigma_j) + R(tau_i + sigma_j)) with targets = the
    grid's own nodes: tau_i - sigma_j = (i - j) pi / n, and tau_i + sigma_j
    = (i + j + 1) pi / n on the midpoint grid, (i + j) pi / n on the
    endpoint grid."""
    n = grid.n
    idx = np.arange(grid.size())
    lattice = _lattice_log_weights(n)
    minus = (idx[:, None] - idx[None, :]) % (2 * n)
    plus = (idx[:, None] + idx[None, :] + (1 if grid.midpoint else 0)) % (2 * n)
    return 0.5 * (lattice[minus] + lattice[plus])


def _hankel0(z):
    j0, _, y0, _ = kernels.jy01v(np.ravel(z))
    return (j0 + 1j * y0).reshape(np.shape(z))


def _hankel1v(z):
    _, j1, _, y1 = kernels.jy01v(np.ravel(z))
    return (j1 + 1j * y1).reshape(np.shape(z))


def _distances(tgt_points, src_points):
    diff = tgt_points[:, None, :] - src_points[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def _slp_block(k, r, hankel, src: _ArcGrid, rw=None, tgt_t=None, tgt_speed=None):
    """Matrix Q with S[g](x_i) = sum_j Q_ij g(sigma_j), where g is the even
    2pi-periodic 1-form density sampled on ``src`` nodes, from the
    target-node distances ``r`` and ``hankel`` = H0(k r) (ignored where
    r <= 1e-14).

    Log weights ``rw`` engage the split of both logarithmic singular lines
    for targets on the source arc, parameterized by ``tgt_t`` = cos(tau).
    """
    n = src.n
    if rw is None:
        if np.min(r) <= 0.0:
            raise SolverError("coincident points between distinct components")
        return (np.pi / n) * src.fold[None, :] * (0.25j) * hankel

    coincident = r <= 1e-14
    # J0(k r) is the real part of the same Hankel value
    m1 = -(1.0 / (4.0 * np.pi)) * hankel.real
    m1 = np.where(coincident, -1.0 / (4.0 * np.pi), m1)
    log_both = np.log(
        np.where(coincident, 1.0, 4.0 * (tgt_t[:, None] - src.t[None, :]) ** 2)
    )
    m_full = np.where(coincident, 0.0, (0.25j) * hankel)
    m2 = m_full - m1 * log_both
    if coincident.any():
        if tgt_speed is None:
            raise SolverError("coincident targets need tangent speeds")
        diag_val = (
            0.25j
            - _EULER_GAMMA / (2.0 * np.pi)
            - np.log(k * tgt_speed / 4.0) / (2.0 * np.pi)
        )
        m2 = np.where(coincident, diag_val[:, None], m2)
    return src.fold[None, :] * (rw * m1 + (np.pi / n) * m2)


def _slp_quad_matrix(k, tgt_tau, tgt_points, src: _ArcGrid, same_arc, tgt_speed=None):
    """`_slp_block` for arbitrary targets; ``same_arc`` means the targets
    are parameterized by ``tgt_tau`` on the source arc."""
    r = _distances(tgt_points, src.points)
    if not same_arc:
        return _slp_block(k, r, _hankel0(k * r), src)
    n = src.n
    u_minus = tgt_tau[:, None] - src.tau[None, :]
    u_plus = tgt_tau[:, None] + src.tau[None, :]
    rw = 0.5 * (_km_log_weights(n, u_minus) + _km_log_weights(n, u_plus))
    hankel = _hankel0(k * np.where(r <= 1e-14, 1.0, r))
    return _slp_block(k, r, hankel, src, rw, np.cos(tgt_tau), tgt_speed)


def _slp_system(k, grids):
    """`_slp_block` over all nodes of all components, targets = the nodes
    themselves, as one square matrix.

    Distances are symmetric, so H0(k r) is evaluated once per unordered
    node pair and mirrored; self blocks take their log weights from the
    lattice."""
    points = np.concatenate([g.points for g in grids])
    r = _distances(points, points)
    upper = np.triu_indices(r.shape[0], 1)
    pair_vals = _hankel0(k * r[upper])
    hankel = np.zeros(r.shape, dtype=np.complex128)
    hankel[upper] = pair_vals
    hankel.T[upper] = pair_vals
    edges = np.cumsum([0] + [g.size() for g in grids])
    q_mat = np.empty_like(hankel)
    for ia, ga in enumerate(grids):
        rows = slice(edges[ia], edges[ia + 1])
        for ib, gb in enumerate(grids):
            cols = slice(edges[ib], edges[ib + 1])
            if ia == ib:
                q_mat[rows, cols] = _slp_block(
                    k, r[rows, cols], hankel[rows, cols], ga,
                    _grid_log_weights(ga), ga.t, ga.speed,
                )
            else:
                q_mat[rows, cols] = _slp_block(k, r[rows, cols], hankel[rows, cols], gb)
    return q_mat


def _interp_derivative_rows(grid: _ArcGrid):
    """Rows mapping samples of an even periodic function at the endpoint
    grid to its tau-derivative divided by |z'| sin(tau) at interior nodes."""
    n = grid.n
    orders = np.arange(n + 1)
    c_mat = np.cos(np.outer(grid.tau, orders))            # samples = C @ coeffs
    tau_int = grid.tau[1:-1]
    d_mat = -np.sin(np.outer(tau_int, orders)) * orders[None, :]
    rows = d_mat @ np.linalg.inv(c_mat)
    scale = 1.0 / (grid.speed[1:-1] * grid.sin_tau[1:-1])
    return scale[:, None] * rows


def _build_dirichlet(crack, k, cfg):
    grids = [_ArcGrid(arc, cfg.nodes_per_arc, midpoint=True) for arc in crack.components]
    return grids, _slp_system(k, grids)


def _build_neumann(crack, k, cfg):
    grids = [_ArcGrid(arc, cfg.nodes_per_arc, midpoint=False) for arc in crack.components]
    n_unknown = sum(g.n - 1 for g in grids)
    t_mat = np.empty((n_unknown, n_unknown), dtype=np.complex128)
    sin_bases = []
    for gb in grids:
        orders = np.arange(1, gb.n)
        sin_bases.append(
            (np.sin(np.outer(gb.tau, orders)), np.cos(np.outer(gb.tau, orders)) * orders)
        )
    interp_rows = [_interp_derivative_rows(g) for g in grids]
    q_mat = _slp_system(k, grids)
    q_edges = np.cumsum([0] + [g.size() for g in grids])
    row = 0
    for ia, ga in enumerate(grids):
        col = 0
        for ib, gb in enumerate(grids):
            q_ab = q_mat[q_edges[ia] : q_edges[ia + 1], q_edges[ib] : q_edges[ib + 1]]
            nu_dot = ga.normals @ gb.normals.T
            sin_b, dcos_b = sin_bases[ib]
            part1 = (k * k) * ((q_ab * nu_dot)[1:-1, :] * gb.jacobian[None, :]) @ sin_b
            part2 = interp_rows[ia] @ (q_ab @ dcos_b)
            t_mat[row : row + ga.n - 1, col : col + gb.n - 1] = part1 + part2
            col += gb.n - 1
        row += ga.n - 1
    return grids, t_mat, sin_bases


def _solve_linear(a_mat, rhs, what):
    try:
        sol = np.linalg.solve(a_mat, rhs)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(a_mat))
        raise SolverError(f"{what} system is singular (cond={cond:.3e})", cond) from exc
    if not np.all(np.isfinite(sol)):
        cond = float(np.linalg.cond(a_mat))
        raise SolverError(f"{what} solve produced non-finite values (cond={cond:.3e})", cond)
    return sol


@dataclass(frozen=True)
class DensitySolution:
    """Layer density for one crack, wavenumber and incident direction.

    ``values`` holds the physical density (phi for Dirichlet, psi for
    Neumann) at the quadrature nodes of all components, ``quad_weights``
    the matching arc-length quadrature weights, so that integrals over the
    crack are plain weighted sums.
    """

    bc: BoundaryCondition
    k: float
    theta: np.ndarray
    nodes_t: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    quad_weights: np.ndarray
    values: np.ndarray
    component_slices: tuple
    _grids: tuple
    _flat: np.ndarray  # transformed even/odd density samples (solver unknowns)


def _solve_many(crack: Crack, k: float, thetas: np.ndarray, bc, cfg: NystromConfig):
    """Shared-factorization solve for a batch of incident directions.

    Returns (template arrays, per-direction density matrix)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError(f"wavenumber must be positive and finite, got {k}")
    bc = BoundaryCondition.parse(bc)
    if bc is BoundaryCondition.DIRICHLET:
        grids, a_mat = _build_dirichlet(crack, k, cfg)
        pts = np.concatenate([g.points for g in grids])
        rhs = -np.exp(1j * k * (pts @ thetas.T))
        w = _solve_linear(a_mat, rhs, "Dirichlet")
        jac = np.concatenate([g.jacobian for g in grids])
        values = w / jac[:, None]
        flat = w
    else:
        grids, t_mat, sin_bases = _build_neumann(crack, k, cfg)
        pts_int = np.concatenate([g.points[1:-1] for g in grids])
        nu_int = np.concatenate([g.normals[1:-1] for g in grids])
        u_inc = np.exp(1j * k * (pts_int @ thetas.T))
        rhs = -1j * k * (nu_int @ thetas.T) * u_inc
        coeffs = _solve_linear(t_mat, rhs, "Neumann")
        blocks = []
        row = 0
        for g, (sin_b, _) in zip(grids, sin_bases):
            blocks.append(sin_b @ coeffs[row : row + g.n - 1])
            row += g.n - 1
        # the solver unknown is the double-layer density mu; the stored psi
        # follows the jump convention -psi = u_+ - u_- = mu, which is the
        # sign that makes the Neumann far-field formula below exact
        values = -np.concatenate(blocks)
        flat = values
    slices = []
    start = 0
    for g in grids:
        slices.append(slice(start, start + g.size()))
        start += g.size()
    template = dict(
        bc=bc,
        k=k,
        nodes_t=np.concatenate([g.t for g in grids]),
        points=np.concatenate([g.points for g in grids]),
        normals=np.concatenate([g.normals for g in grids]),
        quad_weights=np.concatenate([g.quad_w for g in grids]),
        component_slices=tuple(slices),
        _grids=tuple(grids),
    )
    return template, thetas, values, flat


def solve_density(crack: Crack, wave: PlaneWave, bc, cfg: NystromConfig = NystromConfig()):
    """Solve the boundary integral equation for one incident plane wave."""
    template, thetas, values, flat = _solve_many(
        crack, wave.k, wave.direction[None, :], bc, cfg
    )
    return DensitySolution(
        theta=thetas[0], values=values[:, 0], _flat=flat[:, 0], **template
    )


def _check_unit(obs):
    obs = np.asarray(obs, dtype=np.float64)
    if abs(np.hypot(obs[0], obs[1]) - 1.0) > 1e-9:
        raise DomainError(f"observation direction must be a unit vector, got {obs}")
    return obs


def far_field(density: DensitySolution, obs) -> complex:
    """Far-field pattern u_inf at one unit observation direction."""
    obs = _check_unit(obs)
    return complex(far_field_matrix(density.values[:, None], vars(density), obs[None, :])[0, 0])


def far_field_matrix(batch_values, template, obs_dirs):
    """Far field for a batch solve: rows = observation dirs, cols = incidences.

    ``template`` maps bc, k, points, normals and quad_weights, as the batch
    solver's template or ``vars()`` of a DensitySolution do; one density is
    the batch ``values[:, None]``."""
    obs_dirs = np.atleast_2d(np.asarray(obs_dirs, dtype=np.float64))
    k = template["k"]
    phases = np.exp(-1j * k * (obs_dirs @ template["points"].T))
    wq = template["quad_weights"]
    if template["bc"] is BoundaryCondition.DIRICHLET:
        pref = np.exp(1j * np.pi / 4.0) / math.sqrt(8.0 * np.pi * k)
        return pref * phases @ (wq[:, None] * batch_values)
    pref = -math.sqrt(k / (8.0 * np.pi)) * np.exp(-1j * np.pi / 4.0)
    proj = obs_dirs @ template["normals"].T
    return pref * (proj * phases) @ (wq[:, None] * batch_values)


def scattered_field(density: DensitySolution, x) -> complex:
    """Layer potential evaluated at an exterior point."""
    x = np.asarray(x, dtype=np.float64)
    diff = x[None, :] - density.points
    r = np.hypot(diff[:, 0], diff[:, 1])
    if np.min(r) <= 1e-12:
        raise DomainError("evaluation point lies on the crack")
    k = density.k
    if density.bc is BoundaryCondition.DIRICHLET:
        kernel = 0.25j * _hankel0(k * r)
    else:
        # u_scat = DLP[mu] with mu = -psi (stored values follow the jump
        # convention -psi = u_+ - u_-)
        cosang = (diff[:, 0] * density.normals[:, 0] + diff[:, 1] * density.normals[:, 1]) / r
        kernel = -0.25j * k * _hankel1v(k * r) * cosang
    return complex(np.sum(kernel * density.quad_weights * density.values))


def boundary_residual(density: DensitySolution, n_check: int = 64) -> float:
    """Max Dirichlet boundary-condition defect |u_inc + SLP[phi]| at
    off-node collocation points (independent of the solve's own nodes)."""
    if density.bc is not BoundaryCondition.DIRICHLET:
        raise DomainError("boundary residual check is defined for the Dirichlet case")
    k = density.k
    worst = 0.0
    for arc_slice, grid in zip(density.component_slices, density._grids):
        tau_star = (np.arange(n_check) + 0.37) * np.pi / n_check
        t_star = np.cos(tau_star)
        pts = np.atleast_2d(grid.arc.points(t_star))
        total = np.zeros(n_check, dtype=np.complex128)
        for other_slice, other in zip(density.component_slices, density._grids):
            q = _slp_quad_matrix(k, tau_star, pts, other, same_arc=other is grid)
            total += q @ density._flat[other_slice]
        u_inc = np.exp(1j * k * (pts @ density.theta))
        worst = max(worst, float(np.max(np.abs(total + u_inc))))
    return worst
