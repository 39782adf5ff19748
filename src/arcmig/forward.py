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

Everything that does not depend on the wavenumber (grids, node arrays,
node-pair distances, self-block log tables, the Neumann sine bases and
interpolation rows) lives in a `Discretization`, built once and shared by
every wavenumber of a sweep; a build at k adds only H0 over the node pairs,
the block fill, the solve and the far field.  The Dirichlet system takes a
stack of cracks with one component count and node count: H0 is one kernel
call over the node pairs of every crack, and the solve and far field are
batched, so each crack's arithmetic is the same as when it is solved alone.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import ConfigError, DomainError, SolverError
from .geometry import Crack, _pairwise_distances, check_unit_vector

__all__ = [
    "BoundaryCondition",
    "PlaneWave",
    "NystromConfig",
    "Discretization",
    "discretize",
    "DensitySolution",
    "solve_density",
    "far_fields",
    "far_field",
    "far_field_matrix",
    "scattered_field",
    "boundary_residual",
]

_EULER_GAMMA = 0.5772156649015328606
_RESIDUAL_POINTS = 64             # collocation points per arc of boundary_residual


class BoundaryCondition(Enum):
    """Dirichlet = TM polarization, Neumann = TE polarization."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"

    @classmethod
    def parse(cls, value):
        if isinstance(value, cls):
            return value
        key = str(value).strip().lower()
        if key == "dirichlet":
            return cls.DIRICHLET
        if key == "neumann":
            return cls.NEUMANN
        raise ConfigError(f"unknown boundary condition {value!r}")


@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave exp(i k theta . x)."""

    direction: np.ndarray
    k: float

    def __post_init__(self):
        d = check_unit_vector(self.direction, "incident direction")
        object.__setattr__(self, "direction", d)
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise DomainError(f"wavenumber must be positive and finite, got {self.k}")


@dataclass(frozen=True)
class NystromConfig:
    nodes_per_arc: int = 128

    def __post_init__(self):
        if self.nodes_per_arc < 16 or self.nodes_per_arc % 2:
            raise ConfigError(
                f"nodes_per_arc must be even and >= 16, got {self.nodes_per_arc}"
            )


class _NodeGrid:
    """The parameter nodes of every component under t = cos(tau): the
    midpoint grid (Dirichlet) or the endpoint grid (Neumann) of order n."""

    def __init__(self, n, midpoint):
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


def _grid_log_weights(grid: _NodeGrid):
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
    j0, y0 = kernels.jy0v(z)
    return j0 + 1j * y0


def _hankel1v(z):
    _, j1, _, y1 = kernels.jy01v(z)
    return j1 + 1j * y1


def _slp_block(k, hankel, grid: _NodeGrid, self_terms=None, tgt_speed=None):
    """Matrix Q with S[g](x_i) = sum_j Q_ij g(sigma_j), where g is the even
    2pi-periodic 1-form density sampled on the ``grid`` nodes of one source
    component, from ``hankel`` = H0(k r) at the target-node distances r.
    Leading axes of ``hankel`` and ``tgt_speed`` index a stack of cracks.

    ``self_terms`` = (rw, log_both, coincident) engages the split of both
    logarithmic singular lines for targets on the source arc: the log
    weights, log 4 (t_i - t_j)^2 in the parameters t = cos(tau) (0 where
    coincident), and the mask of coincident target-node pairs, where
    ``hankel`` is ignored and the limit with ``tgt_speed`` = |z'| applies.
    """
    n = grid.n
    if self_terms is None:
        return (np.pi / n) * grid.fold[None, :] * (0.25j) * hankel

    rw, log_both, coincident = self_terms
    # J0(k r) is the real part of the same Hankel value.  Two working
    # arrays, updated in place: a stack's temporaries are too large to
    # stay in cache
    m1 = -(1.0 / (4.0 * np.pi)) * hankel.real
    np.copyto(m1, -1.0 / (4.0 * np.pi), where=coincident)
    m2 = (0.25j) * hankel
    np.copyto(m2, 0.0, where=coincident)
    m2 -= m1 * log_both
    if coincident.any():
        if tgt_speed is None:
            raise SolverError("coincident targets need tangent speeds")
        diag_val = (
            0.25j
            - _EULER_GAMMA / (2.0 * np.pi)
            - np.log(k * tgt_speed / 4.0) / (2.0 * np.pi)
        )
        np.copyto(m2, diag_val[..., None], where=coincident)
    m1 *= rw
    m2 *= np.pi / n
    np.add(m1, m2, out=m2)
    return np.multiply(grid.fold[None, :], m2, out=m2)


def _slp_quad_matrix(k, tgt_tau, tgt_points, grid: _NodeGrid, src_points, same_arc,
                     tgt_speed=None):
    """`_slp_block` for arbitrary targets and a source component with nodes
    ``src_points`` on ``grid``; ``same_arc`` means the targets are
    parameterized by ``tgt_tau`` on the source arc."""
    r = _pairwise_distances(tgt_points, src_points)
    if not same_arc:
        if np.min(r) <= 0.0:
            raise SolverError("coincident points between distinct components")
        return _slp_block(k, _hankel0(k * r), grid)
    n = grid.n
    u_minus = tgt_tau[:, None] - grid.tau[None, :]
    u_plus = tgt_tau[:, None] + grid.tau[None, :]
    rw = 0.5 * (_km_log_weights(n, u_minus) + _km_log_weights(n, u_plus))
    coincident = r <= 1e-14
    log_both = np.log(
        np.where(coincident, 1.0, 4.0 * (np.cos(tgt_tau)[:, None] - grid.t[None, :]) ** 2)
    )
    hankel = _hankel0(k * np.where(coincident, 1.0, r))
    return _slp_block(k, hankel, grid, (rw, log_both, coincident), tgt_speed)


def _interp_derivative_rows(grid: _NodeGrid):
    """Rows mapping samples of an even periodic function at the endpoint
    grid to its tau-derivative at interior nodes; divided by |z'| sin(tau),
    they give the arc-length derivative on one component."""
    orders = np.arange(grid.n + 1)
    c_mat = np.cos(np.outer(grid.tau, orders))            # samples = C @ coeffs
    d_mat = -np.sin(np.outer(grid.tau[1:-1], orders)) * orders[None, :]
    return d_mat @ np.linalg.inv(c_mat)


@dataclass(frozen=True, eq=False)
class Discretization:
    """The wavenumber-independent part of the Nystrom system of a stack of
    B cracks with one component count, under one boundary condition and
    node count.  Build it with `discretize`; one instance serves every
    wavenumber of a sweep, and a build at k only adds H0 over the node
    pairs, the block fill, the solve and the far field.

    Every component shares the parameter nodes of ``grid``.  ``points``
    and ``normals`` are (B, N, 2), ``speed`` = |z'|, ``jacobian`` = |z'|
    sin(tau) and ``quad_weights`` (B, N), over the N nodes of all
    components; ``component_slices`` cut one component out of N.
    ``pairs`` and ``r_pairs`` are the upper-triangle node pairs of the
    whole system and their distances (B, P); ``self_terms`` = (rw,
    log_both, coincident) are the self-block tables of `_slp_block`, shared
    by every component.  The Neumann entries are empty for Dirichlet: the
    sine basis, the derivative-interpolation rows per component, the normal
    dot products per component pair, and the interior nodes and normals of
    the right-hand side."""

    cracks: tuple
    bc: BoundaryCondition
    nodes_per_arc: int
    grid: _NodeGrid
    points: np.ndarray
    normals: np.ndarray
    speed: np.ndarray
    jacobian: np.ndarray
    quad_weights: np.ndarray
    component_slices: tuple
    pairs: tuple
    r_pairs: np.ndarray
    self_terms: tuple
    sin_basis: tuple = ()
    interp_rows: tuple = ()
    normal_dots: tuple = ()
    interior_points: np.ndarray = None
    interior_normals: np.ndarray = None


def discretize(cracks, bc, cfg: NystromConfig = NystromConfig()) -> Discretization:
    """The wavenumber-independent tables of a stack of cracks, to be shared
    by every wavenumber of a frequency sweep; Neumann takes a stack of one."""
    bc = BoundaryCondition.parse(bc)
    if len({len(crack) for crack in cracks}) != 1:
        raise DomainError("a crack stack needs one shared, nonzero component count")
    dirichlet = bc is BoundaryCondition.DIRICHLET
    if not dirichlet and len(cracks) != 1:
        raise DomainError(f"the Neumann system takes one crack, got a stack of {len(cracks)}")
    grid = _NodeGrid(cfg.nodes_per_arc, midpoint=dirichlet)
    n_comp, size = len(cracks[0]), grid.size()
    stack = [crack.components for crack in cracks]
    points = np.stack([np.concatenate([arc.points(grid.t) for arc in arcs]) for arcs in stack])
    dz = np.stack([np.concatenate([arc.tangents(grid.t) for arc in arcs]) for arcs in stack])
    speed = np.hypot(dz[..., 0], dz[..., 1])
    unit = dz / speed[..., None]
    normals = np.stack([-unit[..., 1], unit[..., 0]], axis=-1)
    # |dz/dtau| = |z'(t)| sin(tau): the 1-form Jacobian of the substitution
    jacobian = speed * np.tile(grid.sin_tau, n_comp)
    slices = tuple(slice(ia * size, (ia + 1) * size) for ia in range(n_comp))
    # distances are symmetric: one entry per unordered node pair
    iu, ju = np.triu_indices(n_comp * size, 1)
    diff = points[:, iu] - points[:, ju]
    r_pairs = np.hypot(diff[..., 0], diff[..., 1])
    if np.any(r_pairs[:, iu // size != ju // size] <= 0.0):
        raise SolverError("coincident points between distinct components")
    coincident = np.eye(size, dtype=bool)
    t = grid.t
    log_both = np.log(np.where(coincident, 1.0, 4.0 * (t[:, None] - t[None, :]) ** 2))
    neumann = {}
    if not dirichlet:
        orders = np.arange(1, grid.n)
        rows = _interp_derivative_rows(grid)
        neumann = dict(
            sin_basis=(
                np.sin(np.outer(grid.tau, orders)),
                np.cos(np.outer(grid.tau, orders)) * orders,
            ),
            interp_rows=tuple(
                (1.0 / (speed[0, s][1:-1] * grid.sin_tau[1:-1]))[:, None] * rows for s in slices
            ),
            normal_dots=tuple(
                tuple(normals[0, sa] @ normals[0, sb].T for sb in slices) for sa in slices
            ),
            interior_points=np.concatenate([points[0, s][1:-1] for s in slices]),
            interior_normals=np.concatenate([normals[0, s][1:-1] for s in slices]),
        )
    return Discretization(
        cracks=tuple(cracks),
        bc=bc,
        nodes_per_arc=cfg.nodes_per_arc,
        grid=grid,
        points=points,
        normals=normals,
        speed=speed,
        jacobian=jacobian,
        quad_weights=(np.pi / grid.n) * np.tile(grid.fold, n_comp) * jacobian,
        component_slices=slices,
        pairs=(iu, ju),
        r_pairs=r_pairs,
        self_terms=(_grid_log_weights(grid), log_both, coincident),
        **neumann,
    )


def _slp_system(k, disc: Discretization):
    """`_slp_block` over all nodes of all components, targets = the nodes
    themselves, as one square matrix per crack: shape (B, N, N).

    H0(k r) is one kernel call over the node pairs of the whole stack,
    mirrored into both triangles."""
    iu, ju = disc.pairs
    pair_vals = _hankel0(k * disc.r_pairs)
    stack, size = disc.jacobian.shape
    hankel = np.zeros((stack, size, size), dtype=np.complex128)
    hankel[:, iu, ju] = pair_vals
    hankel[:, ju, iu] = pair_vals
    q_mat = np.empty_like(hankel)
    for rows in disc.component_slices:
        for cols in disc.component_slices:
            if rows == cols:
                q_mat[:, rows, cols] = _slp_block(
                    k, hankel[:, rows, cols], disc.grid, disc.self_terms, disc.speed[:, rows]
                )
            else:
                q_mat[:, rows, cols] = _slp_block(k, hankel[:, rows, cols], disc.grid)
    return q_mat


def _build_neumann(disc: Discretization, k):
    """The regularized hypersingular matrix of the crack at wavenumber k,
    in the sine basis of each component."""
    m = disc.grid.n - 1
    slices = disc.component_slices
    t_mat = np.empty((len(slices) * m, len(slices) * m), dtype=np.complex128)
    q_mat = _slp_system(k, disc)[0]
    sin_b, dcos_b = disc.sin_basis
    for ia, rows in enumerate(slices):
        for ib, cols in enumerate(slices):
            q_ab = q_mat[rows, cols]
            weighted = (q_ab * disc.normal_dots[ia][ib])[1:-1, :] * disc.jacobian[0, None, cols]
            part1 = (k * k) * weighted @ sin_b
            part2 = disc.interp_rows[ia] @ (q_ab @ dcos_b)
            t_mat[ia * m : (ia + 1) * m, ib * m : (ib + 1) * m] = part1 + part2
    return t_mat


def _solve_linear(a_mat, rhs, what):
    """One LU solve per matrix of a stack; the reported condition number is
    the stack's largest."""
    try:
        sol = np.linalg.solve(a_mat, rhs)
    except np.linalg.LinAlgError as exc:
        cond = float(np.max(np.linalg.cond(a_mat)))
        raise SolverError(f"{what} system is singular (cond={cond:.3e})", cond) from exc
    if not np.all(np.isfinite(sol)):
        cond = float(np.max(np.linalg.cond(a_mat)))
        raise SolverError(f"{what} solve produced non-finite values (cond={cond:.3e})", cond)
    return sol


@dataclass(frozen=True)
class DensitySolution:
    """Layer density for one crack, wavenumber and incident direction.

    ``values`` holds the physical density (phi for Dirichlet, psi for
    Neumann) at the quadrature nodes of all components of ``disc``, a stack
    of one crack, so that integrals over the crack are plain sums weighted
    by ``disc.quad_weights[0]``.  ``flat`` holds the solver unknowns: the
    transformed even/odd density samples.
    """

    disc: Discretization
    k: float
    theta: np.ndarray
    values: np.ndarray
    flat: np.ndarray


def _solve_many(disc: Discretization, k: float, thetas: np.ndarray):
    """Shared-factorization solve of the discretized stack of B cracks at
    wavenumber k, for a batch of incident directions: one system build,
    one batched LU solve.

    Returns (values, flat), each (B, unknowns, directions)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError(f"wavenumber must be positive and finite, got {k}")
    if disc.bc is BoundaryCondition.DIRICHLET:
        a_mat = _slp_system(k, disc)
        rhs = -np.exp(1j * k * (disc.points @ thetas.T))
        w = _solve_linear(a_mat, rhs, "Dirichlet")
        return w / disc.jacobian[..., None], w
    t_mat = _build_neumann(disc, k)
    u_inc = np.exp(1j * k * (disc.interior_points @ thetas.T))
    rhs = -1j * k * (disc.interior_normals @ thetas.T) * u_inc
    coeffs = _solve_linear(t_mat, rhs, "Neumann")
    m = disc.grid.n - 1
    sin_b = disc.sin_basis[0]
    # the solver unknown is the double-layer density mu; the stored psi
    # follows the jump convention -psi = u_+ - u_- = mu, which is the
    # sign that makes the Neumann far-field formula below exact
    values = -np.concatenate(
        [sin_b @ coeffs[ia * m : (ia + 1) * m] for ia in range(len(disc.component_slices))]
    )[None]
    return values, values


def solve_density(crack: Crack, wave: PlaneWave, bc, cfg: NystromConfig = NystromConfig()):
    """Solve the boundary integral equation for one incident plane wave."""
    disc = discretize([crack], bc, cfg)
    values, flat = _solve_many(disc, wave.k, wave.direction[None, :])
    return DensitySolution(
        disc=disc, k=wave.k, theta=wave.direction, values=values[0, :, 0], flat=flat[0, :, 0]
    )


def far_fields(disc: Discretization, k, thetas, obs_dirs):
    """Far fields of the discretized stack at wavenumber k for a batch of
    incident directions: (B, observation directions, incidences)."""
    values, _ = _solve_many(disc, k, thetas)
    return far_field_matrix(values, disc, k, obs_dirs)


def far_field(density: DensitySolution, obs) -> complex:
    """Far-field pattern u_inf at one unit observation direction."""
    obs = check_unit_vector(obs, "observation direction")
    values = density.values[:, None]
    return complex(far_field_matrix(values, density.disc, density.k, obs[None, :])[0, 0, 0])


def far_field_matrix(batch_values, disc: Discretization, k, obs_dirs):
    """Far fields of a batch solve on the nodes of ``disc``: one matrix per
    crack of the stack, rows = observation dirs, cols = incidences."""
    obs_dirs = np.atleast_2d(np.asarray(obs_dirs, dtype=np.float64))
    phases = np.exp(-1j * k * (obs_dirs @ np.swapaxes(disc.points, -1, -2)))
    wq = disc.quad_weights
    if disc.bc is BoundaryCondition.DIRICHLET:
        pref = np.exp(1j * np.pi / 4.0) / math.sqrt(8.0 * np.pi * k)
        return pref * phases @ (wq[..., None] * batch_values)
    pref = -math.sqrt(k / (8.0 * np.pi)) * np.exp(-1j * np.pi / 4.0)
    proj = obs_dirs @ np.swapaxes(disc.normals, -1, -2)
    return pref * (proj * phases) @ (wq[..., None] * batch_values)


def scattered_field(density: DensitySolution, x) -> complex:
    """Layer potential evaluated at an exterior point."""
    x = np.asarray(x, dtype=np.float64)
    disc = density.disc
    diff = x[None, :] - disc.points[0]
    r = np.hypot(diff[:, 0], diff[:, 1])
    if np.min(r) <= 1e-12:
        raise DomainError("evaluation point lies on the crack")
    k = density.k
    if disc.bc is BoundaryCondition.DIRICHLET:
        kernel = 0.25j * _hankel0(k * r)
    else:
        # u_scat = DLP[mu] with mu = -psi (stored values follow the jump
        # convention -psi = u_+ - u_-)
        normals = disc.normals[0]
        cosang = (diff[:, 0] * normals[:, 0] + diff[:, 1] * normals[:, 1]) / r
        kernel = -0.25j * k * _hankel1v(k * r) * cosang
    return complex(np.sum(kernel * disc.quad_weights[0] * density.values))


def boundary_residual(density: DensitySolution) -> float:
    """Max Dirichlet boundary-condition defect |u_inc + SLP[phi]| at
    `_RESIDUAL_POINTS` off-node collocation points per arc (independent of
    the solve's own nodes)."""
    disc = density.disc
    if disc.bc is not BoundaryCondition.DIRICHLET:
        raise DomainError("boundary residual check is defined for the Dirichlet case")
    k = density.k
    tau_star = (np.arange(_RESIDUAL_POINTS) + 0.37) * np.pi / _RESIDUAL_POINTS
    t_star = np.cos(tau_star)
    worst = 0.0
    for arc, arc_slice in zip(disc.cracks[0].components, disc.component_slices):
        pts = np.atleast_2d(arc.points(t_star))
        total = np.zeros(_RESIDUAL_POINTS, dtype=np.complex128)
        for other_slice in disc.component_slices:
            q = _slp_quad_matrix(
                k, tau_star, pts, disc.grid, disc.points[0, other_slice],
                same_arc=other_slice == arc_slice,
            )
            total += q @ density.flat[other_slice]
        u_inc = np.exp(1j * k * (pts @ density.theta))
        worst = max(worst, float(np.max(np.abs(total + u_inc))))
    return worst
