"""Crack geometry: parametric open arcs, the four-crack catalog, tangents,
unit normals, point sampling and pairwise point distances.

Every arc is exposed through one internal parameter t in [-1, 1]: one
builder maps each arc's native range onto it affinely, so all quadrature
downstream shares a single convention.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, LookupNameError

__all__ = [
    "ParametricArc",
    "Crack",
    "UnitNormal",
    "evaluate",
    "check_unit_vector",
    "catalog",
    "catalog_key",
    "catalog_names",
    "sample_points",
    "line_segment",
    "chebyshev_graph_arc",
    "crack_from_config",
]


@dataclass(frozen=True)
class ParametricArc:
    """Smooth open arc t -> z(t) on [-1, 1] with an analytic derivative.

    ``position`` and ``derivative`` accept a scalar or an array of
    parameters and return arrays of shape (2,) or (n, 2).
    """

    name: str
    position: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]

    def points(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.asarray(self.position(t), dtype=np.float64)

    def tangents(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.asarray(self.derivative(t), dtype=np.float64)

    def normals(self, t):
        """Unit normals: the unit tangent, by np.hypot as in the solver's
        node tables, rotated by +90 degrees."""
        tan = np.atleast_2d(self.tangents(t))
        unit = tan / np.hypot(tan[:, 0], tan[:, 1])[:, None]
        out = np.stack([-unit[:, 1], unit[:, 0]], axis=1)
        return out[0] if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class UnitNormal:
    point: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class Crack:
    """One or more pairwise-disjoint open arcs."""

    components: Sequence[ParametricArc]
    label: str = ""

    def __post_init__(self):
        if len(self.components) < 1:
            raise DomainError("a crack needs at least one component")

    def __len__(self):
        return len(self.components)


def evaluate(arc: ParametricArc, t: float):
    """Point, tangent and unit normal of ``arc`` at parameter ``t``."""
    t = float(t)
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"parameter must lie in [-1, 1], got {t}")
    point = arc.points(t)
    tangent = arc.tangents(t)
    if np.hypot(tangent[0], tangent[1]) == 0.0:
        raise DomainError(f"vanishing tangent on arc {arc.name!r} at t={t}")
    return point, tangent, arc.normals(t)


def check_unit_vector(v, what):
    """``v`` as a float64 vector, or DomainError naming ``what`` unless
    |v| is 1 within 1e-9."""
    v = np.asarray(v, dtype=np.float64)
    if abs(np.hypot(v[0], v[1]) - 1.0) > 1e-9:
        raise DomainError(f"{what} must be a unit vector, got {v}")
    return v


def _arc(name, lo, hi, curve, slope):
    """The arc s -> curve(s), s in [lo, hi], on t in [-1, 1] by
    s = mid + half t, so its t-derivative is half slope(s)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def native(t):
        return mid + half * np.asarray(t, dtype=np.float64)

    return ParametricArc(name, lambda t: curve(native(t)), lambda t: half * slope(native(t)))


# label, then per component: name, native range lo..hi, curve z(s), slope dz/ds
_CATALOG = {
    "G1": ("Gamma1", [  # straight segment (s, 0.3)
        ("Gamma1", -0.5, 0.5,
         lambda s: np.stack([s, np.full_like(s, 0.3)], axis=-1),
         lambda s: np.stack([np.ones_like(s), np.zeros_like(s)], axis=-1)),
    ]),
    "G2": ("Gamma2", [  # graph of 1/2 cos(s pi/2) + 1/5 sin(s pi/2) - 1/10 cos(3 s pi/2)
        ("Gamma2", -1.0, 1.0,
         lambda s: np.stack([s, 0.5 * np.cos(s * np.pi / 2.0) + 0.2 * np.sin(s * np.pi / 2.0)
                             - 0.1 * np.cos(3.0 * s * np.pi / 2.0)], axis=-1),
         lambda s: np.stack([np.ones_like(s), -0.25 * np.pi * np.sin(s * np.pi / 2.0)
                             + 0.1 * np.pi * np.cos(s * np.pi / 2.0)
                             + 0.15 * np.pi * np.sin(3.0 * s * np.pi / 2.0)], axis=-1)),
    ]),
    "G3": ("Gamma3", [  # (2 sin(s/2), sin s)
        ("Gamma3", np.pi / 4.0, 7.0 * np.pi / 4.0,
         lambda s: np.stack([2.0 * np.sin(s / 2.0), np.sin(s)], axis=-1),
         lambda s: np.stack([np.cos(s / 2.0), np.cos(s)], axis=-1)),
    ]),
    "G4": ("Gamma4", [
        ("Gamma4_1", -0.5, 0.5,
         lambda s: np.stack([s - 0.2, -0.5 * s * s + 0.6], axis=-1),
         lambda s: np.stack([np.ones_like(s), -s], axis=-1)),
        ("Gamma4_2", -0.5, 0.5,
         lambda s: np.stack([s + 0.2, s**3 + s * s - 0.6], axis=-1),
         lambda s: np.stack([np.ones_like(s), 3.0 * s * s + 2.0 * s], axis=-1)),
    ]),
}


def catalog_names():
    return sorted(_CATALOG)


def catalog_key(name) -> str:
    """The catalog key of a crack name: G1..G4, Gamma1..Gamma4 or Γ1..Γ4."""
    key = str(name).strip().upper().replace("GAMMA", "G").replace("Γ", "G")
    if key not in _CATALOG:
        raise LookupNameError(f"unknown catalog crack {name!r}; valid: {catalog_names()}")
    return key


def catalog(name: str) -> Crack:
    """The four illustration cracks, by name (see catalog_key)."""
    label, components = _CATALOG[catalog_key(name)]
    crack = Crack([_arc(*component) for component in components], label)
    validate_crack(crack)
    return crack


def line_segment(p0, p1, name="segment") -> Crack:
    """Straight open arc from p0 to p1 (test targets, micro-segments)."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    mid = 0.5 * (p0 + p1)
    half = 0.5 * (p1 - p0)
    if np.hypot(*half) == 0.0:
        raise DomainError("segment endpoints coincide")
    arc = _arc(name, -1.0, 1.0, lambda s: mid + s[..., None] * half,
               lambda s: np.broadcast_to(half, np.shape(s) + (2,)).copy())
    return Crack([arc], name)


def chebyshev_graph_arc(coefficients, name="chebyshev") -> Crack:
    """Graph crack y = sum_j a_j T_j(s), s in [-1, 1]."""
    coeffs = np.asarray(coefficients, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size < 1:
        raise DomainError("coefficient list must be a nonempty vector")
    arc = _arc(name, -1.0, 1.0, lambda s: np.stack([s, chebyshev_value(coeffs, s)], axis=-1),
               lambda s: np.stack([np.ones_like(s), chebyshev_derivative(coeffs, s)], axis=-1))
    return Crack([arc], name)


def chebyshev_value(coeffs, s):
    """sum_j a_j T_j(s) via the T recurrence."""
    s = np.asarray(s, dtype=np.float64)
    total = np.full_like(s, coeffs[0])
    if coeffs.size == 1:
        return total
    t_prev = np.ones_like(s)
    t_cur = s.copy()
    total = total + coeffs[1] * t_cur
    for a in coeffs[2:]:
        t_prev, t_cur = t_cur, 2.0 * s * t_cur - t_prev
        total += a * t_cur
    return total


def chebyshev_derivative(coeffs, s):
    """d/ds of sum_j a_j T_j(s); both recurrences carried together."""
    s = np.asarray(s, dtype=np.float64)
    total = np.zeros_like(s)
    if coeffs.size == 1:
        return total
    t_prev, t_cur = np.ones_like(s), s.copy()
    d_prev, d_cur = np.zeros_like(s), np.ones_like(s)
    total = total + coeffs[1] * d_cur
    for a in coeffs[2:]:
        t_next = 2.0 * s * t_cur - t_prev
        d_next = 2.0 * t_cur + 2.0 * s * d_cur - d_prev
        t_prev, t_cur = t_cur, t_next
        d_prev, d_cur = d_cur, d_next
        total += a * d_cur
    return total


def crack_from_config(table: dict) -> Crack:
    """Build and validate a crack from a config table: kind = catalog |
    chebyshev-graph, whose coefficients are a list of numbers."""
    kind = table.get("kind")
    if kind == "catalog":
        return catalog(table["name"])
    if kind == "chebyshev-graph":
        coeffs = table["coefficients"]
        # a bool is an int to Python, but no coefficient
        if not (isinstance(coeffs, list) and all(type(a) in (int, float) for a in coeffs)):
            raise DomainError(f"crack coefficients must be a list of numbers, got {coeffs!r}")
        try:
            crack = chebyshev_graph_arc(coeffs)
        except OverflowError:
            raise DomainError("a crack coefficient is too large for a float") from None
        validate_crack(crack)
        return crack
    raise LookupNameError(f"unknown crack kind {kind!r}")


def sample_points(crack: Crack, m: int):
    """m points per component at equispaced internal parameters, with unit
    normals.  m = 1 samples the arc midpoint."""
    if m < 1:
        raise DomainError(f"sample count must be >= 1, got {m}")
    ts = np.array([0.0]) if m == 1 else np.linspace(-1.0, 1.0, m)
    return [UnitNormal(point=p, normal=n) for arc in crack.components
            for p, n in zip(arc.points(ts), arc.normals(ts))]


def _pairwise_distances(a, b):
    """|a_i - b_j| as (len(a), len(b)) by np.hypot over contiguous coordinate
    differences; private, so perfbench leaves its time with the callers."""
    return np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])


_BAND = 4                          # sample offsets |i - j| <= _BAND are legitimately close
_ROWS = 32                         # rows per distance block of the injectivity check


def _has_close_pair(pts, limit):
    """Whether two samples with j - i > _BAND lie within limit of each
    other, |p_i - p_j| <= limit by np.hypot, over row blocks of the upper
    triangle (|p_i - p_j| and |p_j - p_i| round alike). Squared distances
    screen each block: a pair within limit by np.hypot has a rounded
    squared distance below limit^2 (1 + 1e-6), and only such pairs are
    measured by np.hypot. The blocks live in one buffer allocated per call."""
    x, y = np.ascontiguousarray(pts.T)
    n = len(x)
    screen = limit * limit * (1.0 + 1e-6)
    below = np.tri(_ROWS, _ROWS, -1, dtype=bool)     # column c < row r: j - i <= _BAND
    planes = np.empty((4, _ROWS * n))
    for lo in range(0, n - _BAND - 1, _ROWS):
        hi = min(lo + _ROWS, n - _BAND - 1)
        first = lo + _BAND + 1                        # column 0 holds j = first
        shape = (hi - lo, n - first)
        dx, dy, sq, tmp = (plane[: shape[0] * shape[1]].reshape(shape) for plane in planes)
        np.subtract.outer(x[lo:hi], x[first:], out=dx)
        np.subtract.outer(y[lo:hi], y[first:], out=dy)
        np.multiply(dx, dx, out=sq)
        sq += np.multiply(dy, dy, out=tmp)
        width = min(shape)
        sq[:, :width][below[: shape[0], :width]] = np.inf
        near = sq <= screen
        if near.any() and np.any(np.hypot(dx[near], dy[near]) <= limit):
            return True
    return False


def validate_crack(crack: Crack, samples: int = 512):
    """Sample-based finiteness / injectivity / no-cusp / disjointness checks.

    Two components are disjoint unless a sample point of one coincides
    exactly with a sample point of the other."""
    ts = np.linspace(-1.0, 1.0, samples)
    point_sets = []
    for arc in crack.components:
        pts = np.atleast_2d(arc.points(ts))
        tans = np.atleast_2d(arc.tangents(ts))
        # NaN passes every comparison below unnoticed
        if not (np.isfinite(pts).all() and np.isfinite(tans).all()):
            raise DomainError(f"arc {arc.name!r} has non-finite sample points or tangents")
        speeds = np.hypot(tans[:, 0], tans[:, 1])
        if np.any(speeds <= 0.0):
            raise DomainError(f"arc {arc.name!r} has a vanishing tangent (cusp)")
        step = np.abs(np.diff(ts)).min()
        # only distinct-parameter near-coincidence signals self-intersection
        if _has_close_pair(pts, 0.25 * speeds.min() * step):
            raise DomainError(f"arc {arc.name!r} fails the injectivity sample check")
        point_sets.append(set(map(tuple, pts.tolist())))
    for a in range(len(point_sets)):
        for b in range(a + 1, len(point_sets)):
            if not point_sets[a].isdisjoint(point_sets[b]):
                raise DomainError("crack components are not pairwise disjoint")
    return True
