"""Steering vectors and imaging functionals: TM subspace migration, TE with
normal search, the TE alternative, frequency-weighted and log-weighted
variants, and Kirchhoff migration, all evaluated over a rectangular grid.

Every functional is a conjugate plane-wave phase block times a small
per-frequency factor matrix, followed by a reduction over the subspace
index. One engine walks the row-major grid in fixed 1024-point row blocks,
which bounds memory; the reduction order over frequencies and
singular-vector indices is fixed and independent of the block, so maps are
bitwise reproducible.
"""

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateSteeringError, DomainError, MapParseError
from .msr import DirectionSet, MsrMatrix, SignalSubspace

__all__ = [
    "FrequencySet",
    "SearchGrid",
    "SteeringMode",
    "WeightScheme",
    "ImageMap",
    "steering_tm",
    "steering_te",
    "image_subspace",
    "image_kirchhoff",
    "save_map",
    "load_map",
    "save_metadata",
    "load_metadata",
]


@dataclass(frozen=True)
class FrequencySet:
    """F wavenumbers equispaced in [k_first, k_last]."""

    k_first: float
    k_last: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("need at least one frequency")
        if self.count == 1:
            if self.k_first != self.k_last:
                raise ConfigError("single-frequency set needs k_first == k_last")
        elif not self.k_first < self.k_last:
            raise ConfigError("wavenumbers must be strictly increasing")
        if not self.k_first > 0:
            raise ConfigError("wavenumbers must be positive")

    def wavenumbers(self):
        if self.count == 1:
            return np.array([self.k_first])
        return np.linspace(self.k_first, self.k_last, self.count)

    @classmethod
    def from_wavelengths(cls, lambda_first, lambda_last, count):
        # Table-style input: lambda_1 > lambda_F so k_1 < k_F
        return cls(2.0 * np.pi / lambda_first, 2.0 * np.pi / lambda_last, count)


@dataclass(frozen=True)
class SearchGrid:
    """Rectangular grid over [x_lo, x_hi] x [y_lo, y_hi] with step h.

    Points are stored row-major: y varies over rows (ascending), x within
    a row.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ConfigError("grid step must be positive")
        if not (self.x_hi > self.x_lo and self.y_hi > self.y_lo):
            raise ConfigError("grid bounds must be nonempty")

    @property
    def nx(self):
        return int(math.floor((self.x_hi - self.x_lo) / self.h + 1e-9)) + 1

    @property
    def ny(self):
        return int(math.floor((self.y_hi - self.y_lo) / self.h + 1e-9)) + 1

    def xs(self):
        return self.x_lo + self.h * np.arange(self.nx)

    def ys(self):
        return self.y_lo + self.h * np.arange(self.ny)

    def points(self):
        xs, ys = self.xs(), self.ys()
        xx, yy = np.meshgrid(xs, ys)               # row-major: y outer, x inner
        return np.stack([xx.ravel(), yy.ravel()], axis=1)

    def index_nearest(self, point):
        ix = int(round((point[0] - self.x_lo) / self.h))
        iy = int(round((point[1] - self.y_lo) / self.h))
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ConfigError(f"point {point} lies outside the grid")
        return iy * self.nx + ix


@dataclass(frozen=True)
class SteeringMode:
    """TM plane-wave steering, TE with a normal search over L candidates,
    or the TE alternative that reuses the TM steering vector."""

    kind: str                      # "tm" | "te-search" | "te-plain"
    candidates: int = 0            # L, te-search only

    def __post_init__(self):
        if self.kind not in ("tm", "te-search", "te-plain"):
            raise ConfigError(f"unknown steering mode {self.kind!r}")
        if self.kind == "te-search" and self.candidates < 2:
            raise ConfigError("te-search needs at least 2 candidate normals")

    @classmethod
    def tm(cls):
        return cls("tm")

    @classmethod
    def te_search(cls, candidates):
        return cls("te-search", candidates)

    @classmethod
    def te_plain(cls):
        return cls("te-plain")


@dataclass(frozen=True)
class WeightScheme:
    """Frequency weight w(k): 1, k^p, ln k, or a custom zeta(k)."""

    kind: str                      # "unit" | "power" | "log" | "custom"
    power: int = 1
    zeta: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.kind not in ("unit", "power", "log", "custom"):
            raise ConfigError(f"unknown weight scheme {self.kind!r}")
        if self.kind == "power" and (self.power < 1 or int(self.power) != self.power):
            raise ConfigError("power weight needs a positive integer exponent")
        if self.kind == "custom" and self.zeta is None:
            raise ConfigError("custom weight needs a zeta callable")

    def values(self, ks):
        ks = np.asarray(ks, dtype=np.float64)
        if self.kind == "unit":
            return np.ones_like(ks)
        if self.kind == "power":
            return ks**self.power
        if self.kind == "log":
            return np.log(ks)
        vals = np.array([float(self.zeta(k)) for k in ks])
        if np.any(vals <= 0.0):
            raise ConfigError("custom weight must be positive on the frequency range")
        return vals

    def describe(self):
        if self.kind == "power":
            return f"power:{self.power}"
        return self.kind

    @classmethod
    def unit(cls):
        return cls("unit")

    @classmethod
    def power_p(cls, p):
        return cls("power", power=p)

    @classmethod
    def log(cls):
        return cls("log")

    @classmethod
    def custom(cls, zeta):
        return cls("custom", zeta=zeta)


@dataclass(frozen=True)
class ImageMap:
    grid: SearchGrid
    values: np.ndarray
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.values.shape != (self.grid.ny * self.grid.nx,):
            raise ConfigError("map values do not match the grid point count")

    def as_rows(self):
        return self.values.reshape(self.grid.ny, self.grid.nx)

    def argmax_point(self):
        idx = int(np.argmax(self.values))
        iy, ix = divmod(idx, self.grid.nx)
        return np.array([self.grid.x_lo + ix * self.grid.h, self.grid.y_lo + iy * self.grid.h])


def steering_tm(x, k, dirs: DirectionSet):
    """Unit steering vector with components exp(i k theta_n . x)/sqrt(N)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.exp(1j * k * (dirs.directions() @ x))
    return v / math.sqrt(dirs.count)


def steering_te(x, k, dirs: DirectionSet, nu):
    """Normal-weighted steering: theta_n . nu exp(i k theta_n . x), normalized."""
    nu = np.asarray(nu, dtype=np.float64)
    if abs(np.hypot(nu[0], nu[1]) - 1.0) > 1e-9:
        raise DomainError(f"candidate normal must be a unit vector, got {nu}")
    x = np.asarray(x, dtype=np.float64)
    d = dirs.directions()
    v = (d @ nu) * np.exp(1j * k * (d @ x))
    norm = np.linalg.norm(v)
    if norm <= 1e-14 * math.sqrt(dirs.count):
        raise DegenerateSteeringError(
            "all aperture directions are orthogonal to the candidate normal"
        )
    return v / norm


_BLOCK = 1024                      # grid points per row block of the imaging engine


def candidate_normals(count):
    """nu_l = (cos 2 pi l / L, sin 2 pi l / L), l = 1..L."""
    ang = 2.0 * np.pi * np.arange(1, count + 1) / count
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _blocked_sum(points, ks, dirs, factors, reduce):
    """Per-point sum over f of reduce(f, s, s @ g_1, s @ g_2, ...) with
    (g_1, g_2, ...) = factors[f] and s the conjugate TM steering block
    conj(exp(i k_f theta_n . x)) / sqrt(N) of the points.

    The grid is walked in fixed row blocks of _BLOCK points, which bounds
    the working set; no per-point reduction depends on where its block
    starts."""
    d_t = dirs.directions().T
    root_n = math.sqrt(dirs.count)
    total = np.zeros(points.shape[0], dtype=np.complex128)
    for start in range(0, points.shape[0], _BLOCK):
        pts = points[start : start + _BLOCK]
        acc = total[start : start + _BLOCK]
        for f, k in enumerate(ks):
            s = np.exp(1j * k * (pts @ d_t)).conj() / root_n
            acc += reduce(f, s, *(s @ g for g in factors[f]))
    return total


def _te_search(subspaces, weights, candidates, dirs):
    """Factor matrices and reduction of the TE normal search.

    With Theta the N x 2 direction matrix and A_u = s @ [theta_x u, theta_y u],
    S_nu(x)* u = sqrt(N) nu . A_u / ||Theta nu||, so one GEMM per frequency
    serves every candidate and ||Theta nu|| is one scalar per candidate.
    Each (f, m) term keeps the candidate of largest modulus."""
    d = dirs.directions()
    normals = candidate_normals(candidates)
    if candidates % 2 == 0:
        normals = normals[: candidates // 2]       # nu_{l+L/2} = -nu_l: same term
    norms = np.linalg.norm(d @ normals.T, axis=0)
    if np.any(norms <= 1e-14 * math.sqrt(dirs.count)):
        raise DegenerateSteeringError("degenerate TE steering for a candidate normal")
    scaled = normals * (dirs.count / norms**2)[:, None]
    dx, dy = d[:, :1], d[:, 1:]
    factors = []
    for sub in subspaces:
        u, v = sub.retained_left(), sub.retained_right().conj()
        factors.append((np.concatenate([dx * u, dy * u, dx * v, dy * v], axis=1),))

    def reduce(f, s, prod):
        a = prod.reshape(len(s), 4, -1)                      # (P, 4, M)
        terms = (scaled @ a[:, :2]) * (normals @ a[:, 2:])  # (P, L', M)
        pick = np.abs(terms).argmax(axis=1)[:, None]        # ties keep smallest l
        return weights[f] * np.sum(np.take_along_axis(terms, pick, axis=1)[:, 0], axis=1)

    return factors, reduce


def _wavenumbers(items, dirs, what):
    """The wavenumbers of per-frequency inputs, checked against dirs."""
    if not items:
        raise ConfigError(f"need at least one {what}")
    key = dirs.key()
    if any(item.dirs.key() != key for item in items):
        raise ConfigError(f"a {what} was built over a different direction set")
    ks = [item.k for item in items]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ConfigError("frequencies must be strictly increasing")
    return ks


def _provenance(functional, weight, ks, dirs):
    return {
        "functional": functional,
        "weight": weight,
        "frequencies": ",".join(format(k, ".17g") for k in ks),
        "alpha": dirs.alpha,
        "beta": dirs.beta,
        "directions": dirs.count,
    }


def image_subspace(
    subspaces: Sequence[SignalSubspace],
    grid: SearchGrid,
    mode: SteeringMode,
    weight: WeightScheme,
    dirs: DirectionSet,
) -> ImageMap:
    """Multi-frequency subspace-migration map over the grid:
    value(x) = (1/F) |sum_f sum_{m<=M_f} w(k_f) (S*(x)U_m)(S*(x)Vbar_m)|,
    with the TE search maximizing each (f, m) term's modulus over the
    candidate normals before summation."""
    ks = _wavenumbers(subspaces, dirs, "frequency subspace")
    weights = weight.values(ks)
    prov = _provenance(f"subspace-{mode.kind}", weight.describe(), ks, dirs)
    if mode.kind == "te-search":
        prov["candidates"] = mode.candidates
        factors, reduce = _te_search(subspaces, weights, mode.candidates, dirs)
    else:
        factors = [(sub.retained_left(), sub.retained_right().conj()) for sub in subspaces]

        def reduce(f, s, a, b):
            return weights[f] * np.sum(a * b, axis=1)

    acc = _blocked_sum(grid.points(), ks, dirs, factors, reduce)
    return ImageMap(grid=grid, values=np.abs(acc) / len(subspaces), provenance=prov)


def image_kirchhoff(
    matrices: Sequence[MsrMatrix],
    grid: SearchGrid,
    dirs: DirectionSet,
) -> ImageMap:
    """Kirchhoff migration: value(x) = (1/F) |sum_f S*(x) K(k_f) conj(S(x))|."""
    ks = _wavenumbers(matrices, dirs, "MSR matrix")
    factors = [(m.entries,) for m in matrices]
    acc = _blocked_sum(grid.points(), ks, dirs, factors, lambda f, s, a: np.sum(a * s, axis=1))
    prov = _provenance("kirchhoff", "unit", ks, dirs)
    return ImageMap(grid=grid, values=np.abs(acc) / len(matrices), provenance=prov)


def save_map(image: ImageMap, path):
    """CSV persistence: header `x,y,value`, row-major rows, 17 digits."""
    g = image.grid
    xs, ys = g.xs(), g.ys()
    lines = ["x,y,value"]
    idx = 0
    for iy in range(g.ny):
        for ix in range(g.nx):
            lines.append(
                f"{xs[ix]:.17g},{ys[iy]:.17g},{image.values[idx]:.17g}"
            )
            idx += 1
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_map(path) -> ImageMap:
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != "x,y,value":
        raise MapParseError(f"{path}: missing x,y,value header", line=1)
    xs, ys, vals = [], [], []
    for lineno, line in enumerate(raw[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise MapParseError(f"{path}: expected 3 fields", line=lineno)
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
            vals.append(float(parts[2]))
        except ValueError as exc:
            raise MapParseError(f"{path}: {exc}", line=lineno) from exc
    xs, ys, vals = np.array(xs), np.array(ys), np.array(vals)
    ux, uy = np.unique(xs), np.unique(ys)
    if ux.size * uy.size != vals.size:
        raise MapParseError(f"{path}: points do not form a full grid", line=len(raw))
    # end-to-end step estimate is stabler against rounding than ux[1]-ux[0]
    hx = (ux[-1] - ux[0]) / (ux.size - 1) if ux.size > 1 else (uy[-1] - uy[0]) / (uy.size - 1)
    grid = SearchGrid(
        x_lo=float(ux[0]), x_hi=float(ux[-1]), y_lo=float(uy[0]), y_hi=float(uy[-1]),
        h=float(hx),
    )
    if grid.nx != ux.size or grid.ny != uy.size:
        raise MapParseError(f"{path}: inconsistent grid step", line=1)
    return ImageMap(grid=grid, values=vals)


def save_metadata(meta: dict, path):
    """key = value lines, sorted by key, 17-digit floats."""
    lines = []
    for key in sorted(meta):
        val = meta[key]
        if isinstance(val, float):
            val = format(val, ".17g")
        lines.append(f"{key} = {val}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_metadata(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise MapParseError(f"{path}: missing '='", line=lineno)
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
