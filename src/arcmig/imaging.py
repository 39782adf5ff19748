"""Steering vectors and imaging functionals: TM subspace migration, TE with
normal search, the TE alternative, frequency-weighted and log-weighted
variants, and Kirchhoff migration, all evaluated over a rectangular grid.

Every functional is a conjugate plane-wave phase block, held as a real
matrix, times a small per-frequency factor matrix, followed by a reduction:
TM, the TE alternative and Kirchhoff are one quadratic form per frequency,
and the TE search reduces over the subspace index. When the direction set
holds the opposite of each direction, the phase block of every functional
keeps only half of them. One engine walks the row-major grid in fixed row
blocks, which bounds memory, and pads a short last block to full size; a
block's phases are gathered from per-frequency x and y phase tables, and
its temporaries stay on the heap through `_heap`. The TE search deals its
blocks to one walker per CPU; BLAS runs on one thread for the whole
process (`_blas`). The reduction order over frequencies and factor rows is
fixed and independent of the block and the walker, so maps are bitwise
reproducible.
"""

import hashlib
import math
import os
import threading
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _blas
from .errors import ConfigError, DegenerateSteeringError, MapParseError
from .geometry import check_unit_vector
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
        return np.linspace(self.k_first, self.k_last, self.count)

    @classmethod
    def from_wavelengths(cls, lambda_first, lambda_last, count):
        # Table-style input: lambda_1 > lambda_F so k_1 < k_F
        if not lambda_first >= lambda_last > 0:
            raise ConfigError("expect lambda_first >= lambda_last > 0 (0 < k_1 <= k_F)")
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
        if not (-math.inf < self.x_lo < self.x_hi < math.inf
                and -math.inf < self.y_lo < self.y_hi < math.inf):
            raise ConfigError("grid bounds must be finite and nonempty")
        # a saved map records its step only through two rows and two columns
        if self.nx < 2 or self.ny < 2:
            raise ConfigError("grid step exceeds the extent: a map needs two rows and two columns")

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


@dataclass(frozen=True)
class WeightScheme:
    """Frequency weight w(k): 1, k^p or ln k."""

    kind: str                      # "unit" | "power" | "log"
    power: int = 1

    def __post_init__(self):
        if self.kind not in ("unit", "power", "log"):
            raise ConfigError(f"unknown weight scheme {self.kind!r}")
        if self.kind == "power" and (self.power < 1 or int(self.power) != self.power):
            raise ConfigError("power weight needs a positive integer exponent")

    def values(self, ks):
        ks = np.asarray(ks, dtype=np.float64)
        if self.kind == "unit":
            return np.ones_like(ks)
        if self.kind == "power":
            return ks**self.power
        return np.log(ks)

    def describe(self):
        if self.kind == "power":
            return f"power:{self.power}"
        return self.kind

    @classmethod
    def parse(cls, text):
        """The scheme that `describe` names: unit, log or power:p."""
        kind, _, power = str(text).partition(":")
        if text in ("unit", "log") or (kind == "power" and power.isdecimal()):
            return cls(kind, power=int(power or 1))
        raise ConfigError(f"unknown weight scheme {text!r}; expected unit, log or power:p")


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
    nu = check_unit_vector(nu, "candidate normal")
    x = np.asarray(x, dtype=np.float64)
    d = dirs.directions()
    v = (d @ nu) * np.exp(1j * k * (d @ x))
    norm = np.linalg.norm(v)
    if norm <= 1e-14 * math.sqrt(dirs.count):
        raise DegenerateSteeringError(
            "all aperture directions are orthogonal to the candidate normal"
        )
    return v / norm


# grid points per row block of the imaging engine: larger blocks cut the
# TE search's per-call reduce cost, and up to 312 points the (P x 40) x
# (40 x 80) GEMM of a 40-direction TM form stays on OpenBLAS's
# small-matrix kernel (M N K <= 1e6); at 320 points G3,TM imaging took
# 13 % longer
_BLOCK = 304


def candidate_normals(count):
    """nu_l = (cos 2 pi l / L, sin 2 pi l / L), l = 1..L."""
    ang = 2.0 * np.pi * np.arange(1, count + 1) / count
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _steering_basis(dirs):
    """Real steering basis of a direction set: the number N' of directions
    kept in the phase tables and the complex (R x N) map E with s = S E,
    where S is the real (P x R) view of the (P x N') conjugate steering
    block over the kept directions and s the full (P x N) one.

    When the set holds the opposite of each of its directions (full view
    with even N: theta_{n+N/2} = -theta_n), the tables keep the first N/2
    directions, the other half of s is the conjugate of the first, and
    R = N. Otherwise N' = N and R = 2N."""
    n = dirs.count
    paired = dirs.is_full_view and n % 2 == 0
    kept = n // 2 if paired else n
    idx = np.arange(kept)
    expand = np.zeros((2 * kept, n), dtype=np.complex128)
    expand[2 * idx, idx] = 1.0
    expand[2 * idx + 1, idx] = 1j
    if paired:
        expand[2 * idx, idx + kept] = 1.0
        expand[2 * idx + 1, idx + kept] = -1j
    return kept, expand


def _phase_tables(grid, k, dirs, kept):
    """Factored conjugate steering phases at wavenumber k over the first
    kept directions: exp(-i k theta_x x) / sqrt(N) per grid column x
    (nx x N') and exp(-i k theta_y y) per grid row y (ny x N'). The
    conjugate steering vector of grid point (ix, iy) over those directions
    is the product of row ix of the first table and row iy of the second."""
    d = dirs.directions()[:kept]
    tx = np.exp(-1j * k * np.outer(grid.xs(), d[:, 0])) / math.sqrt(dirs.count)
    ty = np.exp(-1j * k * np.outer(grid.ys(), d[:, 1]))
    return tx, ty


def _steering_block(tx, ty, ix, iy):
    """Conjugate steering block of grid points (ix, iy) from the phase tables."""
    # np.take gathers the rows faster than fancy indexing; they are in range
    out = np.take(tx, ix, axis=0, mode="clip")
    out *= np.take(ty, iy, axis=0, mode="clip")
    return out


def _search_walkers(blocks):
    """Block walkers of the TE search: one per CPU the process may run on,
    at most one per block. Two walkers under a multithreaded BLAS
    oversubscribe the cores, so when `_blas` could not set BLAS to one
    thread at import the walk stays serial."""
    if not _blas.applied:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), blocks)
    return min(os.cpu_count() or 1, blocks)


def _blocked_sum(grid, ks, dirs, kept, product, reduce, parallel=False):
    """Per-point sum over f of reduce(f, S, product(f, S)), with S the real
    (P, 2N') view of the (P, N') conjugate TM steering block
    conj(exp(i k_f theta_n . x)) / sqrt(N) of the points over the first
    N' = kept directions, gathered from the frequency's phase tables.

    The row-major grid is walked in fixed blocks of _BLOCK points by W
    walkers, walker w taking blocks w, w + W, ...: walker 0 on the calling
    thread, the others on threads of their own. A short last block is
    padded with copies of the grid's last point, whose results are
    dropped, so product and reduce always see _BLOCK rows and take one
    BLAS path (a one-row GEMM runs as a GEMV, which rounds differently).
    All walkers share product and reduce, which are reentrant: product
    returns a fresh GEMM output and reduce works on it and on arrays of
    its own call.

    W is 1 unless parallel is true, and then `_search_walkers` picks it.
    The GEMM-bound quadratic form stays serial: on two CPUs a second
    walker did not speed it up. No per-point result depends on its block
    or its walker, so the map is the same for every W. An exception in a
    walker is raised here once every walker has stopped."""
    tables = [_phase_tables(grid, k, dirs, kept) for k in ks]
    count = grid.nx * grid.ny
    starts = range(0, count, _BLOCK)
    total = np.zeros(count, dtype=np.complex128)
    walkers = _search_walkers(len(starts)) if parallel else 1
    errors = []

    def walk(w):
        try:
            for start in starts[w::walkers]:
                index = np.minimum(np.arange(start, start + _BLOCK), count - 1)
                iy, ix = np.divmod(index, grid.nx)
                acc = total[start : start + _BLOCK]
                for f, (tx, ty) in enumerate(tables):
                    real = _steering_block(tx, ty, ix, iy).view(np.float64)
                    acc += reduce(f, real, product(f, real))[: len(acc)]
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=walk, args=(w,)) for w in range(1, walkers)]
    for thread in threads:
        thread.start()
    walk(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return total


def _quadratic_form(forms, expand):
    """Product and reduction of the per-point form s B_f s^T, for complex
    (N x N) matrices B_f and the conjugate steering block s = S E.

    With C_f = E B_f E^T the form is S C_f S^T: one real GEMM of S against
    [Re C_f | Im C_f] (R x 2R), then the dots of each point's two output
    rows with its row of S give the real and imaginary parts."""
    factors = []
    for b in forms:
        c = expand @ b @ expand.T
        factors.append(np.concatenate([c.real, c.imag], axis=1))
    r = len(expand)

    def product(f, s):
        return np.matmul(s, factors[f])

    def reduce(f, s, prod):
        p = len(s)
        rows = np.einsum("pkr,pr->pk", prod.reshape(p, 2, r), s, out=np.empty((p, 2)))
        return rows.view(np.complex128)[:, 0]

    return product, reduce


def _te_search(subspaces, weights, candidates, dirs, expand):
    """Product and reduction of the TE normal search.

    With Theta the N x 2 direction matrix and A_u = s @ [theta_x u, theta_y u]
    = (u_0, u_1), S_nu(x)* u = sqrt(N) nu . A_u / ||Theta nu||, so one
    product per frequency serves every candidate: s F_f with the (N x 4M)
    factor F_f = [theta_x u | theta_y u | theta_x v | theta_y v]. In the
    steering basis s = S E it is S G_f with G_f = E F_f (R x 4M): one real
    GEMM of S against the (R x 2M) real view of each of G_f's four (R x M)
    planes, each writing the real view of a (P x M) complex plane. Paired,
    R = N and that is half the multiply-adds of the complex GEMM s F_f.
    For nu = (cos phi, sin phi),
    (nu . A_u)(nu . A_v) = alpha + beta cos 2phi + gamma sin 2phi with
    alpha = (u_0 v_0 + u_1 v_1)/2, beta = (u_0 v_0 - u_1 v_1)/2 and
    gamma = (u_0 v_1 + u_1 v_0)/2. Candidate l's term is w_l times that,
    w_l = N / ||Theta nu_l||^2, and its squared modulus is one real GEMM
    of the weights [1, c^2, s^2, 2c, 2s, 2cs] w_l^2 (c = cos 2phi_l,
    s = sin 2phi_l) against the six coefficients |alpha|^2, |beta|^2,
    |gamma|^2, Re alpha conj(beta), Re alpha conj(gamma) and
    Re beta conj(gamma). Each (f, m) term keeps the candidate of largest
    modulus (ties keep the smallest l), and only that term is formed."""
    d = dirs.directions()
    normals = candidate_normals(candidates)
    if candidates % 2 == 0:
        normals = normals[: candidates // 2]       # nu_{l+L/2} = -nu_l: same term
    norms = np.linalg.norm(d @ normals.T, axis=0)
    if np.any(norms <= 1e-14 * math.sqrt(dirs.count)):
        raise DegenerateSteeringError("degenerate TE steering for a candidate normal")
    w = dirs.count / norms**2
    cos2 = normals[:, 0] ** 2 - normals[:, 1] ** 2
    sin2 = 2.0 * normals[:, 0] * normals[:, 1]
    # reduce forms 2 alpha, 2 beta and 2 gamma: the common factor 4 of the
    # moduli leaves the pick alone, and halved weights form the picked term.
    # scan is (L', 6) and column-major, which runs the small GEMM twice as fast
    scan = (np.stack([np.ones_like(w), cos2**2, sin2**2, 2 * cos2, 2 * sin2, 2 * cos2 * sin2])
            * w**2).T
    picked = np.stack([0.5 * w, 0.5 * w * cos2, 0.5 * w * sin2])
    dx, dy = d[:, :1], d[:, 1:]
    # per frequency the four planes of G_f, (4, R, M) complex held as (4, R, 2M) real
    planes = []
    for sub in subspaces:
        u, v = sub.retained_left(), sub.retained_right().conj()
        planes.append((expand @ np.stack([dx * u, dy * u, dx * v, dy * v])).view(np.float64))

    def product(f, s):
        g = planes[f]
        out = np.empty((4, len(s), g.shape[2] // 2), dtype=np.complex128)
        np.matmul(s, g, out=out.view(np.float64))
        return out

    def reduce(f, s, prod):
        p, m = prod.shape[1:]
        pm = p * m
        # the GEMM wrote u_0, u_1, v_0 and v_1 into planes 0-3 of prod;
        # alpha, beta and gamma are formed in planes 0-2
        u0, u1, v0, v1 = prod
        cross0, cross1 = np.empty((2, p, m), dtype=np.complex128)
        np.multiply(u0, v1, out=cross0)
        np.multiply(u1, v0, out=cross1)
        np.multiply(u0, v0, out=v0)
        np.multiply(u1, v1, out=v1)
        alpha = np.add(v0, v1, out=u0)
        beta = np.subtract(v0, v1, out=u1)
        gamma = np.add(cross0, cross1, out=v0)
        del cross0, cross1                         # freed before the scan's buffers
        z = prod[:3].reshape(3, pm)
        zr, zi = z.real, z.imag
        # the six coefficients Re(z_i conj(z_j)) of the scan, z = (alpha,
        # beta, gamma): rows (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)
        coef, tmp = np.empty((6, pm)), np.empty((3, pm))
        np.multiply(zr, zr, out=coef[:3])
        coef[:3] += np.multiply(zi, zi, out=tmp)
        np.multiply(zr[:1], zr[1:], out=coef[3:5])
        coef[3:5] += np.multiply(zi[:1], zi[1:], out=tmp[:2])
        np.multiply(zr[1], zr[2], out=coef[5])
        coef[5] += np.multiply(zi[1], zi[2], out=tmp[0])
        moduli = np.matmul(scan, coef)
        # first index of each column maximum, so ties keep the smallest l:
        # the running maximum in place, then the count of entries below the
        # final one (argmax over the short axis costs a call per column)
        for l in range(1, len(w)):
            np.maximum(moduli[l - 1], moduli[l], out=moduli[l])
        below = np.less(moduli[:-1], moduli[-1]).view(np.uint8)
        pick = np.add.reduce(below, axis=0, dtype=np.min_scalar_type(len(w)))
        sel = np.take(picked, pick, axis=1, out=tmp, mode="clip")
        np.multiply(zr, sel, out=zr)
        np.multiply(zi, sel, out=zi)
        alpha += beta
        alpha += gamma
        return np.sum(alpha, axis=1) * weights[f]

    return product, reduce


def _wavenumbers(items, what):
    """The wavenumbers of per-frequency inputs and the one direction set
    they were all built over."""
    if not items:
        raise ConfigError(f"need at least one {what}")
    dirs = items[0].dirs
    if any(item.dirs.key() != dirs.key() for item in items):
        raise ConfigError(f"the {what}s were built over more than one direction set")
    ks = [item.k for item in items]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ConfigError("frequencies must be strictly increasing")
    return ks, dirs


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
) -> ImageMap:
    """Multi-frequency subspace-migration map over the grid:
    value(x) = (1/F) |sum_f sum_{m<=M_f} w(k_f) (S*(x)U_m)(S*(x)Vbar_m)|,
    with the TE search maximizing each (f, m) term's modulus over the
    candidate normals before summation. The steering vectors run over the
    direction set the subspaces were built over."""
    ks, dirs = _wavenumbers(subspaces, "frequency subspace")
    weights = weight.values(ks)
    prov = _provenance(f"subspace-{mode.kind}", weight.describe(), ks, dirs)
    kept, expand = _steering_basis(dirs)
    if mode.kind == "te-search":
        prov["candidates"] = mode.candidates
        engine = _te_search(subspaces, weights, mode.candidates, dirs, expand)
    else:
        engine = _quadratic_form(
            [w * (sub.retained_left() @ sub.retained_right().conj().T)
             for w, sub in zip(weights, subspaces)],
            expand,
        )
    acc = _blocked_sum(grid, ks, dirs, kept, *engine, parallel=mode.kind == "te-search")
    return ImageMap(grid=grid, values=np.abs(acc) / len(subspaces), provenance=prov)


def image_kirchhoff(
    matrices: Sequence[MsrMatrix],
    grid: SearchGrid,
) -> ImageMap:
    """Kirchhoff migration: value(x) = (1/F) |sum_f S*(x) K(k_f) conj(S(x))|,
    over the direction set the matrices were built over."""
    ks, dirs = _wavenumbers(matrices, "MSR matrix")
    kept, expand = _steering_basis(dirs)
    engine = _quadratic_form([m.entries for m in matrices], expand)
    acc = _blocked_sum(grid, ks, dirs, kept, *engine)
    prov = _provenance("kirchhoff", "unit", ks, dirs)
    return ImageMap(grid=grid, values=np.abs(acc) / len(matrices), provenance=prov)


def save_map(image: ImageMap, path):
    """CSV persistence: header `x,y,value`, row-major rows, 17 digits."""
    g = image.grid
    xs = [format(x, ".17g") for x in g.xs().tolist()]
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for iy, y in enumerate(g.ys().tolist()):
            mid = f",{y:.17g},"
            row = image.values[iy * g.nx : (iy + 1) * g.nx].tolist()
            fh.write("".join([f"{x}{mid}{v:.17g}\n" for x, v in zip(xs, row)]))


def _saved_step(ux, uy):
    """The step of a saved grid from its sorted axis coordinates: the least
    h > 0 with lo + h i >= u_i on both axes, evaluated as `SearchGrid.xs`
    evaluates it.  Each coordinate is monotone in h, so when some step
    reproduces every saved coordinate this one does; a bisection over the
    bit patterns of positive floats finds it."""
    axes = [(u[0], np.arange(u.size), u) for u in (ux, uy)]

    def reaches(bits):
        h = np.int64(bits).view(np.float64)
        return all(np.all(lo + h * i >= u) for lo, i, u in axes)

    # twice the end-to-end step of the x axis reaches every coordinate
    low, high = 0, int(np.float64(2.0 * (ux[-1] - ux[0]) / (ux.size - 1)).view(np.int64))
    while high - low > 1:
        mid = (low + high) // 2
        if reaches(mid):
            high = mid
        else:
            low = mid
    return float(np.int64(high).view(np.float64))


def load_map(path) -> ImageMap:
    """Read a map CSV line by line into one flat float64 buffer."""
    flat = array("d")
    with open(path) as fh:
        if fh.readline().rstrip("\n") != "x,y,value":
            raise MapParseError(f"{path}: missing x,y,value header", line=1)
        lineno = 1
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != 3:
                raise MapParseError(f"{path}: expected 3 fields", line=lineno)
            try:
                flat.extend(map(float, parts))
            except ValueError as exc:
                raise MapParseError(f"{path}: {exc}", line=lineno) from exc
    xs, ys, vals = np.frombuffer(flat, dtype=np.float64).reshape(-1, 3).T
    ux, uy = np.unique(xs), np.unique(ys)
    if ux.size * uy.size != vals.size:
        raise MapParseError(f"{path}: points do not form a full grid", line=lineno)
    if ux.size < 2 or uy.size < 2:
        raise MapParseError(f"{path}: a map needs two rows and two columns", line=lineno)
    grid = SearchGrid(
        x_lo=float(ux[0]), x_hi=float(ux[-1]), y_lo=float(uy[0]), y_hi=float(uy[-1]),
        h=_saved_step(ux, uy),
    )
    # every row holds the grid point of its index in row-major order
    points = grid.points()
    if points.shape[0] != vals.size:
        raise MapParseError(f"{path}: inconsistent grid step", line=1)
    wrong = np.flatnonzero((xs != points[:, 0]) | (ys != points[:, 1]))
    if wrong.size:
        x, y = points[wrong[0]]
        raise MapParseError(f"{path}: expected the grid's point ({x:.17g}, {y:.17g}) "
                            "in row-major order", line=int(wrong[0]) + 2)
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
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()
