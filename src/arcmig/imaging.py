"""Steering vectors and imaging functionals: TM subspace migration, TE with
normal search, the TE alternative, frequency-weighted and log-weighted
variants, and Kirchhoff migration, all evaluated over a rectangular grid.

The conjugate plane-wave steering vector of a grid point is the product of
a per-frequency x phase table row and y phase table row. TM, the TE
alternative and Kirchhoff are one quadratic form s B_f s^T per frequency,
which separates over the two axes: per frequency it is one GEMM of y-side
direction-pair tables against x-side ones, in fixed chunks of pairs, and
gives the map's rows directly. The TE search, which picks a normal per
point, frequency and subspace index, multiplies a real view of the
conjugate phase block by per-frequency planes folded from the subspace
vectors and reduces over the subspace index; it walks the row-major grid
in fixed row blocks, which bounds memory, pads a short last block to full
size, and deals its blocks to one walker per CPU. When the direction set
holds the opposite of each direction, both engines keep only half of the
directions in the phase tables and fold the other half's coefficients into
them (`_fold`). Temporaries stay on the heap through `_heap`, and BLAS
runs on one thread for the whole process (`_blas`). The summation order over
frequencies, pairs and factor rows is fixed and independent of the grid's
shape, the block and the walker, so maps are bitwise reproducible.
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
        if not (math.isfinite(self.x_hi - self.x_lo) and math.isfinite(self.y_hi - self.y_lo)):
            raise ConfigError("grid extent exceeds the float range")
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


# grid points per row block of the TE search: larger blocks cut its
# per-call reduce cost
_BLOCK = 304

# direction pairs per chunk of the separable quadratic form: a chunk's pair
# tables stay near 0.4 MB on the preset grids, and a count that does not
# depend on the grid keeps every map value independent of the grid's shape
_PAIRS = 64


def candidate_normals(count):
    """nu_l = (cos 2 pi l / L, sin 2 pi l / L), l = 1..L."""
    ang = 2.0 * np.pi * np.arange(1, count + 1) / count
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _paired(dirs):
    """Whether the set holds the opposite of each of its directions: full
    view with even N, theta_{n+N/2} = -theta_n. The conjugate steering
    vector's second half is then the conjugate of its first."""
    return dirs.is_full_view and dirs.count % 2 == 0


def _kept(dirs):
    """Directions kept in the phase tables: the first N/2 of a paired set
    (`_paired`), whose other half of s is their conjugate; all N otherwise."""
    return dirs.count // 2 if _paired(dirs) else dirs.count


def _fold(top, bottom):
    """(top + bottom, i (top - bottom)): the coefficients of Re z and Im z
    in z top + conj(z) bottom. A paired set's s_{n+N/2} = conj(s_n) folds
    into its kept direction n this way, and bottom = 0 gives z top."""
    return top + bottom, 1j * (top - bottom)


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


def _pair_orbits(dirs):
    """First and second direction of each pair term of the separable form,
    first <= second, in the form's fixed order.

    An unpaired set has one term per pair a <= b. A paired set (`_paired`,
    h = N/2) has one term per orbit of the swap n -> n + h mod N: {a, b}
    with a <= b < h, whose partner {a + h, b + h} carries the conjugate
    phase, and {a, b + h} with a < b < h, whose partner is {b, a + h}. The
    remaining pairs {a, a + h} are constants."""
    n = dirs.count
    if not _paired(dirs):
        return np.triu_indices(n)
    h = n // 2
    same, mixed = np.triu_indices(h), np.triu_indices(h, 1)
    return np.concatenate([same[0], mixed[0]]), np.concatenate([same[1], mixed[1] + h])


def _padded_width(grid):
    """The x side of the separable form: nx padded with zero columns to a
    multiple of 4. OpenBLAS rounds the last columns of a real GEMM whose
    row length is no multiple of 8 differently at different row counts."""
    return -(-grid.nx // 4) * 4


def _pair_factors(grid, k, dirs, b):
    """The GEMM factors of s B s^T at wavenumber k, one (left, right) per
    chunk of _PAIRS `_pair_orbits` terms, made as they are asked for: the
    product left @ right, viewed as complex, is the chunk's part of the
    (ny x `_padded_width`) map rows. The constant of a paired form is
    `_form_constant`'s."""
    n, width = dirs.count, _padded_width(grid)
    paired = _paired(dirs)
    first, second = _pair_orbits(dirs)
    tx, ty = _phase_tables(grid, k, dirs, _kept(dirs))
    if paired:                                # s_{n+h} = conj(s_n)
        tx = np.concatenate([tx, tx.conj()], axis=1)
        ty = np.concatenate([ty, ty.conj()], axis=1)
    # (N x width): the pair rows gather contiguously
    tx = np.concatenate([tx.T, np.zeros((n, width - grid.nx))], axis=1)
    c = b + b.T                               # s B s^T = sum_{a <= b} c_ab s_a s_b
    c[np.diag_indices(n)] = np.diag(b)
    coef = c[first, second]
    if paired:
        partner = c[(first + n // 2) % n, (second + n // 2) % n]
        u, v = _fold(coef, partner)
        # per term, the real map from (Xr, Xi) to (Re, Im) of the rows
        # u Xr + v Xi and v Xr - u Xi of the right factor
        mix = np.stack([u.real, v.real, u.imag, v.imag, v.real, -u.real, v.imag, -u.imag],
                       axis=1).reshape(-1, 2, 2, 2)
    for start in range(0, len(first), _PAIRS):
        chunk = slice(start, start + _PAIRS)
        a, z = first[chunk], second[chunk]
        yt = np.take(ty, a, axis=1) * np.take(ty, z, axis=1)
        xt = tx[a] * tx[z]
        if paired:
            # (terms, 2, width) complex, held as (terms, 2, width, 2) real
            right = np.empty((len(a), 2, width, 2))
            np.matmul(mix[chunk], np.stack([xt.real, xt.imag], axis=1)[:, None],
                      out=right.transpose(0, 1, 3, 2))
            yield yt.view(np.float64), right.reshape(2 * len(a), 2 * width)
        else:
            xt *= coef[chunk, None]
            yield yt, xt


def _form_constant(dirs, b):
    """The part of s B s^T that is the same at every point: for a paired
    set the sum over the pairs {a, a + h} of (B_{a, a+h} + B_{a+h, a}) / N,
    as s_a s_{a+h} = |s_a|^2 = 1/N; 0 otherwise."""
    if not _paired(dirs):
        return 0.0
    n = dirs.count
    a = np.arange(n // 2)
    return np.sum(b[a, a + n // 2] + b[a + n // 2, a]) / n


def _separable_sum(grid, ks, dirs, forms):
    """Per-point sum over f of the quadratic form s B_f s^T, for complex
    (N x N) matrices B_f and the conjugate TM steering vector s of the
    point, as a flat row-major array.

    s_n = tx_n(x) ty_n(y) factors over the grid's axes (`_phase_tables`),
    so with c = B_f + B_f^T, its diagonal halved, the form is
    sum_{a <= b} c_ab X_ab(x) Y_ab(y), X_ab = tx_a tx_b and Y_ab = ty_a ty_b:
    per frequency one (ny x K)(K x nx) complex GEMM over the K = N(N+1)/2
    pairs, whose output is the map's rows.

    Paired, s_{n+h} = conj(s_n), so the pair {a, a + h} is a constant
    (`_form_constant`), and each `_pair_orbits` term with partner
    coefficient d adds c P + d conj(P), P = X Y, which is
    Yr (u Xr + v Xi) + Yi (v Xr - u Xi) with u = c + d and v = i (c - d):
    the real (ny x 2K) view of the Y table times a (2K x nx) complex
    factor, a real GEMM over K = N^2/4 orbits, N^2 multiply-adds per point
    against the ~2N^2 of the complex GEMM.

    The terms are walked in chunks of _PAIRS (`_pair_factors`), and every
    chunk's product is added to the map in a fixed order over frequencies
    and chunks, so no value depends on the grid's shape."""
    total = np.zeros((grid.ny, _padded_width(grid)), dtype=np.complex128)
    out = np.empty_like(total)
    for k, b in zip(ks, forms):
        for left, right in _pair_factors(grid, k, dirs, b):
            np.matmul(left, right, out=out.view(left.dtype))
            total += out
    total += sum(_form_constant(dirs, b) for b in forms)
    return total[:, : grid.nx].ravel()


def _te_search(grid, subspaces, weights, candidates, dirs):
    """Per-point sum over f of the TE normal search's weighted terms, as a
    flat row-major array.

    With Theta the N x 2 direction matrix and A_u = s @ [theta_x u, theta_y u]
    = (u_0, u_1), for s the point's conjugate TM steering vector,
    S_nu(x)* u = sqrt(N) nu . A_u / ||Theta nu||, so one product per
    frequency serves every candidate: s F_f with the (N x 4M) factor
    F_f = [theta_x u | theta_y u | theta_x v | theta_y v]. The real view S
    (P x R, R = 2N') of a block's conjugate steering vectors over the
    N' = `_kept` directions gives s F_f = S G_f, G_f's row pair n being the
    `_fold` of F_f's rows n and n + N/2 (paired) or of row n and 0: one real
    GEMM of S against the (R x 2M) real view of each of G_f's four planes.
    Paired, R = N, half the multiply-adds of the complex GEMM s F_f.
    `_search_reduce` then picks each (f, m) term's normal.

    W = `_search_walkers` walkers walk the row-major grid in fixed blocks of
    _BLOCK points, walker w taking blocks w, w + W, ...: walker 0 on the
    calling thread, the others on threads of their own, each writing only
    its own blocks. A short last block is padded with copies of the grid's
    last point, whose results are dropped, so the GEMM and the reduce always
    see _BLOCK rows and take one BLAS path (a one-row GEMM runs as a GEMV,
    which rounds differently). No per-point result depends on its block or
    its walker, so the map is the same for every W. An exception in a
    walker is raised once every walker has stopped."""
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
    # the reduce forms 2 alpha, 2 beta and 2 gamma: the common factor 4 of the
    # moduli leaves the pick alone, and halved weights form the picked term.
    # scan is (L', 6) and column-major, which runs the small GEMM twice as fast
    scan = (np.stack([np.ones_like(w), cos2**2, sin2**2, 2 * cos2, 2 * sin2, 2 * cos2 * sin2])
            * w**2).T
    picked = np.stack([0.5 * w, 0.5 * w * cos2, 0.5 * w * sin2])
    kept, paired = _kept(dirs), _paired(dirs)
    dx, dy = d[:, :1], d[:, 1:]
    # per frequency the four planes of G_f, (4, R, M) complex held as (4, R, 2M) real
    planes = []
    for sub in subspaces:
        u, v = sub.retained_left(), sub.retained_right().conj()
        factor = np.stack([dx * u, dy * u, dx * v, dy * v])
        g = np.empty((4, 2 * kept, factor.shape[2]), dtype=np.complex128)
        g[:, 0::2], g[:, 1::2] = _fold(factor[:, :kept], factor[:, kept:] if paired else 0.0)
        planes.append(g.view(np.float64))
    tables = [_phase_tables(grid, sub.k, dirs, kept) for sub in subspaces]
    count = grid.nx * grid.ny
    starts = range(0, count, _BLOCK)
    total = np.zeros(count, dtype=np.complex128)
    walkers = _search_walkers(len(starts))
    errors = []

    def walk(w):
        try:
            for start in starts[w::walkers]:
                index = np.minimum(np.arange(start, start + _BLOCK), count - 1)
                iy, ix = np.divmod(index, grid.nx)
                acc = total[start : start + _BLOCK]
                for (tx, ty), g, weight in zip(tables, planes, weights):
                    s = _steering_block(tx, ty, ix, iy).view(np.float64)
                    prod = np.empty((4, _BLOCK, g.shape[2] // 2), dtype=np.complex128)
                    np.matmul(s, g, out=prod.view(np.float64))
                    term = _search_reduce(prod, scan, picked) * weight
                    del prod                       # freed before the next block's is made
                    acc += term[: len(acc)]
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


def _search_reduce(prod, scan, picked):
    """The picked TE terms of one block, summed over the subspace index:
    prod holds the (P x M) planes u_0, u_1, v_0 and v_1 of the block's
    GEMM, and is overwritten.

    For nu = (cos phi, sin phi),
    (nu . A_u)(nu . A_v) = alpha + beta cos 2phi + gamma sin 2phi with
    alpha = (u_0 v_0 + u_1 v_1)/2, beta = (u_0 v_0 - u_1 v_1)/2 and
    gamma = (u_0 v_1 + u_1 v_0)/2. Candidate l's term is w_l times that,
    w_l = N / ||Theta nu_l||^2, and its squared modulus is one real GEMM
    of the rows of scan, the weights [1, c^2, s^2, 2c, 2s, 2cs] w_l^2
    (c = cos 2phi_l, s = sin 2phi_l), against the six coefficients
    |alpha|^2, |beta|^2, |gamma|^2, Re alpha conj(beta),
    Re alpha conj(gamma) and Re beta conj(gamma). Each (f, m) term keeps
    the candidate of largest modulus (ties keep the smallest l), and only
    that term is formed, with picked's column l of weights."""
    p, m = prod.shape[1:]
    pm = p * m
    # alpha, beta and gamma are formed in planes 0-2 of prod
    u0, u1, v0, v1 = prod
    cross0, cross1 = np.empty((2, p, m), dtype=np.complex128)
    np.multiply(u0, v1, out=cross0)
    np.multiply(u1, v0, out=cross1)
    np.multiply(u0, v0, out=v0)
    np.multiply(u1, v1, out=v1)
    alpha = np.add(v0, v1, out=u0)
    beta = np.subtract(v0, v1, out=u1)
    gamma = np.add(cross0, cross1, out=v0)
    del cross0, cross1                             # freed before the scan's buffers
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
    for l in range(1, len(scan)):
        np.maximum(moduli[l - 1], moduli[l], out=moduli[l])
    below = np.less(moduli[:-1], moduli[-1]).view(np.uint8)
    pick = np.add.reduce(below, axis=0, dtype=np.min_scalar_type(len(scan)))
    sel = np.take(picked, pick, axis=1, out=tmp, mode="clip")
    np.multiply(zr, sel, out=zr)
    np.multiply(zi, sel, out=zi)
    alpha += beta
    alpha += gamma
    return np.sum(alpha, axis=1)


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
    if mode.kind == "te-search":
        prov["candidates"] = mode.candidates
        acc = _te_search(grid, subspaces, weights, mode.candidates, dirs)
    else:
        acc = _separable_sum(grid, ks, dirs,
                             [w * (sub.retained_left() @ sub.retained_right().conj().T)
                              for w, sub in zip(weights, subspaces)])
    return ImageMap(grid=grid, values=np.abs(acc) / len(subspaces), provenance=prov)


def image_kirchhoff(
    matrices: Sequence[MsrMatrix],
    grid: SearchGrid,
) -> ImageMap:
    """Kirchhoff migration: value(x) = (1/F) |sum_f S*(x) K(k_f) conj(S(x))|,
    over the direction set the matrices were built over."""
    ks, dirs = _wavenumbers(matrices, "MSR matrix")
    acc = _separable_sum(grid, ks, dirs, [m.entries for m in matrices])
    prov = _provenance("kirchhoff", "unit", ks, dirs)
    return ImageMap(grid=grid, values=np.abs(acc) / len(matrices), provenance=prov)


def save_map(image: ImageMap, path):
    """CSV persistence: header `x,y,value`, row-major rows, 17 digits."""
    g = image.grid
    # one template for every row: the x text is fixed, and the row's y text,
    # formatted once, and its values fill it interleaved
    template = "".join([f"{x:.17g},%s,%.17g\n" for x in g.xs().tolist()])
    fields = [None] * (2 * g.nx)
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for iy, y in enumerate(g.ys().tolist()):
            fields[::2] = [format(y, ".17g")] * g.nx
            fields[1::2] = image.values[iy * g.nx : (iy + 1) * g.nx].tolist()
            fh.write(template % tuple(fields))


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

    # twice the end-to-end step of the x axis reaches every coordinate. An
    # extent past the float range overflows to inf, which SearchGrid refuses
    with np.errstate(over="ignore"):
        low, high = 0, int(np.float64(2.0 * (ux[-1] - ux[0]) / (ux.size - 1)).view(np.int64))
        while high - low > 1:
            mid = (low + high) // 2
            if reaches(mid):
                high = mid
            else:
                low = mid
    return float(np.int64(high).view(np.float64))


def _count_lines(fh):
    """Lines from a text file's position to its end, an unterminated last
    line included, and whether any of them holds more than its line end."""
    ends = chars = 0
    last = "\n"
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        ends += chunk.count("\n")
        chars += len(chunk)
        last = chunk[-1]
    return ends + (last != "\n"), chars > ends


def _parse_rows(path, lines):
    """The (rows x 3) values of a map's lines after its header, line by
    line: a line without three fields, or with a field `float` rejects,
    raises MapParseError with its line number."""
    flat = array("d")
    for lineno, line in enumerate(lines, start=2):
        parts = line.rstrip("\n").split(",")
        if len(parts) != 3:
            raise MapParseError(f"{path}: expected 3 fields", line=lineno)
        try:
            flat.extend(map(float, parts))
        except ValueError as exc:
            raise MapParseError(f"{path}: {exc}", line=lineno) from exc
    return np.frombuffer(flat, dtype=np.float64).reshape(-1, 3)


def load_map(path) -> ImageMap:
    """Read a map CSV: the lines after the header go through NumPy's C
    reader, and when it fails, or skips a blank line, through the line rule
    of `_parse_rows`, which names the first bad line."""
    with open(path) as fh:
        if fh.readline().rstrip("\n") != "x,y,value":
            raise MapParseError(f"{path}: missing x,y,value header", line=1)
        start = fh.tell()
        count, filled = _count_lines(fh)
        rows = None
        if filled:                            # else NumPy warns of no data
            fh.seek(start)
            try:
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
        if rows is None or rows.shape != (count, 3):
            fh.seek(start)
            rows = _parse_rows(path, fh)
    lineno = 1 + len(rows)
    xs, ys, vals = rows.T
    infinite = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))
    if infinite.size:
        raise MapParseError(f"{path}: non-finite coordinate", line=int(infinite[0]) + 2)
    ux, uy = np.unique(xs), np.unique(ys)
    if ux.size * uy.size != vals.size:
        raise MapParseError(f"{path}: points do not form a full grid", line=lineno)
    if ux.size < 2 or uy.size < 2:
        raise MapParseError(f"{path}: a map needs two rows and two columns", line=lineno)
    try:
        grid = SearchGrid(
            x_lo=float(ux[0]), x_hi=float(ux[-1]), y_lo=float(uy[0]), y_hi=float(uy[-1]),
            h=_saved_step(ux, uy),
        )
    except ConfigError as exc:
        raise MapParseError(f"{path}: inconsistent grid step", line=1) from exc
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
