"""Multi-static response matrices: assembly over direction sets, calibrated
noise injection, truncated SVD with relative thresholding, persistence."""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, MapParseError
from .forward import BoundaryCondition, Discretization, NystromConfig, discretize, far_fields
from .geometry import Crack

__all__ = [
    "DirectionSet",
    "NoiseSpec",
    "MsrMatrix",
    "SignalSubspace",
    "assemble",
    "noisy_values",
    "add_noise",
    "check_threshold",
    "svd_threshold",
    "save_msr",
    "load_msr",
]

_FULL_VIEW_TOL = 1e-12


@dataclass(frozen=True)
class DirectionSet:
    """N directions on the arc [alpha, beta] of the unit circle.

    Full view (beta - alpha = 2 pi) uses the closed equispaced circle
    theta_n = 2 pi (n-1)/N; a limited aperture keeps both endpoints,
    theta_n = alpha + (beta - alpha)(n-1)/(N-1).
    """

    alpha: float
    beta: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"need at least 2 directions, got {self.count}")
        span = self.beta - self.alpha
        if not (0.0 < span <= 2.0 * np.pi + _FULL_VIEW_TOL):
            raise ConfigError(f"aperture span must lie in (0, 2*pi], got {span}")

    @property
    def is_full_view(self):
        return abs((self.beta - self.alpha) - 2.0 * np.pi) <= _FULL_VIEW_TOL

    def angles(self):
        n = self.count
        if self.is_full_view:
            return self.alpha + 2.0 * np.pi * np.arange(n) / n
        return self.alpha + (self.beta - self.alpha) * np.arange(n) / (n - 1)

    def directions(self):
        ang = self.angles()
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def key(self):
        return (round(self.alpha, 12), round(self.beta, 12), self.count)

    @classmethod
    def full_view(cls, count):
        return cls(0.0, 2.0 * np.pi, count)


@dataclass(frozen=True)
class NoiseSpec:
    snr_db: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.snr_db):
            raise ConfigError("snr_db must be finite")
        if self.seed is None or self.seed < 0:
            raise ConfigError(f"noise seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class MsrMatrix:
    """N x N far-field matrix at one wavenumber; entry (j, l) observes the
    incidence theta_l at x_hat_j = -theta_j."""

    k: float
    entries: np.ndarray
    dirs: DirectionSet
    bc: BoundaryCondition
    noise: Optional[NoiseSpec] = None

    @property
    def count(self):
        return self.dirs.count

    def symmetry_defect(self):
        num = np.linalg.norm(self.entries - self.entries.T, "fro")
        return num / np.linalg.norm(self.entries, "fro")


@dataclass(frozen=True)
class SignalSubspace:
    """Full SVD of an MSR matrix plus the threshold cut index M_f."""

    k: float
    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    cut_index: int
    dirs: DirectionSet

    def retained_left(self):
        return self.left_vectors[:, : self.cut_index]

    def retained_right(self):
        return self.right_vectors[:, : self.cut_index]


def assemble(
    crack: Crack,
    k: float,
    dirs: DirectionSet,
    bc,
    cfg: NystromConfig = NystromConfig(),
    discretization: Optional[Discretization] = None,
) -> MsrMatrix:
    """Solve N incident problems and evaluate at the N reversed directions.

    ``discretization`` is `forward.discretize([crack], bc, cfg)`, built once
    and passed to every call of a frequency sweep; without it the call
    builds its own."""
    bc = BoundaryCondition.parse(bc)
    if discretization is None:
        discretization = discretize([crack], bc, cfg)
    elif (
        discretization.cracks != (crack,)
        or discretization.bc is not bc
        or discretization.nodes_per_arc != cfg.nodes_per_arc
    ):
        raise DomainError("discretization was built for another crack, polarization or node count")
    thetas = dirs.directions()
    entries = far_fields(discretization, k, thetas, -thetas)[0]
    return MsrMatrix(k=k, entries=entries, dirs=dirs, bc=bc)


def noisy_values(values, spec: NoiseSpec):
    """values + E with i.i.d. circular complex Gaussian E scaled so that
    ||E|| / ||values|| = 10^(-snr_db/20) in the Frobenius (vector 2-) norm;
    deterministic under the seed."""
    signal = np.linalg.norm(values)
    if signal == 0.0:
        raise DomainError("SNR is undefined for zero data")
    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    noise *= signal * 10.0 ** (-spec.snr_db / 20.0) / np.linalg.norm(noise)
    return values + noise


def add_noise(m: MsrMatrix, spec: NoiseSpec) -> MsrMatrix:
    """K + E with ||E||_F / ||K||_F = 10^(-snr_db/20); see noisy_values."""
    return replace(m, entries=noisy_values(m.entries, spec), noise=spec)


def check_threshold(tau):
    """Refuse a relative SVD cut tau outside (0, 1)."""
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {tau}")


def _cut_index(singular_values, tau):
    check_threshold(tau)
    top = singular_values[0]
    if top <= 0.0:
        raise DomainError("rank-0 matrix has no signal subspace")
    return int(np.count_nonzero(singular_values >= tau * top))


def svd_threshold(m: MsrMatrix, tau: float = 0.01) -> SignalSubspace:
    """Full SVD; keep the M_f = max{m : sigma_m / sigma_1 >= tau} columns."""
    u, s, vh = np.linalg.svd(m.entries)
    cut = _cut_index(s, tau)
    return SignalSubspace(
        k=m.k,
        singular_values=s,
        left_vectors=u,
        right_vectors=vh.conj().T,
        cut_index=cut,
        dirs=m.dirs,
    )


def save_msr(m: MsrMatrix, path):
    """Plain-text persistence: header `MSR N k alpha beta bc snr seed`, then
    N^2 lines `j l re im` (1-based indices, 17 significant digits)."""
    n = m.count
    snr = "none" if m.noise is None else format(m.noise.snr_db, ".17g")
    seed = "none" if m.noise is None else str(m.noise.seed)
    header = (f"MSR {n} {m.k:.17g} {m.dirs.alpha:.17g} {m.dirs.beta:.17g} "
              f"{m.bc.value} {snr} {seed}\n")
    # one template for the file: the indices are fixed text, and the real
    # and imaginary parts fill it interleaved
    template = "".join([f"{j} {l} %.17g %.17g\n"
                        for j in range(1, n + 1) for l in range(1, n + 1)])
    parts = np.ascontiguousarray(m.entries, dtype=np.complex128).view(np.float64)
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(template % tuple(parts.ravel().tolist()))


def load_msr(path) -> MsrMatrix:
    """Read a `save_msr` file. A malformed or invalid header field, a
    malformed entry line, an index outside 1..N, a repeated (j, l) or a line
    count other than 1 + N^2 raises MapParseError with its line number."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or not raw[0].startswith("MSR "):
        raise MapParseError(f"{path}: missing MSR header", line=1)
    head = raw[0].split()
    if len(head) != 8:
        raise MapParseError(f"{path}: malformed MSR header", line=1)
    try:
        n, k = int(head[1]), float(head[2])
        dirs = DirectionSet(alpha=float(head[3]), beta=float(head[4]), count=n)
        bc = BoundaryCondition.parse(head[5])
        noise = None if head[6] == "none" else NoiseSpec(snr_db=float(head[6]), seed=int(head[7]))
    except ValueError as exc:             # ConfigError is one too
        raise MapParseError(f"{path}: malformed MSR header: {exc}", line=1) from exc
    if not (math.isfinite(k) and k > 0.0):
        raise MapParseError(f"{path}: wavenumber must be positive and finite, got {k}", line=1)
    if len(raw) != 1 + n * n:
        raise MapParseError(f"{path}: expected {n * n} entry lines",
                            line=min(len(raw), 2 + n * n))
    entries = np.zeros((n, n), dtype=np.complex128)
    seen = np.zeros((n, n), dtype=bool)
    for lineno, line in enumerate(raw[1:], start=2):
        parts = line.split()
        if len(parts) != 4:
            raise MapParseError(f"{path}: malformed entry line", line=lineno)
        try:
            j, l = int(parts[0]) - 1, int(parts[1]) - 1
            value = complex(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise MapParseError(f"{path}: malformed entry line: {exc}", line=lineno) from exc
        if not (0 <= j < n and 0 <= l < n):
            raise MapParseError(f"{path}: entry index outside 1..{n}", line=lineno)
        if seen[j, l]:
            raise MapParseError(f"{path}: repeated entry ({j + 1}, {l + 1})", line=lineno)
        seen[j, l] = True
        entries[j, l] = value
    return MsrMatrix(k=k, entries=entries, dirs=dirs, bc=bc, noise=noise)
