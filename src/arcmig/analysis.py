"""Closed-form kernel predictions for the imaging functionals, limited-view
ring integrals with their correction series, and map-versus-prediction
metrics.

Every prediction is exposed in its leading-order form and, where the
underlying derivation keeps an integral or series remainder, in a variant
that includes the remainder numerically, so tests can measure what the
leading order neglects.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, DomainError, SingularityError
from .geometry import Crack, sample_points
from .imaging import ImageMap

__all__ = [
    "REGIMES",
    "RingIntegralResult",
    "ring_integrals",
    "kernel_predict",
    "kernel_predict_grid",
    "validate_map",
    "crack_samples_on_grid",
    "adaptive_quad",
    "band_j1sq_integral",
    "halfline_oscillatory_j0",
    "te_full_branch",
    "first_sidelobe_ratio",
]

REGIMES = (
    "TM_SINGLE",
    "TM_BAND",
    "TM_BAND_INF",
    "TM_SMALL_NINC_INF",
    "TM_WEIGHTED_BAND",
    "TM_WEIGHTED_INF",
    "TE_FULL_NEAR",
    "TE_FULL_FAR",
    "TE_SMALL_NINC_INF",
    "LV_TM_BAND",
    "LV_TE_BAND",
)

_FULL_VIEW_TOL = 1e-12

# grid points x crack samples per `kernel_predict_grid` call in
# `validate_map` and per nearest-distance block: bounds the (points x
# samples) temporaries whatever the sample count; rows do not depend on
# each other
_PREDICT_ARGS = 65536


def _row_blocks(count, samples):
    """Slices of at most _PREDICT_ARGS // samples rows (at least one)."""
    rows = max(1, _PREDICT_ARGS // samples)
    return [slice(lo, lo + rows) for lo in range(0, count, rows)]


def _j01(z):
    """(J_0(z), J_1(z)) from one fused kernel call."""
    return kernels.jy01v(np.abs(z), want_y=False)


def _j01_squares(z):
    """J_0(z)^2 + J_1(z)^2."""
    j0, j1 = _j01(z)
    return j0**2 + j1**2


def adaptive_quad(f, a, b, tol=1e-10):
    """Adaptive Simpson quadrature for a scalar (possibly complex) integrand,
    at most 48 bisections deep: the independent oracle for the Gauss-panel
    band integrals and the ring series."""

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(x0, x2, f0, f1, f2, whole, depth):
        x1l = 0.5 * (x0 + 0.5 * (x0 + x2))
        x1r = 0.5 * (0.5 * (x0 + x2) + x2)
        fl = f(x1l)
        fr = f(x1r)
        h = x2 - x0
        left = simpson(f0, fl, f1, 0.5 * h)
        right = simpson(f1, fr, f2, 0.5 * h)
        if depth <= 0:
            return left + right
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, 0.5 * (x0 + x2), f0, fl, f1, left, depth - 1) + recurse(
            0.5 * (x0 + x2), x2, f1, fr, f2, right, depth - 1
        )

    # seed with enough panels to resolve oscillation before adapting
    n0 = 8
    xs = np.linspace(a, b, n0 + 1)
    total = 0.0 + 0.0j
    for x0, x2 in zip(xs[:-1], xs[1:]):
        xm = 0.5 * (x0 + x2)
        f0, f1, f2 = f(x0), f(xm), f(x2)
        whole = simpson(f0, f1, f2, x2 - x0)
        total += recurse(x0, x2, f0, f1, f2, whole, 48)
    return total


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gauss_nodes(edges):
    """Nodes of the 16-point Gauss-Legendre rule on each of the equal panels
    between ``edges``, panel by panel, and the panels' half-width."""
    half = 0.5 * (edges[1] - edges[0])
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half * _GL_NODES[None, :]).ravel(), half


def _band_panels(k_first, k_last, r_max):
    """Nodes and weights of the composite Gauss-Legendre rule on [k_first,
    k_last] for integrands oscillating in k no faster than exp(2 i k r_max):
    at least 8 panels, each at most 3 / r_max wide."""
    panels = max(8, int(math.ceil((k_last - k_first) * max(1e-9, r_max) / 3.0)) + 2)
    nodes, half = _gauss_nodes(np.linspace(k_first, k_last, panels + 1))
    return nodes, np.broadcast_to(half * _GL_WEIGHTS, (panels, 16)).ravel()


def band_j1sq_integral(k_first, k_last, r):
    """integral over [k_first, k_last] of J_1(k r)^2 dk, vectorized in r."""
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    nodes, weights = _band_panels(k_first, k_last, float(np.max(r)))
    return np.tensordot(_j01(np.outer(r, nodes))[1] ** 2, weights, axes=([-1], [0]))


def _distances(x, points):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    diff = x[:, None, :] - points[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1]), diff


@dataclass(frozen=True)
class RingIntegralResult:
    """Truncated arc integrals of the steering phases over [alpha, beta]:
    complex scalars, or arrays shaped like the wavenumbers asked for."""

    plain: complex
    weighted: complex
    truncation: int
    tail_bound: float


def _lambda_tail_bound(kr, L):
    # |J_n(x)| <= (x/2)^n / n! gives a super-exponential tail for the series
    term = (0.5 * kr) ** (L + 1) / math.factorial(L + 1) / (L + 1)
    ratio = 0.5 * kr / (L + 2)
    if ratio < 0.9:
        return 4.0 * term / (1.0 - ratio)
    return float("inf")


# i^n, indexed by n mod 4
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def ring_integrals(alpha, beta, k, x, xi):
    """The two arc integrals of the limited-view analysis:

    plain    = integral over [alpha, beta] of exp(i k theta . x) dtheta,
    weighted = same with the factor theta . xi,

    both via the Jacobi-Anger form: (beta-alpha) J_0 plus the Lambda_D
    series, and the J_0/J_1 principal terms plus the Lambda_N series.  At
    full aperture every series term vanishes identically.

    ``k`` may be an array: ``plain`` and ``weighted`` then take its shape,
    every series runs to the truncation of the largest k r, and one
    `kernels.jn_table` call serves all of them.  A scalar ``k`` gives
    complex scalars.
    """
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if abs(np.hypot(xi[0], xi[1]) - 1.0) > 1e-9:
        raise DomainError(f"xi must be a unit vector, got {xi}")
    span = beta - alpha
    if not (0.0 < span <= 2.0 * np.pi + _FULL_VIEW_TOL):
        raise DomainError(f"aperture span must lie in (0, 2*pi], got {span}")
    k = np.asarray(k, dtype=np.float64)
    r = float(np.hypot(x[0], x[1]))
    kr = np.ravel(k * r)
    phi = math.atan2(x[1], x[0]) if r > 0.0 else 0.0
    xi_ang = math.atan2(xi[1], xi[0])
    L = int(math.ceil(np.max(kr))) + 30
    # principal terms from the dedicated order-0/1 kernel (shared
    # evaluation path with every other module)
    j0, j1 = kernels.jy01v(kr, want_y=False)

    xhat_dot_xi = (x @ xi) / r if r > 0.0 else 0.0
    plain = span * j0
    weighted = 2.0 * j0 * math.sin(span / 2.0) * math.cos((beta + alpha - 2.0 * xi_ang) / 2.0)
    weighted = weighted + 1j * j1 * (
        span * xhat_dot_xi + math.sin(span) * math.cos(beta + alpha - xi_ang - phi)
    )
    tail = 0.0
    if abs(span - 2.0 * np.pi) > _FULL_VIEW_TOL:
        # off full view sin(n (beta-alpha)/2) != 0: rows n = 1..L of the series
        table = kernels.jn_table(L, kr)
        n = np.arange(1, L + 1)[:, None]
        plain = plain + np.sum(
            4.0 * _I_POWERS[n % 4] / n * table[1:]
            * np.cos(n * (beta + alpha - 2.0 * phi) / 2.0) * np.sin(n * span / 2.0),
            axis=0,
        )
        n = n[1:]
        lam = np.sin((1 - n) * span / 2.0) / (1 - n) * np.cos(
            ((1 - n) * (beta + alpha) + 2 * n * phi - 2.0 * xi_ang) / 2.0
        )
        lam += np.sin((1 + n) * span / 2.0) / (1 + n) * np.cos(
            ((1 + n) * (beta + alpha) - 2 * n * phi - 2.0 * xi_ang) / 2.0
        )
        weighted = weighted + np.sum(2.0 * _I_POWERS[n % 4] * table[2:] * lam, axis=0)
        tail = _lambda_tail_bound(float(np.max(kr)), L)
    if k.ndim == 0:
        return RingIntegralResult(complex(plain[0]), complex(weighted[0]), L, tail)
    return RingIntegralResult(plain.reshape(k.shape), weighted.reshape(k.shape), L, tail)


def _require_positive_distance(r, regime):
    if np.any(r <= 0.0):
        raise SingularityError(
            f"{regime}: evaluation point coincides with a crack point",
            factor="|x - y_m|",
        )


def _transverse(diff, r, thetas, regime):
    # r^2 - (theta_s . (x - y_m))^2 per (point, sample, direction)
    proj = np.einsum("pmd,sd->pms", diff, thetas)
    trans = r[..., None] ** 2 - proj**2
    if np.any(trans <= 0.0):
        raise SingularityError(
            f"{regime}: an incident direction is parallel to x - y_m",
            factor="sqrt(|x-y|^2 - (theta.(x-y))^2)",
        )
    return proj, trans


def _ring_band(x, points, normals, alpha, beta, k_first, k_last):
    """Per point, |sum_m integral over [k_first, k_last] of I_m(k)^2 dk| /
    ((beta - alpha)^2 (k_last - k_first)): I_m is the plain ring integral of
    x - y_m when ``normals`` is None, else the one weighted by nu_m.  The
    k integrals run on the Gauss panels of `band_j1sq_integral`."""
    r, diff = _distances(x, points)
    nodes, weights = _band_panels(k_first, k_last, float(np.max(r)))
    out = np.empty(x.shape[0])
    for p in range(x.shape[0]):
        acc = 0.0 + 0.0j
        for m in range(points.shape[0]):
            xi = np.array([1.0, 0.0]) if normals is None else normals[m]
            ring = ring_integrals(alpha, beta, nodes, diff[p, m], xi)
            acc += (ring.plain if normals is None else ring.weighted) ** 2 @ weights
        out[p] = abs(acc) / ((beta - alpha) ** 2 * (k_last - k_first))
    return out


def kernel_predict_grid(kind, x, points, normals=None, k=None, k_first=None, k_last=None,
                        thetas=None, alpha=None, beta=None, include_remainder=False):
    """Vectorized kernel prediction at the points ``x`` (shape (P, 2)).

    ``include_remainder`` switches on the integral/series terms the
    leading-order statements neglect.
    """
    if kind not in REGIMES:
        raise ConfigError(f"unknown kernel regime {kind!r}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if normals is not None:
        normals = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    if thetas is not None:
        thetas = np.atleast_2d(thetas)
    r, diff = _distances(x, points)

    if kind == "TM_SINGLE":
        return np.sum(_j01(k * r)[0] ** 2, axis=1)

    if kind == "TM_BAND":
        dk = k_last - k_first
        bracket = (
            k_last * _j01_squares(k_last * r) - k_first * _j01_squares(k_first * r)
        ) / dk
        if include_remainder:
            flat = band_j1sq_integral(k_first, k_last, r.ravel()) / dk
            bracket = bracket + flat.reshape(r.shape)
        return np.abs(np.sum(bracket, axis=1))

    if kind == "TM_BAND_INF":
        # 1 on the crack samples (to 1e-12), 0 elsewhere
        return (np.min(r, axis=1) <= 1e-12).astype(np.float64)

    if kind == "TM_SMALL_NINC_INF":
        _require_positive_distance(r, kind)
        _, trans = _transverse(diff, r, thetas, kind)
        return np.abs(np.sum(1.0 / np.sqrt(trans), axis=(1, 2)))

    if kind == "TM_WEIGHTED_BAND":
        dk = k_last - k_first
        bracket = 0.5 * k_last**2 * _j01_squares(k_last * r)
        bracket -= 0.5 * k_first**2 * _j01_squares(k_first * r)
        return np.abs(np.sum(bracket, axis=1)) / dk

    if kind == "TM_WEIGHTED_INF":
        _require_positive_distance(r, kind)
        proj, trans = _transverse(diff, r, thetas, kind)
        return np.abs(np.sum(proj / trans**1.5, axis=(1, 2)))

    if kind in ("TE_FULL_NEAR", "TE_FULL_FAR"):
        dot = np.einsum("pmd,md->pm", diff, normals)
        if kind == "TE_FULL_NEAR":
            pref = (k_last**3 - k_first**3) / (12.0 * (k_last - k_first))
            return pref * np.abs(np.sum(dot**2, axis=1))
        _require_positive_distance(r, kind)
        pref = 2.0 / (np.pi * (k_last - k_first))
        return pref * np.abs(np.sum(dot**2 / (math.sqrt(2.0 * k_last) * r**4), axis=1))

    if kind == "TE_SMALL_NINC_INF":
        _require_positive_distance(r, kind)
        proj, trans = _transverse(diff, r, thetas, kind)
        theta_nu = np.einsum("sd,md->ms", thetas, normals)        # (M, S)
        rhat_nu = np.einsum("pmd,md->pm", diff, normals) / r      # (P, M)
        lam4 = (1.0 + 1j * proj / np.sqrt(trans)) / r[..., None]  # (P, M, S)
        total = np.sum(theta_nu[None, :, :] * rhat_nu[..., None] * lam4, axis=(1, 2))
        return np.abs(total) / (k_last - k_first)

    if kind == "LV_TM_BAND":
        if include_remainder:
            return _ring_band(x, points, None, alpha, beta, k_first, k_last)
        return kernel_predict_grid("TM_BAND", x, points, k_first=k_first, k_last=k_last)

    # LV_TE_BAND
    if include_remainder:
        return _ring_band(x, points, normals, alpha, beta, k_first, k_last)
    span = beta - alpha
    dk = k_last - k_first
    _require_positive_distance(r, kind)
    nu_ang = np.arctan2(normals[:, 1], normals[:, 0])
    phi = np.arctan2(diff[..., 1], diff[..., 0])
    rhat_nu = np.einsum("pmd,md->pm", diff, normals) / r
    c1 = 2.0 * math.sin(span / 2.0) * np.cos((beta + alpha - 2.0 * nu_ang) / 2.0)
    c2 = span * rhat_nu + math.sin(span) * np.cos(beta + alpha - nu_ang[None, :] - phi)
    j0_hi, j1_hi = _j01(k_last * r)
    j0_lo, j1_lo = _j01(k_first * r)
    term = (c1**2)[None, :] * (
        k_last * (j0_hi**2 + j1_hi**2) - k_first * (j0_lo**2 + j1_lo**2)
    ) / dk
    j1sq = band_j1sq_integral(k_first, k_last, r.ravel()).reshape(r.shape)
    term = term + ((c1**2)[None, :] - c2**2) * j1sq / dk
    term = term + 1j * c1[None, :] * c2 * (j0_lo**2 - j0_hi**2) / (2.0 * dk * r)
    return np.abs(np.sum(term, axis=1)) / span**2


def kernel_predict(kind, x, points, **kwargs) -> float:
    """Scalar wrapper over `kernel_predict_grid`."""
    return float(kernel_predict_grid(kind, np.atleast_2d(x), points, **kwargs)[0])


def te_full_branch(k_first, r):
    """Which asymptotic branch of the TE alternative kernel applies at
    distance r: 'near' (k r well below sqrt(2)), 'far', or 'gap'."""
    kr = k_first * r
    if kr < math.sqrt(2.0) * 0.5:
        return "near"
    if kr > 0.75 * 2.0:
        return "far"
    return "gap"


def halfline_oscillatory_j0(a, b, t_max=2000.0):
    """integral over [0, inf) of exp(i a t) J_0(b t) dt for |a| < b, by
    truncated panel quadrature with Cesaro-style averaging of the
    oscillating partial integrals over the last 40 % of the panels."""
    if not abs(a) < b:
        raise DomainError("requires |a| < b")
    panel = np.pi / (2.0 * b)
    n_panels = int(t_max / panel)
    nodes, half = _gauss_nodes(panel * np.arange(n_panels + 1))
    vals = np.exp(1j * a * nodes) * _j01(b * nodes)[0]
    partial = np.cumsum(half * (vals.reshape(n_panels, 16) @ _GL_WEIGHTS))
    return complex(np.mean(partial[int((1.0 - 0.4) * n_panels):]))


def first_sidelobe_ratio(values):
    """First side-lobe to main-peak ratio of a radial profile sampled from
    r = 0 outward (peak at index 0)."""
    values = np.asarray(values, dtype=np.float64)
    peak = values[0]
    i = 1
    while i + 1 < values.size and values[i + 1] <= values[i]:
        i += 1
    if i + 1 >= values.size:
        raise DomainError("no side lobe inside the sampled profile")
    j = i
    while j + 1 < values.size and values[j + 1] >= values[j]:
        j += 1
    return float(values[j] / peak)


def _nearest_distances(grid_points, pts):
    """Distance from each grid point to the nearest of ``pts``, computed in
    row blocks of at most `_PREDICT_ARGS` point-sample pairs."""
    dist = np.empty(grid_points.shape[0])
    for rows in _row_blocks(grid_points.shape[0], pts.shape[0]):
        block = grid_points[rows]
        dist[rows] = np.min(
            np.hypot(block[:, None, 0] - pts[None, :, 0], block[:, None, 1] - pts[None, :, 1]),
            axis=1,
        )
    return dist


# grid points at least this far from every crack sample are off the crack
_OFF_DISTANCE = 0.5
# crack samples of localization_metrics
_METRIC_SAMPLES = 64


def crack_samples_on_grid(crack: Crack, grid, m_samples=_METRIC_SAMPLES):
    """Points and unit normals of ``m_samples`` crack samples
    (`geometry.sample_points`) and the indices of the grid points nearest
    them; a sample outside the grid raises ConfigError.  The default count
    is that of `localization_metrics`, so a run checks its grid with this
    call before its forward stage."""
    samples = sample_points(crack, m_samples)
    pts = np.array([s.point for s in samples])
    normals = np.array([s.normal for s in samples])
    on_idx = np.unique([grid.index_nearest(p) for p in pts])
    return pts, normals, on_idx


def _on_off_means(image: ImageMap, grid_points, pts, on_idx):
    """Mean of the map at the grid points ``on_idx`` nearest the crack
    samples ``pts``, its mean over the grid points at least
    `_OFF_DISTANCE` from every sample, and their ratio."""
    dist = _nearest_distances(grid_points, pts)
    on_mean = float(np.mean(image.values[on_idx]))
    off_mask = dist >= _OFF_DISTANCE
    if not off_mask.any():
        raise ConfigError("no grid point is far enough from the crack")
    off_mean = float(np.mean(image.values[off_mask]))
    return {
        "on_crack_mean": on_mean,
        "off_crack_mean": off_mean,
        "contrast": on_mean / off_mean if off_mean > 0 else float("inf"),
    }


def validate_map(image: ImageMap, crack: Crack, kind, params, m_samples=32):
    """Compare a computed map against a kernel prediction and report
    localization metrics.

    Returns a dict with sup_deviation, on_crack_mean, off_crack_mean and
    contrast.  The prediction's ``m_samples`` sample points y_m come from
    `crack_samples_on_grid`; ``params`` feeds `kernel_predict_grid`.
    """
    grid = image.grid
    pts, normals, on_idx = crack_samples_on_grid(crack, grid, m_samples)
    grid_points = grid.points()
    needs_normals = kind.startswith("TE") or kind == "LV_TE_BAND"
    kwargs = dict(params)
    if needs_normals:
        kwargs.setdefault("normals", normals)
    prediction = np.empty(grid_points.shape[0])
    for rows in _row_blocks(grid_points.shape[0], pts.shape[0]):
        prediction[rows] = kernel_predict_grid(kind, grid_points[rows], pts, **kwargs)
    sup_dev = float(np.max(np.abs(image.values - prediction)))
    return {"sup_deviation": sup_dev, **_on_off_means(image, grid_points, pts, on_idx)}


def localization_metrics(image: ImageMap, crack: Crack):
    """Contrast-style metrics without a kernel prediction."""
    pts, _, on_idx = crack_samples_on_grid(crack, image.grid)
    means = _on_off_means(image, image.grid.points(), pts, on_idx)
    argmax = image.argmax_point()
    return {
        "argmax_x": float(argmax[0]),
        "argmax_y": float(argmax[1]),
        "argmax_value": float(np.max(image.values)),
        "argmax_distance": float(
            np.min(np.hypot(pts[:, 0] - argmax[0], pts[:, 1] - argmax[1]))
        ),
        **means,
    }
