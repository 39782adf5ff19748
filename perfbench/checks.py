"""Checks of the program's outputs against computations made apart from it
or against properties the method must have.

Every check returns operation records ``{"op", "ok", "detail"}``; a record
with ``ok`` false counts as a failed operation.  Tolerances:

* kernels: |arcmig - scipy.special| <= 1e-12 * max(1, |scipy|);
* maps recomputed from the saved MSR files: <= 1e-9 of the map's peak;
* `validate_map` against the scipy closed form: 1e-9 relative on the sup
  deviation, 1e-12 relative on the on/off-crack means and the contrast;
* noise-free MSR: reciprocity defect <= 1e-6, agreement with a solve at
  twice the nodes <= 1e-8 (relative Frobenius);
* saved noise: ||noisy - clean||_F / ||clean||_F within 1e-9 (relative) of
  10^(-snr/20).
"""

import hashlib
import math
from pathlib import Path

import numpy as np
from scipy import special

KERNEL_TOL = 1e-12
MAP_TOL = 1e-9
RECIPROCITY_TOL = 1e-6
CONVERGENCE_TOL = 1e-8
SNR_TOL = 1e-9
MAP_SAMPLE_POINTS = 48
PREDICT_SAMPLES = 32          # validate_map's default crack samples
OFF_DISTANCE = 0.5            # validate_map's default off-crack distance


def _op(name, ok, detail=""):
    return {"op": name, "ok": bool(ok), "detail": detail}


# ------------------------------------------------------------------ kernels

# series below 9, extended-precision series on [9, 18), asymptotic from 18
KERNEL_RANGES = {
    "series": np.concatenate([np.linspace(1e-3, 9.0, 1500, endpoint=False),
                              [np.nextafter(9.0, 0.0)]]),
    "extended": np.concatenate([[9.0], np.linspace(9.0, 18.0, 1500, endpoint=False)[1:],
                                [np.nextafter(18.0, 0.0)]]),
    "asymptotic": np.linspace(18.0, 400.0, 1500),
}
JN_ORDERS = (2, 7, 20)


def kernel_checks():
    """One operation per (function, order, argument range)."""
    from arcmig.backend import kernels

    cases = [("j0v", kernels.j0v, special.j0), ("j1v", kernels.j1v, special.j1),
             ("y0v", kernels.y0v, special.y0), ("y1v", kernels.y1v, special.y1)]
    for n in JN_ORDERS:
        cases.append((f"jnv({n})", lambda x, n=n: kernels.jnv(n, x),
                      lambda x, n=n: special.jv(n, x)))
    ops = []
    for label, ours, ref in cases:
        for regime, x in KERNEL_RANGES.items():
            want = ref(x)
            err = np.abs(ours(x.copy()) - want) / np.maximum(1.0, np.abs(want))
            worst = float(np.max(err))
            ops.append(_op(f"kernel {label} {regime}", worst <= KERNEL_TOL,
                           f"max scaled error {worst:.2e}"))
    return ops


# -------------------------------------------------------------- file parsing

def read_msr(path):
    """(header fields, N x N entries) of an MSR file, parsed here."""
    with open(path) as fh:
        head = fh.readline().split()
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    n = int(head[1])
    entries = np.zeros((n, n), dtype=np.complex128)
    entries[rows[:, 0].astype(int) - 1, rows[:, 1].astype(int) - 1] = rows[:, 2] + 1j * rows[:, 3]
    return head, entries


def read_map(path):
    """Grid axes and row-major values of a map CSV, parsed here."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    xs, ys = np.unique(data[:, 0]), np.unique(data[:, 1])
    return data[:, :2], xs, ys, data[:, 2]


def msr_files(out_dir):
    return sorted(Path(out_dir).glob("msr_*.msr"))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --------------------------------------------------------- imaging formulas

def _directions(alpha, beta, count):
    if abs((beta - alpha) - 2.0 * math.pi) <= 1e-12:
        ang = alpha + 2.0 * math.pi * np.arange(count) / count
    else:
        ang = alpha + (beta - alpha) * np.arange(count) / (count - 1)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def subspace_functional(msrs, points, mode, candidates, tau):
    """(1/F)|sum_f sum_{m<=M_f} (S*U_m)(S*conj(V_m))| from the formula, with
    plain NumPy SVD; TE search keeps, per (f, m), the candidate normal of
    largest |term| (first one on ties)."""
    total = np.zeros(points.shape[0], dtype=np.complex128)
    for head, entries in msrs:
        k, alpha, beta = float(head[2]), float(head[3]), float(head[4])
        theta = _directions(alpha, beta, entries.shape[0])
        u, s, vh = np.linalg.svd(entries)
        m = int(np.count_nonzero(s >= tau * s[0]))
        u, vbar = u[:, :m], vh[:m, :].T
        phase = np.exp(1j * k * (points @ theta.T))
        if mode == "tm":
            steer = phase.conj() / math.sqrt(theta.shape[0])
            total += np.sum((steer @ u) * (steer @ vbar), axis=1)
            continue
        ang = 2.0 * math.pi * np.arange(1, candidates + 1) / candidates
        terms = []
        for nu in np.stack([np.cos(ang), np.sin(ang)], axis=1):
            proj = theta @ nu
            steer = (phase * proj[None, :]).conj() / np.linalg.norm(proj)
            terms.append((steer @ u) * (steer @ vbar))
        terms = np.stack(terms)                               # (L, P, M)
        best = np.argmax(np.abs(terms), axis=0)
        total += np.sum(np.take_along_axis(terms, best[None], axis=0)[0], axis=1)
    return np.abs(total) / len(msrs)


def tm_band_prediction(points, crack_points, k_first, k_last):
    r = np.hypot(points[:, None, 0] - crack_points[None, :, 0],
                 points[:, None, 1] - crack_points[None, :, 1])

    def bracket(k):
        return k * (special.j0(k * r) ** 2 + special.j1(k * r) ** 2)

    return np.abs(np.sum((bracket(k_last) - bracket(k_first)) / (k_last - k_first), axis=1))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# -------------------------------------------------------------- map checks

def map_checks(out_dir, preset, cfg, rng, validate=None):
    """Recompute the map at sampled grid points, check localization and,
    for TM maps, `validate_map` against the scipy closed form."""
    from arcmig import geometry, imaging

    out_dir = Path(out_dir)
    points, xs, ys, values = read_map(out_dir / "map.csv")
    meta = imaging.load_metadata(out_dir / "map.meta")
    msrs = [read_msr(p) for p in msr_files(out_dir)]
    ops = []

    peak = int(np.argmax(values))
    idx = np.unique(np.append(rng.choice(values.size, MAP_SAMPLE_POINTS, replace=False), peak))
    mode = "tm" if cfg.mode == "tm" else "te"
    candidates = int(meta.get("candidates", 0))
    ok_meta = meta["weight"] == "unit" and len(msrs) == cfg.freq_count
    mine = subspace_functional(msrs, points[idx], mode, candidates, float(meta["threshold"]))
    dev = float(np.max(np.abs(mine - values[idx])) / values[peak])
    ops.append(_op(f"{preset} map vs formula", ok_meta and dev <= MAP_TOL,
                   f"{idx.size} points, max deviation {dev:.2e} of peak"))

    crack = cfg.crack()
    dense = np.concatenate([np.atleast_2d(arc.points(np.linspace(-1.0, 1.0, 4001)))
                            for arc in crack.components])
    lam_last = 2.0 * math.pi / max(float(h[2]) for h, _ in msrs)
    dist = float(np.min(np.hypot(dense[:, 0] - points[peak, 0], dense[:, 1] - points[peak, 1])))
    ops.append(_op(f"{preset} argmax within lambda_F", dist <= lam_last,
                   f"argmax {dist:.4f} from the crack, lambda_F {lam_last:.4f}"))

    samples = np.array([s.point for s in geometry.sample_points(crack, PREDICT_SAMPLES)])
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    on_idx = np.unique(np.round((samples[:, 1] - ys[0]) / h).astype(int) * xs.size
                       + np.round((samples[:, 0] - xs[0]) / h).astype(int))
    near = np.min(np.hypot(points[:, None, 0] - samples[None, :, 0],
                           points[:, None, 1] - samples[None, :, 1]), axis=1)
    on_mean = float(np.mean(values[on_idx]))
    off_mean = float(np.mean(values[near >= OFF_DISTANCE]))
    contrast = on_mean / off_mean
    ops.append(_op(f"{preset} contrast above 1", contrast > 1.0, f"contrast {contrast:.3f}"))

    if validate is not None:
        ks = sorted(float(h[2]) for h, _ in msrs)
        sup = float(np.max(np.abs(values - tm_band_prediction(points, samples, ks[0], ks[-1]))))
        errs = [_rel(validate["sup_deviation"], sup), _rel(validate["on_crack_mean"], on_mean),
                _rel(validate["off_crack_mean"], off_mean), _rel(validate["contrast"], contrast)]
        ok = errs[0] <= MAP_TOL and max(errs[1:]) <= 1e-12
        ops.append(_op(f"{preset} validate_map TM_BAND vs scipy", ok,
                       "relative errors " + ", ".join(f"{e:.1e}" for e in errs)))
    return ops


# ---------------------------------------------------------- forward checks

def clean_msr(cfg, nodes):
    """Noise-free MSR at the highest frequency of a preset."""
    from arcmig import msr
    from arcmig.forward import NystromConfig

    k = cfg.frequency_set().wavenumbers()[-1]
    return msr.assemble(cfg.crack(), k, cfg.direction_set(), cfg.bc,
                        NystromConfig(nodes_per_arc=nodes)).entries


def forward_checks(preset, cfg):
    """Reciprocity and node convergence of the noise-free MSR; returns the
    operations and the clean matrix for the noise checks."""
    clean = clean_msr(cfg, cfg.nodes_data)
    fine = clean_msr(cfg, 2 * cfg.nodes_data)
    sym = float(np.linalg.norm(clean - clean.T) / np.linalg.norm(clean))
    conv = float(np.linalg.norm(clean - fine) / np.linalg.norm(fine))
    return [
        _op(f"{preset} reciprocity ({cfg.bc})", sym <= RECIPROCITY_TOL, f"defect {sym:.2e}"),
        _op(f"{preset} MSR vs {2 * cfg.nodes_data} nodes", conv <= CONVERGENCE_TOL,
            f"relative difference {conv:.2e}"),
    ], clean


def msr_file_checks(out_dir, preset, cfg, clean, scratch):
    """Exact SNR against the clean matrix, headers, and load/save round trip."""
    from arcmig import msr

    files = msr_files(out_dir)
    ks = cfg.frequency_set().wavenumbers()
    parsed = [read_msr(p) for p in files]
    headers_ok = len(files) == len(ks) and all(
        float(h[2]) == k and float(h[6]) == cfg.snr_db and int(h[7]) == cfg.seed + f
        for f, ((h, _), k) in enumerate(zip(parsed, ks))
    )
    noisy = parsed[-1][1]
    ratio = float(np.linalg.norm(noisy - clean) / np.linalg.norm(clean))
    want = 10.0 ** (-cfg.snr_db / 20.0)
    ops = [_op(f"{preset} saved SNR", headers_ok and _rel(ratio, want) <= SNR_TOL,
               f"noise ratio {ratio:.12f}, configured {want:.12f}")]
    trips = 0
    for path, (_, entries) in zip(files, parsed):
        loaded = msr.load_msr(path)
        msr.save_msr(loaded, scratch)
        trips += (scratch.read_bytes() == path.read_bytes()
                  and np.array_equal(loaded.entries, entries))
    ops.append(_op(f"{preset} load_msr round trip", trips == len(files),
                   f"{trips}/{len(files)} files"))
    return ops


def same_artifacts(dir_a, dir_b, preset):
    names = ["map.csv"] + [p.name for p in msr_files(dir_a)]
    same = all(sha256(Path(dir_a) / n) == sha256(Path(dir_b) / n) for n in names)
    return _op(f"{preset} traced artifacts identical", same, f"{len(names)} files hashed")


# ----------------------------------------------------------- refine checks

def refine_checks(refinements):
    from arcmig.refine import RefineConfig

    stop_tol = RefineConfig().stop_tol
    ops = []
    for run in refinements:
        r = run["residuals"]
        tag = f"refine seed {run['noise_seed']}"
        ops.append(_op(f"{tag} residual non-increasing",
                       all(b <= a for a, b in zip(r[1:], r[2:])), f"{len(r) - 1} steps"))
        ops.append(_op(f"{tag} stop rule", len(r) > 1 and abs(r[-1] - r[-2]) < stop_tol,
                       f"last change {abs(r[-1] - r[-2]) if len(r) > 1 else float('nan'):.2e}"))
        dev = float(np.max(np.abs(np.array(run["final"]) - np.array(run["truth"]))))
        ops.append(_op(f"{tag} within 0.05 of truth", dev < 0.05, f"max deviation {dev:.4f}"))
    return ops
