"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6 and 8 are implemented exactly as stated.  Two of their
sub-criteria are not attainable at the referenced presets (the small
direction counts put those configurations in the ghost-replica regime the
theory itself predicts, and the limited-aperture background decays faster
than the full-view Bessel floor); the corresponding tests fail honestly.
The supplementary tests at the end demonstrate that the same properties
hold in the alias-free regime the derivations assume.
"""

import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp

from arcmig import analysis, cli, geometry, imaging, msr, refine
from arcmig.forward import BoundaryCondition as BC
from arcmig.forward import NystromConfig, PlaneWave, boundary_residual, far_field, solve_density

SEED = 20260808


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def run_preset_pipeline(preset, aperture="full", snr_db=15.0, seed=SEED, mode=None,
                        weight=None, tau=0.01):
    """Assemble the catalog preset pipeline and return (cfg, dirs, matrices,
    subspaces, map)."""
    cfg = cli.preset_config(preset, aperture, seed=seed, snr_db=snr_db)
    if mode is not None:
        cfg.mode = mode
    if weight is not None:
        cfg.weight = weight
    dirs = cfg.direction_set()
    bc = BC.parse(cfg.bc)
    data_cfg = NystromConfig(nodes_per_arc=cfg.nodes_data)
    matrices = []
    subspaces = []
    for f_idx, k in enumerate(cfg.frequency_set().wavenumbers()):
        m = msr.assemble(cfg.crack(), k, dirs, bc, data_cfg)
        if snr_db is not None:
            m = msr.add_noise(m, msr.NoiseSpec(snr_db, seed + f_idx))
        matrices.append(m)
        subspaces.append(msr.svd_threshold(m, tau))
    image = imaging.image_subspace(
        subspaces, cfg.grid(), cfg.steering_mode(), cfg.weight_scheme()
    )
    return cfg, dirs, matrices, subspaces, image


@pytest.fixture(scope="module")
def micro_pipeline():
    """Alias-free micro-segment data used by criteria 5 and 10."""
    center = np.array([0.1, -0.15])
    crack = geometry.line_segment(center - [0.005, 0.0], center + [0.005, 0.0], "micro")
    dirs = msr.DirectionSet.full_view(96)
    cfg = NystromConfig(nodes_per_arc=64)
    ks = imaging.FrequencySet.from_wavelengths(0.5, 0.4, 10).wavenumbers()
    subs = [msr.svd_threshold(msr.assemble(crack, k, dirs, BC.DIRICHLET, cfg), 0.01) for k in ks]
    return center, crack, dirs, subs


def test_criterion_01_steering_identities():
    start = time.perf_counter()
    dirs = msr.DirectionSet.full_view(256).directions()
    rng = np.random.default_rng(SEED)
    worst_a = worst_b = 0.0
    tried = 0
    while tried < 100:
        k = rng.uniform(2.0, 30.0)
        x = rng.uniform(-1.5, 1.5, 2)
        r = float(np.hypot(*x))
        if k * r > 40.0 or r < 1e-6:
            continue
        tried += 1
        discrete = np.mean(np.exp(1j * k * (dirs @ x)))
        worst_a = max(worst_a, abs(discrete - sp.j0(k * r)))
        ang = rng.uniform(0.0, 2.0 * np.pi)
        xi = np.array([np.cos(ang), np.sin(ang)])
        discrete_b = np.mean((dirs @ xi) * np.exp(1j * k * (dirs @ x)))
        worst_b = max(worst_b, abs(discrete_b - 1j * ((x / r) @ xi) * sp.j1(k * r)))
    elapsed = time.perf_counter() - start
    ok = worst_a <= 1e-3 and worst_b <= 1e-3 and elapsed < 10.0
    assert report(
        1, ok, f"steering identities: defects {worst_a:.2e}/{worst_b:.2e}, {elapsed:.1f}s"
    )


def test_criterion_02_ring_integral_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    alpha, beta = np.pi / 6.0, 5.0 * np.pi / 6.0
    worst = 0.0
    for _ in range(20):
        k = rng.uniform(10.5, 21.0)
        x = rng.uniform(-1.0, 1.0, 2)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        xi = np.array([np.cos(ang), np.sin(ang)])
        res = analysis.ring_integrals(alpha, beta, k, x, xi)

        def phase(t):
            return np.exp(1j * k * (np.cos(t) * x[0] + np.sin(t) * x[1]))

        plain_ref = (
            scipy.integrate.quad(lambda t: phase(t).real, alpha, beta, epsabs=1e-13, limit=400)[0]
            + 1j
            * scipy.integrate.quad(lambda t: phase(t).imag, alpha, beta, epsabs=1e-13, limit=400)[0]
        )
        weighted_ref = (
            scipy.integrate.quad(
                lambda t: ((np.cos(t) * xi[0] + np.sin(t) * xi[1]) * phase(t)).real,
                alpha, beta, epsabs=1e-13, limit=400,
            )[0]
            + 1j
            * scipy.integrate.quad(
                lambda t: ((np.cos(t) * xi[0] + np.sin(t) * xi[1]) * phase(t)).imag,
                alpha, beta, epsabs=1e-13, limit=400,
            )[0]
        )
        worst = max(worst, abs(res.plain - plain_ref), abs(res.weighted - weighted_ref))
    # full aperture: series terms vanish identically
    full = analysis.ring_integrals(0.0, 2.0 * np.pi, 17.3, np.array([0.4, -0.7]), np.array([1.0, 0.0]))
    r = np.hypot(0.4, -0.7)
    exact = full.tail_bound == 0.0 and full.plain == 2.0 * np.pi * analysis._j01(np.array([17.3 * r]))[0][0]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and exact and elapsed < 10.0
    assert report(2, ok, f"ring integrals: defect {worst:.2e}, full-aperture exact={exact}, {elapsed:.1f}s")


def test_criterion_03_forward_soundness():
    start = time.perf_counter()
    k = 2.0 * np.pi / 0.5
    cfg128 = NystromConfig(nodes_per_arc=128)
    worst_residual = 0.0
    wave = PlaneWave(np.array([np.cos(0.3), np.sin(0.3)]), k)
    for name in geometry.catalog_names():
        sol = solve_density(geometry.catalog(name), wave, BC.DIRICHLET, cfg128)
        worst_residual = max(worst_residual, boundary_residual(sol))
    crack2 = geometry.catalog("G2")
    rng = np.random.default_rng(SEED + 2)
    worst_recip = 0.0
    for bc in (BC.DIRICHLET, BC.NEUMANN):
        for _ in range(2):
            a1, a2 = rng.uniform(0.0, 2.0 * np.pi, 2)
            theta = np.array([np.cos(a1), np.sin(a1)])
            xhat = np.array([np.cos(a2), np.sin(a2)])
            s1 = solve_density(crack2, PlaneWave(theta, k), bc, NystromConfig(nodes_per_arc=64))
            s2 = solve_density(crack2, PlaneWave(-xhat, k), bc, NystromConfig(nodes_per_arc=64))
            u1, u2 = far_field(s1, xhat), far_field(s2, -theta)
            worst_recip = max(worst_recip, abs(u1 - u2) / abs(u1))
    wave2 = PlaneWave(np.array([0.6, 0.8]), k)
    obs = np.array([0.0, 1.0])
    vals = {}
    for n in (32, 64, 128, 256):
        sol = solve_density(crack2, wave2, BC.DIRICHLET, NystromConfig(nodes_per_arc=n))
        vals[n] = far_field(sol, obs)
    err32 = abs(vals[32] - vals[256]) / abs(vals[256])
    err64 = abs(vals[64] - vals[256]) / abs(vals[256])
    order = np.log2(err32 / max(err64, 1e-16))
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 1e-6 and worst_recip <= 1e-6 and order > 2.0 and elapsed < 120.0
    assert report(
        3, ok,
        f"residual {worst_residual:.2e}, reciprocity {worst_recip:.2e}, "
        f"convergence order {order:.1f}, {elapsed:.1f}s",
    )


def test_criterion_04_msr_structure():
    start = time.perf_counter()
    k = 2.0 * np.pi / 0.5
    dirs = msr.DirectionSet.full_view(16)
    clean = msr.assemble(geometry.catalog("G1"), k, dirs, BC.DIRICHLET, NystromConfig(nodes_per_arc=64))
    sym = clean.symmetry_defect()
    noisy = msr.add_noise(clean, msr.NoiseSpec(15.0, SEED))
    e = noisy.entries - clean.entries
    measured_db = 20.0 * np.log10(np.linalg.norm(clean.entries, "fro") / np.linalg.norm(e, "fro"))
    rng = np.random.default_rng(0)
    q1, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    sigma = np.array([1.0, 0.5, 0.005, 1e-4, 1e-6, 1e-8])
    synth = msr.MsrMatrix(
        k=1.0, entries=q1 @ np.diag(sigma) @ q2.conj().T,
        dirs=msr.DirectionSet.full_view(6), bc=BC.DIRICHLET,
    )
    tie = msr.MsrMatrix(
        k=1.0,
        entries=q1 @ np.diag(np.array([1.0, 0.01, 1e-5, 1e-6, 1e-7, 1e-8])) @ q2.conj().T,
        dirs=msr.DirectionSet.full_view(6), bc=BC.DIRICHLET,
    )
    rule_ok = msr.svd_threshold(synth, 0.01).cut_index == 2 and msr.svd_threshold(tie, 0.01).cut_index == 2
    elapsed = time.perf_counter() - start
    ok = sym <= 1e-8 and abs(measured_db - 15.0) < 1e-10 and rule_ok and elapsed < 60.0
    assert report(
        4, ok,
        f"symmetry {sym:.2e}, snr {measured_db:.12f} dB, threshold rule ok={rule_ok}, {elapsed:.1f}s",
    )


def test_criterion_05_kernel_equivalence(micro_pipeline):
    start = time.perf_counter()
    center, crack, _, subs = micro_pipeline
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    image = imaging.image_subspace(
        [subs[0]], grid, imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
    )
    pred = analysis.kernel_predict_grid(
        "TM_SINGLE", grid.points(), np.array([center]), k=subs[0].k
    )
    sup = float(np.max(np.abs(image.values - pred)))
    elapsed = time.perf_counter() - start
    ok = sup <= 5e-2 and elapsed < 120.0
    assert report(5, ok, f"micro-segment map vs J0^2 kernel: sup deviation {sup:.2e}, {elapsed:.1f}s")


def test_criterion_06_imaging_localization(tmp_path):
    # the G1,TM preset: full view, 15 dB noise, fixed seed, exactly
    # as stated.  The direction count N = 16 places this configuration in
    # the ghost-replica regime (k |x| reaches ~36 >> N), where the aliased
    # background caps the measured contrast near 2.7 regardless of noise,
    # threshold, or seed, and the sigma-weighted Kirchhoff sum edges out the
    # equal-weight subspace sum.  Both quantitative sub-criteria fail for
    # every legitimate reading we measured; see the supplementary test for
    # the alias-free regime where they hold.
    start = time.perf_counter()
    cfg = cli.preset_config("G1,TM", seed=SEED, snr_db=15.0)
    manifest = cli.run_experiment(cfg, tmp_path)
    metrics = imaging.load_metadata(tmp_path / "metrics.txt")
    argmax_dist = float(metrics["argmax_distance"])
    contrast = float(metrics["contrast"])
    matrices = [msr.load_msr(tmp_path / f"msr_{i:03d}.msr") for i in range(cfg.freq_count)]
    kirchhoff = imaging.image_kirchhoff(matrices, cfg.grid())
    km_contrast = analysis.localization_metrics(kirchhoff, cfg.crack())["contrast"]
    elapsed = time.perf_counter() - start
    part_a = argmax_dist <= 2.0 * cfg.step
    part_b = contrast >= 3.0
    part_c = km_contrast < contrast
    ok = part_a and part_b and part_c and elapsed < 300.0
    report(
        6, ok,
        f"argmax within 2h: {part_a} ({argmax_dist:.3f}); contrast >= 3: {part_b} "
        f"({contrast:.2f}); Kirchhoff strictly lower: {part_c} ({km_contrast:.2f}), {elapsed:.0f}s",
    )
    assert part_a, "argmax localization failed"
    assert part_b, (
        f"contrast {contrast:.2f} < 3 at the stated preset (N=16 ghost-replica "
        "regime; see the N-sweep in ROADMAP item 3)"
    )
    assert part_c, (
        f"Kirchhoff contrast {km_contrast:.2f} not below subspace {contrast:.2f} "
        "at the stated preset (see the N-sweep in ROADMAP item 3)"
    )


def test_criterion_07_te_two_curve_signature():
    start = time.perf_counter()
    cfg, dirs, _, subs, image = run_preset_pipeline("G1,TE", mode="te-plain")
    crack = cfg.crack()
    grid = cfg.grid()
    samples = geometry.sample_points(crack, 21)
    hits = 0
    for s in samples:
        center_idx = grid.index_nearest(s.point)
        up_idx = grid.index_nearest(s.point + 0.15 * s.normal)
        dn_idx = grid.index_nearest(s.point - 0.15 * s.normal)
        if image.values[center_idx] < max(image.values[up_idx], image.values[dn_idx]):
            hits += 1
    fraction = hits / len(samples)
    elapsed = time.perf_counter() - start
    ok = fraction >= 0.9 and elapsed < 300.0
    assert report(7, ok, f"two-curve signature at {fraction:.0%} of sample points, {elapsed:.0f}s")


def test_criterion_08_limited_view():
    # Gamma2 TM, alpha = pi/6, beta = 5 pi/6 versus the matched full-view
    # pipeline.  The endpoint clause holds; the contrast-ordering clause is
    # inverted at every measured configuration because the limited-aperture
    # correlation decays faster than J_0 off the illuminated sector (see
    # the N-sweep in ROADMAP item 3 and the supplementary coverage test).
    start = time.perf_counter()
    cfg_f, dirs_f, _, _, img_full = run_preset_pipeline("G2,TM", "full")
    cfg_l, dirs_l, _, _, img_lim = run_preset_pipeline("G2,TM", "limited")
    crack = cfg_f.crack()
    contrast_full = analysis.localization_metrics(img_full, crack)["contrast"]
    contrast_lim = analysis.localization_metrics(img_lim, crack)["contrast"]
    endpoints = [np.array([-1.0, -0.2]), np.array([1.0, 0.2])]
    grid = cfg_l.grid()
    pts = grid.points()
    threshold = np.quantile(img_lim.values, 0.95)
    endpoint_ok = all(
        np.max(img_lim.values[np.hypot(pts[:, 0] - ep[0], pts[:, 1] - ep[1]) <= 2 * grid.h + 1e-12])
        >= threshold
        for ep in endpoints
    )
    elapsed = time.perf_counter() - start
    part_a = contrast_lim <= contrast_full
    ok = part_a and endpoint_ok and elapsed < 300.0
    report(
        8, ok,
        f"contrast limited<=full: {part_a} ({contrast_lim:.2f} vs {contrast_full:.2f}); "
        f"endpoints in top-5%: {endpoint_ok}, {elapsed:.0f}s",
    )
    assert endpoint_ok, "endpoint neighborhoods not in the top-5% map values"
    assert part_a, (
        f"limited-view contrast {contrast_lim:.2f} exceeds full-view {contrast_full:.2f} "
        "at the stated preset (see the N-sweep in ROADMAP item 3)"
    )


def test_criterion_09_reference_refinement():
    start = time.perf_counter()
    initial, truth, data = refine.reference_scenario()
    trajectory = refine.newton_refine(initial, data)
    final = trajectory[-1]
    dev = float(np.max(np.abs(final.coefficients - truth.coefficients)))
    residuals = [s.residual_value for s in trajectory]
    monotone = all(b <= a + 1e-12 for a, b in zip(residuals[1:], residuals[2:]))
    stop_rule = abs(residuals[-1] - residuals[-2]) < 0.001 if len(residuals) > 1 else False
    elapsed = time.perf_counter() - start
    ok = final.iteration <= 10 and dev < 0.05 and monotone and stop_rule and elapsed < 180.0
    assert report(
        9, ok,
        f"{final.iteration} iterations, max coefficient deviation {dev:.4f}, "
        f"monotone={monotone}, stop rule={stop_rule}, {elapsed:.0f}s",
    )


def test_criterion_10_weighted_variants(micro_pipeline):
    start = time.perf_counter()
    center, crack, _, subs = micro_pipeline
    k1, kf = 2.0 * np.pi / 0.5, 2.0 * np.pi / 0.4
    rr = np.arange(0.0, 3.0, 1e-3)
    profile_pts = np.stack([rr, np.zeros_like(rr)], axis=1)
    origin = np.array([[0.0, 0.0]])
    side_unit = analysis.first_sidelobe_ratio(
        analysis.kernel_predict_grid("TM_BAND", profile_pts, origin, k_first=k1, k_last=kf)
    )
    side_weighted = analysis.first_sidelobe_ratio(
        analysis.kernel_predict_grid("TM_WEIGHTED_BAND", profile_pts, origin, k_first=k1, k_last=kf)
    )
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    img_power = imaging.image_subspace(
        subs, grid, imaging.SteeringMode("tm"), imaging.WeightScheme("power", 1)
    )
    img_log = imaging.image_subspace(
        subs, grid, imaging.SteeringMode("tm"), imaging.WeightScheme("log")
    )
    min_margin = float(np.min(img_power.values - img_log.values))
    elapsed = time.perf_counter() - start
    ok = side_weighted <= side_unit and min_margin >= -1e-12 and elapsed < 120.0
    assert report(
        10, ok,
        f"side lobes {side_weighted:.3f} <= {side_unit:.3f}; log <= power margin "
        f"{min_margin:.2e}, {elapsed:.0f}s",
    )


# ----------------------------------------------------------- supplementary

def test_supplementary_localization_alias_free_regime():
    """The criterion-6 quantities in the regime the derivations assume:
    enough directions that k|x| stays below the aliasing threshold."""
    crack = geometry.catalog("G1")
    dirs = msr.DirectionSet.full_view(64)
    ks = imaging.FrequencySet.from_wavelengths(0.5, 0.4, 10).wavenumbers()
    cfg = NystromConfig(nodes_per_arc=128)
    subs = []
    for f_idx, k in enumerate(ks):
        m = msr.assemble(crack, k, dirs, BC.DIRICHLET, cfg)
        m = msr.add_noise(m, msr.NoiseSpec(15.0, SEED + f_idx))
        subs.append(msr.svd_threshold(m, 0.01))
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    image = imaging.image_subspace(
        subs, grid, imaging.SteeringMode("tm"), imaging.WeightScheme("unit")
    )
    metrics = analysis.localization_metrics(image, crack)
    assert metrics["argmax_distance"] <= 0.04
    assert metrics["contrast"] >= 3.0
    # normalization property: the peak of the noiseless functional is near 1
    assert 0.5 <= metrics["argmax_value"] <= 1.3


def test_supplementary_limited_view_coverage_degrades():
    """The attainable form of the aperture-degradation claim: the limited
    aperture images a smaller fraction of the crack than full view."""
    cfg_f, _, _, _, img_full = run_preset_pipeline("G2,TM", "full")
    _, _, _, _, img_lim = run_preset_pipeline("G2,TM", "limited")
    crack = cfg_f.crack()
    grid = cfg_f.grid()
    samples = geometry.sample_points(crack, 64)

    def coverage(image):
        peak = image.values.max()
        vals = np.array([image.values[grid.index_nearest(s.point)] for s in samples])
        return float(np.mean(vals >= 0.5 * peak))

    assert coverage(img_lim) <= coverage(img_full)
