"""Kernel-prediction and ring-integral tests against independent quadrature
oracles (scipy.integrate.quad) and the limiting identities."""

import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp

from arcmig import analysis, cli, geometry, imaging, msr
from arcmig.errors import ConfigError, SingularityError

K1 = 2.0 * np.pi / 0.5
KF = 2.0 * np.pi / 0.4


def quad_complex(f, a, b, **kw):
    re = scipy.integrate.quad(lambda t: f(t).real, a, b, **kw)[0]
    im = scipy.integrate.quad(lambda t: f(t).imag, a, b, **kw)[0]
    return re + 1j * im


def test_tm_band_at_zero_distance_is_one():
    val = analysis.kernel_predict(
        "TM_BAND", [0.5, 0.5], np.array([[0.5, 0.5]]), k_first=K1, k_last=KF,
        include_remainder=True,
    )
    assert val == pytest.approx(1.0, abs=1e-12)


def test_tm_band_matches_adaptive_quadrature():
    r0 = 0.3
    val = analysis.kernel_predict(
        "TM_BAND", [r0, 0.0], np.array([[0.0, 0.0]]), k_first=K1, k_last=KF,
        include_remainder=True,
    )
    ref = scipy.integrate.quad(lambda k: sp.j0(k * r0) ** 2, K1, KF, epsabs=1e-12, limit=400)[0]
    assert abs(val - ref / (KF - K1)) < 1e-6


def test_tm_single_formula():
    pts = np.array([[0.0, 0.0], [0.2, -0.1]])
    x = np.array([0.15, 0.05])
    val = analysis.kernel_predict("TM_SINGLE", x, pts, k=K1)
    ref = sum(sp.j0(K1 * np.hypot(*(x - p))) ** 2 for p in pts)
    assert val == pytest.approx(ref, abs=1e-12)


def test_lv_tm_band_full_aperture_equals_tm_band():
    r0 = 0.3
    lv = analysis.kernel_predict(
        "LV_TM_BAND", [r0, 0.0], np.array([[0.0, 0.0]]),
        k_first=K1, k_last=KF, alpha=0.0, beta=2.0 * np.pi, include_remainder=True,
    )
    tm = analysis.kernel_predict(
        "TM_BAND", [r0, 0.0], np.array([[0.0, 0.0]]), k_first=K1, k_last=KF,
        include_remainder=True,
    )
    assert abs(lv - tm) < 1e-10
    # the leading-order variants coincide exactly by construction
    lv0 = analysis.kernel_predict(
        "LV_TM_BAND", [r0, 0.0], np.array([[0.0, 0.0]]),
        k_first=K1, k_last=KF, alpha=0.0, beta=2.0 * np.pi,
    )
    tm0 = analysis.kernel_predict(
        "TM_BAND", [r0, 0.0], np.array([[0.0, 0.0]]), k_first=K1, k_last=KF
    )
    assert lv0 == tm0


def test_ring_integrals_full_aperture_exact():
    x = np.array([0.2, 0.1])
    res = analysis.ring_integrals(0.0, 2.0 * np.pi, 12.0, x, np.array([0.0, 1.0]))
    r = np.hypot(*x)
    assert res.plain == pytest.approx(2.0 * np.pi * sp.j0(12.0 * r), abs=1e-14)
    assert res.tail_bound == 0.0
    xhat = x / r
    expected = 2.0 * np.pi * 1j * (xhat @ [0.0, 1.0]) * sp.j1(12.0 * r)
    assert abs(res.weighted - expected) < 1e-8


def test_ring_integrals_match_quadrature_oracle():
    rng = np.random.default_rng(12)
    alpha, beta = np.pi / 6.0, 5.0 * np.pi / 6.0
    for _ in range(8):
        k = rng.uniform(10.5, 21.0)
        x = rng.uniform(-1.0, 1.0, 2)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        xi = np.array([np.cos(ang), np.sin(ang)])
        res = analysis.ring_integrals(alpha, beta, k, x, xi)
        plain_ref = quad_complex(
            lambda t: np.exp(1j * k * (np.cos(t) * x[0] + np.sin(t) * x[1])),
            alpha, beta, epsabs=1e-13, limit=300,
        )
        weighted_ref = quad_complex(
            lambda t: (np.cos(t) * xi[0] + np.sin(t) * xi[1])
            * np.exp(1j * k * (np.cos(t) * x[0] + np.sin(t) * x[1])),
            alpha, beta, epsabs=1e-13, limit=300,
        )
        assert abs(res.plain - plain_ref) < 1e-8
        assert abs(res.weighted - weighted_ref) < 1e-8


def test_ring_integrals_over_a_k_array_match_scalar_calls():
    # one array call sums every series to the truncation of the largest k r
    ks = np.linspace(10.5, 31.4, 128)
    xi = np.array([np.sin(0.3), np.cos(0.3)])
    for alpha, beta, x in [
        (np.pi / 6.0, 5.0 * np.pi / 6.0, np.array([0.3, -0.6])),
        (0.0, 2.0 * np.pi, np.array([0.3, -0.6])),
        (0.4, 1.9, np.zeros(2)),
    ]:
        res = analysis.ring_integrals(alpha, beta, ks, x, xi)
        assert res.plain.shape == res.weighted.shape == ks.shape
        for k, plain, weighted in zip(ks, res.plain, res.weighted):
            one = analysis.ring_integrals(alpha, beta, k, x, xi)
            assert isinstance(one.plain, complex) and isinstance(one.weighted, complex)
            assert abs(plain - one.plain) <= 1e-14 * max(1.0, abs(one.plain))
            assert abs(weighted - one.weighted) <= 1e-14 * max(1.0, abs(one.weighted))


def test_ring_integral_at_origin():
    res = analysis.ring_integrals(0.4, 1.9, 7.0, np.zeros(2), np.array([1.0, 0.0]))
    assert res.plain == pytest.approx(1.5, abs=1e-14)
    ref = scipy.integrate.quad(lambda t: np.cos(t), 0.4, 1.9)[0]
    assert res.weighted == pytest.approx(ref, abs=1e-14)


def test_full_circle_average_matches_j0():
    dirs = msr.DirectionSet.full_view(256).directions()
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = rng.uniform(2.0, 25.0)
        x = rng.uniform(-1.5, 1.5, 2)
        if k * np.hypot(*x) > 40.0:
            continue
        discrete = np.mean(np.exp(1j * k * (dirs @ x)))
        assert abs(discrete - sp.j0(k * np.hypot(*x))) < 1e-3


def test_full_circle_average_matches_j1():
    dirs = msr.DirectionSet.full_view(256).directions()
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = rng.uniform(2.0, 25.0)
        x = rng.uniform(-1.5, 1.5, 2)
        r = np.hypot(*x)
        if k * r > 40.0 or r < 1e-3:
            continue
        ang = rng.uniform(0.0, 2.0 * np.pi)
        xi = np.array([np.cos(ang), np.sin(ang)])
        discrete = np.mean((dirs @ xi) * np.exp(1j * k * (dirs @ x)))
        expected = 1j * ((x / r) @ xi) * sp.j1(k * r)
        assert abs(discrete - expected) < 1e-3


def test_indefinite_integral_identities():
    # d/dt [t (J0^2 + J1^2)] = 2 J0(t)^2 - 2 J1(t)^2 / ... checked as the
    # definite form: int J0^2 = [t(J0^2+J1^2)] + int J1^2 over [a, b]
    a, b = 1.3, 17.2
    int_j0 = scipy.integrate.quad(lambda t: sp.j0(t) ** 2, a, b, limit=300)[0]
    int_j1 = scipy.integrate.quad(lambda t: sp.j1(t) ** 2, a, b, limit=300)[0]
    boundary = b * (sp.j0(b) ** 2 + sp.j1(b) ** 2) - a * (sp.j0(a) ** 2 + sp.j1(a) ** 2)
    assert abs(int_j0 - boundary - int_j1) < 1e-10
    # int J0 J1 dt = -J0^2 / 2
    int_j0j1 = scipy.integrate.quad(lambda t: sp.j0(t) * sp.j1(t), a, b, limit=300)[0]
    assert abs(int_j0j1 - 0.5 * (sp.j0(a) ** 2 - sp.j0(b) ** 2)) < 1e-10
    # int_0^x t J0(t)^2 dt = x^2/2 (J0^2 + J1^2)
    int_tj0 = scipy.integrate.quad(lambda t: t * sp.j0(t) ** 2, 0.0, b, limit=300)[0]
    assert abs(int_tj0 - 0.5 * b * b * (sp.j0(b) ** 2 + sp.j1(b) ** 2)) < 1e-9


def test_tm_band_inf_limit():
    # at fixed r > 0 the band kernel decays as k_F grows; at r = 0 it is 1
    r0 = 0.35
    vals = [
        analysis.kernel_predict(
            "TM_BAND", [r0, 0.0], np.array([[0.0, 0.0]]),
            k_first=K1, k_last=kf, include_remainder=True,
        )
        for kf in (50.0, 100.0, 200.0)
    ]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.1
    assert analysis.kernel_predict(
        "TM_BAND_INF", [0.0, 0.0], np.array([[0.0, 0.0]])
    ) == 1.0
    assert analysis.kernel_predict(
        "TM_BAND_INF", [r0, 0.0], np.array([[0.0, 0.0]])
    ) == 0.0


def test_lambda_terms_small_at_large_kr():
    # included-vs-dropped remainder differs by <= 10% of the peak (=1)
    for r0 in (2.0, 2.8):
        with_term = analysis.kernel_predict(
            "TM_BAND", [r0, 0.0], np.array([[0.0, 0.0]]),
            k_first=K1, k_last=KF, include_remainder=True,
        )
        without = analysis.kernel_predict(
            "TM_BAND", [r0, 0.0], np.array([[0.0, 0.0]]), k_first=K1, k_last=KF
        )
        assert KF * r0 >= 30.0
        assert abs(with_term - without) <= 0.1


def test_semi_infinite_oscillatory_integral():
    val = analysis.halfline_oscillatory_j0(0.3, 1.0)
    assert abs(val - 1.0 / np.sqrt(1.0 - 0.09)) < 1e-3


def test_weighted_band_kernel_formula():
    # exact identity: (1/(kF-k1)) int k J0(kr)^2 dk equals the closed form
    r0 = 0.4
    val = analysis.kernel_predict(
        "TM_WEIGHTED_BAND", [r0, 0.0], np.array([[0.0, 0.0]]), k_first=K1, k_last=KF
    )
    ref = scipy.integrate.quad(lambda k: k * sp.j0(k * r0) ** 2, K1, KF, limit=400)[0]
    assert abs(val - ref / (KF - K1)) < 1e-9


def test_small_ninc_regimes_and_singularities():
    thetas = np.array([[1.0, 0.0], [0.0, 1.0]])
    pts = np.array([[0.0, 0.0]])
    x = np.array([0.3, 0.4])
    val = analysis.kernel_predict("TM_SMALL_NINC_INF", x, pts, thetas=thetas)
    r2 = 0.25
    ref = 1.0 / np.sqrt(r2 - 0.09) + 1.0 / np.sqrt(r2 - 0.16)
    assert val == pytest.approx(ref, abs=1e-12)
    with pytest.raises(SingularityError):
        analysis.kernel_predict(
            "TM_SMALL_NINC_INF", [0.5, 0.0], pts, thetas=np.array([[1.0, 0.0]])
        )
    with pytest.raises(SingularityError) as err:
        analysis.kernel_predict(
            "TM_WEIGHTED_INF", [0.0, 0.0], pts, thetas=np.array([[1.0, 0.0]])
        )
    assert err.value.factor == "|x - y_m|"


# points whose offsets to the samples keep 10 degrees from every direction
# of the limited set below, so that no term is near its singularity
_INF_POINTS = np.array([[0.9, 0.15], [-0.8, 0.1]])
_INF_SAMPLES = np.array([[0.0, 0.0], [0.2, -0.1], [-0.3, 0.25]])


def _weighted_inf_terms(x, thetas):
    """(theta . (x - y)) / (|x - y|^2 - (theta . (x - y))^2)^(3/2) for
    every sample y and direction theta, written out one term at a time."""
    terms = []
    for y in _INF_SAMPLES:
        for theta in thetas:
            d = x - y
            proj = theta @ d
            terms.append(proj / (d @ d - proj**2) ** 1.5)
    return np.array(terms)


def test_weighted_inf_is_the_sum_written_out():
    thetas = msr.DirectionSet(np.pi / 6.0, 5.0 * np.pi / 6.0, 5).directions()
    values = analysis.kernel_predict_grid("TM_WEIGHTED_INF", _INF_POINTS, _INF_SAMPLES,
                                          thetas=thetas)
    for x, value in zip(_INF_POINTS, values):
        assert value == pytest.approx(abs(np.sum(_weighted_inf_terms(x, thetas))), rel=1e-12)
        assert value > 100.0


def test_weighted_inf_vanishes_on_a_full_view_set_of_even_count():
    # theta and -theta are both in the set, and their terms cancel
    thetas = msr.DirectionSet.full_view(16).directions()
    values = analysis.kernel_predict_grid("TM_WEIGHTED_INF", _INF_POINTS, _INF_SAMPLES,
                                          thetas=thetas)
    for x, value in zip(_INF_POINTS, values):
        assert value <= 1e-13 * np.sum(np.abs(_weighted_inf_terms(x, thetas)))


def test_te_full_kernels_and_branch():
    pts = np.array([[0.0, 0.0]])
    normals = np.array([[0.0, 1.0]])
    x = np.array([0.0, 0.02])
    near = analysis.kernel_predict(
        "TE_FULL_NEAR", x, pts, normals=normals, k_first=K1, k_last=KF
    )
    expected = (KF**3 - K1**3) / (12.0 * (KF - K1)) * 0.02**2
    assert near == pytest.approx(expected, rel=1e-12)
    far = analysis.kernel_predict(
        "TE_FULL_FAR", [0.0, 2.0], pts, normals=normals, k_first=K1, k_last=KF
    )
    expected_far = 2.0 / (np.pi * (KF - K1)) * 4.0 / (np.sqrt(2.0 * KF) * 16.0)
    assert far == pytest.approx(expected_far, rel=1e-12)
    assert analysis.te_full_branch(K1, 0.02) == "near"
    assert analysis.te_full_branch(K1, 2.0) == "far"
    assert analysis.te_full_branch(K1, 0.1) == "gap"


def test_te_small_ninc_kernel():
    pts = np.array([[0.0, 0.0]])
    normals = np.array([[0.0, 1.0]])
    thetas = np.array([[0.0, 1.0]])
    x = np.array([0.3, 0.1])
    val = analysis.kernel_predict(
        "TE_SMALL_NINC_INF", x, pts, normals=normals, thetas=thetas,
        k_first=K1, k_last=KF,
    )
    r = np.hypot(*x)
    proj = x @ thetas[0]
    lam4 = (1.0 + 1j * proj / np.sqrt(r**2 - proj**2)) / r
    ref = abs((thetas[0] @ normals[0]) * ((x / r) @ normals[0]) * lam4) / (KF - K1)
    assert val == pytest.approx(ref, rel=1e-12)


def test_lv_te_band_full_aperture_reduces_to_j1_kernel():
    # at full aperture C1 = 0 and C2 = 2 pi (rhat . nu): the kernel becomes
    # the TE alternative's J1^2 band integral
    pts = np.array([[0.0, 0.0]])
    normals = np.array([[0.0, 1.0]])
    x = np.array([0.25, 0.35])
    lv = analysis.kernel_predict(
        "LV_TE_BAND", x, pts, normals=normals, k_first=K1, k_last=KF,
        alpha=0.0, beta=2.0 * np.pi,
    )
    r = np.hypot(*x)
    rhat_nu = (x / r) @ normals[0]
    ref = scipy.integrate.quad(
        lambda k: (rhat_nu * sp.j1(k * r)) ** 2, K1, KF, limit=400
    )[0] / (KF - K1)
    assert lv == pytest.approx(ref, rel=1e-6)


def test_lv_te_band_against_series_quadrature():
    pts = np.array([[0.0, 0.0]])
    normals = np.array([[np.sin(0.3), np.cos(0.3)]])
    x = np.array([0.2, 0.5])
    alpha, beta = np.pi / 6.0, 5.0 * np.pi / 6.0
    lead = analysis.kernel_predict(
        "LV_TE_BAND", x, pts, normals=normals, k_first=K1, k_last=KF,
        alpha=alpha, beta=beta,
    )
    full = analysis.kernel_predict(
        "LV_TE_BAND", x, pts, normals=normals, k_first=K1, k_last=KF,
        alpha=alpha, beta=beta, include_remainder=True,
    )
    # the Lambda_N series the leading order drops is a bounded correction
    assert full == pytest.approx(lead, abs=0.35 * max(1.0, lead))


def test_validate_map_identities():
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.05)
    crack = geometry.line_segment([-0.005, 0.0], [0.005, 0.0])
    pred = analysis.kernel_predict_grid(
        "TM_SINGLE", grid.points(), np.array([[0.0, 0.0]]), k=K1
    )
    image = imaging.ImageMap(grid=grid, values=pred)
    metrics = analysis.validate_map(image, crack, "TM_SINGLE", {"k": K1}, m_samples=1)
    assert metrics["sup_deviation"] == 0.0
    assert metrics["contrast"] > 1.0
    outside = geometry.line_segment([5.0, 5.0], [5.2, 5.0])
    with pytest.raises(ConfigError):
        analysis.validate_map(image, outside, "TM_SINGLE", {"k": K1})


def test_no_off_crack_point_is_a_config_error():
    # G1 spans this grid: no grid point lies 0.5 from the crack, so both
    # metric functions refuse, without a NaN mean or an infinite contrast
    grid = imaging.SearchGrid(-0.6, 0.6, 0.0, 0.6, 0.05)
    crack = geometry.catalog("G1")
    image = imaging.ImageMap(grid=grid, values=np.ones(grid.points().shape[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="far enough"):
            analysis.localization_metrics(image, crack)
        with pytest.raises(ConfigError, match="far enough"):
            analysis.validate_map(image, crack, "TM_SINGLE", {"k": K1})


def test_validate_map_hands_te_regimes_the_sample_normals():
    # TE predictions need the crack's normals: validate_map passes those of
    # its 32 crack samples unless params name their own
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.1)
    grid_points = grid.points()
    values = np.random.default_rng(5).uniform(0.0, 1.0, grid_points.shape[0])
    image = imaging.ImageMap(grid=grid, values=values)
    crack = geometry.line_segment([-0.3, 0.1], [0.4, -0.2])
    samples = geometry.sample_points(crack, 32)
    pts = np.array([s.point for s in samples])
    normals = np.array([s.normal for s in samples])
    tangents = np.stack([normals[:, 1], -normals[:, 0]], axis=1)
    params = {"k_first": K1, "k_last": KF}
    sups = []
    for given in (None, tangents):
        extra = {} if given is None else {"normals": given}
        metrics = analysis.validate_map(image, crack, "TE_FULL_NEAR", {**params, **extra})
        pred = analysis.kernel_predict_grid(
            "TE_FULL_NEAR", grid_points, pts, normals=normals if given is None else given, **params
        )
        sups.append(float(np.max(np.abs(values - pred))))
        assert metrics["sup_deviation"] == sups[-1]
    assert sups[0] != sups[1]


def test_first_sidelobe_ratio_ordering():
    rr = np.arange(0.0, 3.0, 1e-3)
    pts = np.stack([rr, np.zeros_like(rr)], axis=1)
    origin = np.array([[0.0, 0.0]])
    prof_unit = analysis.kernel_predict_grid("TM_BAND", pts, origin, k_first=K1, k_last=KF)
    prof_weighted = analysis.kernel_predict_grid(
        "TM_WEIGHTED_BAND", pts, origin, k_first=K1, k_last=KF
    )
    assert analysis.first_sidelobe_ratio(prof_weighted) <= analysis.first_sidelobe_ratio(
        prof_unit
    )


def test_unknown_regime_rejected():
    with pytest.raises(ConfigError):
        analysis.kernel_predict("TM_NOPE", [0.0, 0.0], np.array([[0.0, 0.0]]))


def test_validate_map_blocked_prediction_is_exact(monkeypatch):
    # one arc and the two-arc G4 crack: the blocks hold at most
    # _PREDICT_ARGS point-sample pairs, so the grid spans several blocks.
    # The prediction and the on/off split read one distance walk: every
    # call of the shared distance function is recorded as (rows, samples).
    # validate_map predicts through the public kernel_predict_grid, the
    # name whose calls perfbench counts as analysis.predict_points
    grid = imaging.SearchGrid(-1.0, 1.0, -1.0, 1.0, 0.04)
    grid_points = grid.points()
    assert grid_points.shape[0] * 32 > analysis._PREDICT_ARGS
    values = np.random.default_rng(3).uniform(0.0, 1.0, grid_points.shape[0])
    image = imaging.ImageMap(grid=grid, values=values)
    calls, predicted = [], []

    def spy(a, b):
        calls.append((len(a), len(b)))
        return geometry._pairwise_distances(a, b)

    def predict_spy(kind, x, points, **kwargs):
        predicted.append((len(x), len(points)))
        return predict(kind, x, points, **kwargs)

    predict = analysis.kernel_predict_grid
    monkeypatch.setattr(analysis, "_pairwise_distances", spy)
    monkeypatch.setattr(analysis, "kernel_predict_grid", predict_spy)

    def unblocked_mean_off(pts):
        dist = np.min(
            np.hypot(grid_points[:, None, 0] - pts[None, :, 0], grid_points[:, None, 1] - pts[None, :, 1]),
            axis=1,
        )
        return float(np.mean(values[dist >= 0.5]))

    regimes = [("TM_SINGLE", {"k": KF}), ("TM_BAND", {"k_first": K1, "k_last": KF}),
               ("TM_WEIGHTED_BAND", {"k_first": K1, "k_last": KF})]
    for crack in (geometry.line_segment([-0.3, 0.1], [0.4, -0.2]), geometry.catalog("G4")):
        pts = np.array([s.point for s in geometry.sample_points(crack, 32)])
        for kind, params in regimes:
            calls.clear()
            predicted.clear()
            metrics = analysis.validate_map(image, crack, kind, params)
            # each of the 2,601 grid points is measured once
            assert sum(rows for rows, _ in calls) == grid_points.shape[0]
            assert predicted == [(grid_points.shape[0], len(pts))]
            pred = predict(kind, grid_points, pts, **params)
            assert metrics["sup_deviation"] == float(np.max(np.abs(values - pred)))
            assert metrics["off_crack_mean"] == unblocked_mean_off(pts)
            # each call builds its radial table to its own largest distance;
            # a shorter table is a prefix of a longer one, so row subsets
            # of one block each agree bit for bit
            for rows in (slice(0, 7), slice(1200, 1201), slice(2000, None)):
                part = predict(kind, grid_points[rows], pts, **params)
                assert np.array_equal(part, pred[rows])
        # localization_metrics shares the blocked distances (64 samples)
        pts64 = np.array([s.point for s in geometry.sample_points(crack, 64)])
        calls.clear()
        predicted.clear()
        loc = analysis.localization_metrics(image, crack)
        # against the samples: the grid once, the argmax point once; no
        # prediction
        assert sum(rows for rows, m in calls if m == len(pts64)) == grid_points.shape[0] + 1
        assert predicted == []
        assert loc["off_crack_mean"] == unblocked_mean_off(pts64)


@pytest.mark.parametrize("preset", ["G1", "G2", "G3", "G4"])
def test_radial_tables_match_the_closed_form_and_scipy(preset):
    # TM_SINGLE, TM_BAND and TM_WEIGHTED_BAND read one function g of the
    # distance from a table of degree-9 Chebyshev panels of width
    # 0.5 / k_max: it agrees with the fused kernel's closed form and with
    # scipy within 5e-13 max|g|, at r = 0, on and just below the panel
    # edges, and at random distances out to every preset grid's diagonal
    ks = cli.preset_config(f"{preset},TM").frequency_set().wavenumbers()
    k1, kf = float(ks[0]), float(ks[-1])
    edges = 0.5 / kf * np.arange(1, int(6.0 * kf / 0.5))
    r = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0),
                        np.random.default_rng(11).uniform(0.0, 6.0, 20000)])

    def squares(k, fused):
        if fused:
            return analysis._j01_squares(k * r)
        return sp.j0(k * r) ** 2 + sp.j1(k * r) ** 2

    def reference(kind, k, fused):
        if kind == "TM_SINGLE":
            return (analysis._j01(k * r)[0] if fused else sp.j0(k * r)) ** 2
        power = 1 if kind == "TM_BAND" else 2
        g = kf**power * squares(kf, fused) - k1**power * squares(k1, fused)
        return np.abs(g / (kf - k1) / power)

    x = np.stack([r, np.zeros_like(r)], axis=1)
    origin = np.array([[0.0, 0.0]])
    cases = [("TM_SINGLE", {"k": k}) for k in (k1, kf)]
    cases += [(kind, {"k_first": k1, "k_last": kf}) for kind in ("TM_BAND", "TM_WEIGHTED_BAND")]
    for kind, params in cases:
        table = analysis.kernel_predict_grid(kind, x, origin, **params)
        for fused in (True, False):
            ref = reference(kind, params.get("k"), fused)
            assert np.max(np.abs(table - ref)) <= 5e-13 * np.max(np.abs(ref)), (kind, fused)
