"""Geometry tests: catalog formulas, normals, sampling, derivative checks."""

import math

import numpy as np
import pytest

from arcmig import analysis, forward, geometry, imaging, msr
from arcmig.errors import DomainError, LookupNameError


def test_gamma1_midpoint():
    crack = geometry.catalog("G1")
    point, _, _ = geometry.evaluate(crack.components[0], 0.0)
    assert np.allclose(point, [0.0, 0.3], atol=1e-15)


def test_gamma2_midpoint():
    crack = geometry.catalog("Gamma2")
    point, _, _ = geometry.evaluate(crack.components[0], 0.0)
    # 1/2 * 1 + 1/5 * 0 - 1/10 * 1
    assert np.allclose(point, [0.0, 0.4], atol=1e-15)


def test_gamma3_lower_endpoint():
    crack = geometry.catalog("G3")
    point, _, _ = geometry.evaluate(crack.components[0], -1.0)
    expected = [2.0 * math.sin(math.pi / 8.0), math.sin(math.pi / 4.0)]
    assert np.allclose(point, expected, atol=1e-14)


def _gamma2_y(s):
    return (0.5 * math.cos(s * math.pi / 2.0) + 0.2 * math.sin(s * math.pi / 2.0)
            - 0.1 * math.cos(3.0 * s * math.pi / 2.0))


# catalog key, label, component index and name, native curve at both ends
CATALOG_ENDS = [
    ("G1", "Gamma1", 0, "Gamma1", (-0.5, 0.3), (0.5, 0.3)),
    ("G2", "Gamma2", 0, "Gamma2", (-1.0, _gamma2_y(-1.0)), (1.0, _gamma2_y(1.0))),
    ("G3", "Gamma3", 0, "Gamma3",
     (2.0 * math.sin(math.pi / 8.0), math.sin(math.pi / 4.0)),
     (2.0 * math.sin(7.0 * math.pi / 8.0), math.sin(7.0 * math.pi / 4.0))),
    ("G4", "Gamma4", 0, "Gamma4_1", (-0.7, 0.475), (0.3, 0.475)),
    ("G4", "Gamma4", 1, "Gamma4_2", (-0.3, -0.475), (0.7, -0.225)),
]


@pytest.mark.parametrize("key, label, index, name, lo, hi", CATALOG_ENDS,
                         ids=[row[3] for row in CATALOG_ENDS])
def test_catalog_endpoints(key, label, index, name, lo, hi):
    # t = -1 and t = 1 give the native curve's ends, names and labels as published
    crack = geometry.catalog(key)
    arc = crack.components[index]
    assert crack.label == label and arc.name == name
    p_lo, _, _ = geometry.evaluate(arc, -1.0)
    p_hi, _, _ = geometry.evaluate(arc, 1.0)
    assert np.allclose(p_lo, lo, rtol=0.0, atol=1e-15)
    assert np.allclose(p_hi, hi, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_sample_normals_equal_solver_node_normals(bc):
    # one tangent-to-normal rule: the arcs' normals at the solver's nodes
    # are its node normals bit for bit
    cfg = forward.NystromConfig(nodes_per_arc=128)
    for name in geometry.catalog_names():
        crack = geometry.catalog(name)
        disc = forward.discretize([crack], bc, cfg)
        normals = np.concatenate([arc.normals(disc.grid.t) for arc in crack.components])
        assert normals.tobytes() == disc.normals[0].tobytes(), name


def test_evaluate_normal_is_the_arc_normal():
    ts = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(5).uniform(-1.0, 1.0, 64)])
    cracks = [geometry.catalog(name) for name in geometry.catalog_names()]
    cracks += [geometry.line_segment([0.1, -0.2], [0.4, 0.35]),
               geometry.chebyshev_graph_arc([0.26, 0.23, -0.22, -0.03, -0.06])]
    for crack in cracks:
        for arc in crack.components:
            for t in ts:
                assert geometry.evaluate(arc, t)[2].tobytes() == arc.normals(t).tobytes()


def _far_field_at(obs):
    wave = forward.PlaneWave(np.array([0.0, -1.0]), 4.0)
    sol = forward.solve_density(geometry.catalog("G1"), wave, "dirichlet",
                                forward.NystromConfig(nodes_per_arc=16))
    return forward.far_field(sol, obs)


@pytest.mark.parametrize("what, call", [
    ("incident direction", lambda v: forward.PlaneWave(v, 4.0)),
    ("observation direction", _far_field_at),
    ("candidate normal",
     lambda v: imaging.steering_te([0.0, 0.0], 4.0, msr.DirectionSet(0.0, np.pi, 8), v)),
    ("xi", lambda v: analysis.ring_integrals(0.0, np.pi, 4.0, [0.1, 0.2], v)),
])
def test_unit_vector_checks_share_one_rule(what, call):
    # every caller rejects a non-unit vector in the same words, and takes
    # one within 1e-9 of unit length
    with pytest.raises(DomainError, match=rf"^{what} must be a unit vector, got \[1\. 1\.\]$"):
        call((1, 1))
    call((0.6, 0.8 + 5e-10))
def test_gamma4_two_components():
    crack = geometry.catalog("G4")
    assert len(crack) == 2


def test_normals_are_unit_and_orthogonal():
    rng = np.random.default_rng(1)
    for name in geometry.catalog_names():
        crack = geometry.catalog(name)
        for arc in crack.components:
            for t in rng.uniform(-1.0, 1.0, 25):
                _, tangent, normal = geometry.evaluate(arc, t)
                assert abs(np.hypot(*normal) - 1.0) < 1e-12
                assert abs(np.dot(tangent, normal)) / np.hypot(*tangent) < 1e-10


def test_sample_points_gamma1():
    crack = geometry.catalog("G1")
    pts = geometry.sample_points(crack, 3)
    coords = np.array([p.point for p in pts])
    assert np.allclose(coords, [[-0.5, 0.3], [0.0, 0.3], [0.5, 0.3]], atol=1e-15)
    normals = np.array([p.normal for p in pts])
    assert np.allclose(np.abs(normals[:, 1]), 1.0, atol=1e-15)
    assert np.allclose(normals[:, 0], 0.0, atol=1e-15)


def test_sample_points_counts():
    assert len(geometry.sample_points(geometry.catalog("G4"), 2)) == 4
    single = geometry.sample_points(geometry.catalog("G1"), 1)
    assert len(single) == 1
    assert np.allclose(single[0].point, [0.0, 0.3])


def test_derivative_matches_finite_differences():
    h = 1e-6
    ts = np.linspace(-0.98, 0.98, 128)
    for name in geometry.catalog_names():
        crack = geometry.catalog(name)
        for arc in crack.components:
            ana = np.atleast_2d(arc.tangents(ts))
            fd = (np.atleast_2d(arc.points(ts + h)) - np.atleast_2d(arc.points(ts - h))) / (2 * h)
            scale = np.linalg.norm(ana, axis=1)
            err = np.linalg.norm(ana - fd, axis=1) / scale
            assert np.max(err) < 1e-6


def test_catalog_passes_validation_checks():
    for name in geometry.catalog_names():
        assert geometry.validate_crack(geometry.catalog(name))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_crack_is_rejected(bad):
    # NaN compares false everywhere, so without a finiteness test such an
    # arc passed the cusp and injectivity checks
    crack = geometry.chebyshev_graph_arc([0.2, bad, 0.1])
    with pytest.raises(DomainError, match="non-finite"):
        geometry.validate_crack(crack)
    assert geometry.validate_crack(geometry.chebyshev_graph_arc([0.2, 0.3, 0.1]))


def injectivity_reference(arc, samples=512):
    """The injectivity sample rule written out with the full |i - j| index
    matrix: no two samples with |i - j| > 4 closer than 0.25 min|z'| dt."""
    ts = np.linspace(-1.0, 1.0, samples)
    pts = np.atleast_2d(arc.points(ts))
    tans = np.atleast_2d(arc.tangents(ts))
    speeds = np.hypot(tans[:, 0], tans[:, 1])
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    idx = np.abs(np.subtract.outer(np.arange(samples), np.arange(samples)))
    return dist[idx > 4].min() > 0.25 * speeds.min() * np.abs(np.diff(ts)).min()


def _hairpin(gap, width=0.05):
    # two arms y = +-gap/2 joined by a tanh turn; the closest samples of
    # the two arms are 5 indices apart
    def pos(t):
        t = np.asarray(t, dtype=np.float64)
        return np.stack([1.0 - t * t, 0.5 * gap * np.tanh(t / width)], axis=-1)

    def der(t):
        t = np.asarray(t, dtype=np.float64)
        return np.stack([-2.0 * t, 0.5 * gap / width / np.cosh(t / width) ** 2], axis=-1)

    return geometry.ParametricArc("hairpin", pos, der)


def _loop_arc(i, j, y_scale=1.0):
    # x even and y odd about the midpoint of samples i and j, with y = 0
    # at both: the two samples coincide
    ts = np.linspace(-1.0, 1.0, 512)
    t0 = 0.5 * (ts[i] + ts[j])
    c = (0.5 * (ts[j] - ts[i])) ** 2

    def pos(t):
        s = np.asarray(t, dtype=np.float64) - t0
        return np.stack([s * s, y_scale * s * (s * s - c)], axis=-1)

    def der(t):
        s = np.asarray(t, dtype=np.float64) - t0
        return np.stack([2.0 * s, y_scale * (3.0 * s * s - c)], axis=-1)

    return geometry.ParametricArc(f"loop{i}-{j}", pos, der)


def test_injectivity_check_matches_reference_rule():
    from arcmig.refine import REFERENCE_INITIAL, REFERENCE_TRUE

    accepted = [
        arc for name in geometry.catalog_names() for arc in geometry.catalog(name).components
    ]
    accepted += [
        geometry.chebyshev_graph_arc(c).components[0] for c in (REFERENCE_INITIAL, REFERENCE_TRUE)
    ]
    # a hairpin whose arms stay just outside the threshold, and a loop
    # closing at |i - j| = 4, inside the band the rule ignores
    accepted += [_hairpin(3e-5), _loop_arc(254, 258)]
    # arms within the threshold from |i - j| = 5 on; a loop closing at
    # |i - j| = 5 whose other sample pairs stay outside the threshold; a
    # crossing at |i - j| = 290
    rejected = [_hairpin(1e-5), _loop_arc(253, 258, y_scale=10.0), _loop_arc(111, 401)]
    for arc, expected in [(a, True) for a in accepted] + [(a, False) for a in rejected]:
        assert bool(injectivity_reference(arc)) == expected, arc.name
        if expected:
            assert geometry.validate_crack(geometry.Crack([arc]))
        else:
            with pytest.raises(DomainError, match="injectivity"):
                geometry.validate_crack(geometry.Crack([arc]))


def _line(name, slope, offset):
    def pos(t):
        t = np.asarray(t, dtype=np.float64)
        return np.stack([t, slope * t + offset], axis=-1)

    def der(t):
        t = np.asarray(t, dtype=np.float64)
        return np.stack([np.ones_like(t), np.full_like(t, slope)], axis=-1)

    return geometry.ParametricArc(name, pos, der)


def test_disjointness_is_exact_sample_coincidence():
    # y = t and y = 2 t_0 - t meet exactly at the sample t_0; shifted by
    # 1e-12 they cross between samples, which the sample rule accepts
    t0 = np.linspace(-1.0, 1.0, 512)[100]
    rising = _line("rising", 1.0, 0.0)

    def coincide_reference(crack, samples=512):
        ts = np.linspace(-1.0, 1.0, samples)
        a, b = (np.atleast_2d(arc.points(ts)) for arc in crack.components)
        diff = a[:, None, :] - b[None, :, :]
        return np.hypot(diff[..., 0], diff[..., 1]).min() <= 0.0

    meeting = geometry.Crack([rising, _line("falling", -1.0, 2.0 * t0)])
    near = geometry.Crack([rising, _line("falling", -1.0, 2.0 * t0 + 1e-12)])
    assert coincide_reference(meeting) and not coincide_reference(near)
    with pytest.raises(DomainError, match="disjoint"):
        geometry.validate_crack(meeting)
    assert geometry.validate_crack(near)
    assert not coincide_reference(geometry.catalog("G4"))
    assert geometry.validate_crack(geometry.catalog("G4"))


def test_reparameterization_invariance_gamma1():
    # sampling with internal t reproduces native-s equispaced sampling
    crack = geometry.catalog("G1")
    m = 17
    internal = np.array([p.point for p in geometry.sample_points(crack, m)])
    native_s = np.linspace(-0.5, 0.5, m)
    native = np.stack([native_s, np.full(m, 0.3)], axis=1)
    assert np.allclose(internal, native, atol=1e-15)


def test_parameter_domain_error():
    crack = geometry.catalog("G1")
    with pytest.raises(DomainError):
        geometry.evaluate(crack.components[0], 1.2)


def test_unknown_name_raises():
    with pytest.raises(LookupNameError):
        geometry.catalog("G9")


def test_crack_from_config():
    crack = geometry.crack_from_config({"kind": "catalog", "name": "G2"})
    assert crack.label == "Gamma2"
    cheb = geometry.crack_from_config(
        {"kind": "chebyshev-graph", "coefficients": [0.26, 0.23, -0.22, -0.03, -0.06, 0.0]}
    )
    p, _, _ = geometry.evaluate(cheb.components[0], 0.0)
    # T_j(0) = 1, 0, -1, 0, 1, 0
    assert abs(p[1] - (0.26 + 0.22 - 0.06)) < 1e-15
    with pytest.raises(LookupNameError):
        geometry.crack_from_config({"kind": "spline"})


def test_micro_segment():
    crack = geometry.line_segment([-0.005, 0.3], [0.005, 0.3], "micro")
    pts = geometry.sample_points(crack, 2)
    assert np.allclose(pts[0].point, [-0.005, 0.3])
    assert np.allclose(pts[1].point, [0.005, 0.3])


def test_chebyshev_value_matches_cosine_form():
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=6)
    thetas = rng.uniform(0.0, np.pi, 100)
    s = np.cos(thetas)
    direct = sum(coeffs[j] * np.cos(j * thetas) for j in range(6))
    assert np.max(np.abs(geometry.chebyshev_value(coeffs, s) - direct)) < 1e-12
