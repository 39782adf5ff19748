"""MSR assembly, noise calibration, thresholding and persistence tests."""

import numpy as np
import pytest

from arcmig import forward, geometry, msr
from arcmig.errors import ConfigError, DomainError, MapParseError, SolverError
from arcmig.forward import BoundaryCondition as BC
from arcmig.forward import NystromConfig

K_HALF = 2.0 * np.pi / 0.5
CFG = NystromConfig(nodes_per_arc=64)


@pytest.fixture(scope="module")
def gamma1_msr():
    dirs = msr.DirectionSet.full_view(16)
    return msr.assemble(geometry.catalog("G1"), K_HALF, dirs, BC.DIRICHLET, CFG)


def test_full_view_symmetry(gamma1_msr):
    assert gamma1_msr.symmetry_defect() <= 1e-8


def test_limited_view_directions():
    dirs = msr.DirectionSet(np.pi / 6.0, 5.0 * np.pi / 6.0, 8)
    ang = dirs.angles()
    assert ang[0] == pytest.approx(np.pi / 6.0)
    assert ang[-1] == pytest.approx(5.0 * np.pi / 6.0)
    assert np.all(np.diff(ang) > 0)
    m = msr.assemble(geometry.catalog("G1"), K_HALF, dirs, BC.DIRICHLET, CFG)
    assert m.entries.shape == (8, 8)


def test_full_view_closed_circle():
    dirs = msr.DirectionSet.full_view(16)
    ang = dirs.angles()
    assert ang[0] == 0.0
    assert ang[-1] == pytest.approx(2.0 * np.pi * 15 / 16)
    assert np.allclose(np.linalg.norm(dirs.directions(), axis=1), 1.0)


def test_assembly_determinism():
    dirs = msr.DirectionSet.full_view(8)
    crack = geometry.catalog("G1")
    a = msr.assemble(crack, K_HALF, dirs, BC.DIRICHLET, CFG)
    b = msr.assemble(crack, K_HALF, dirs, BC.DIRICHLET, CFG)
    assert np.array_equal(a.entries, b.entries)


def test_noise_snr_exact(gamma1_msr):
    spec = msr.NoiseSpec(snr_db=15.0, seed=11)
    noisy = msr.add_noise(gamma1_msr, spec)
    e = noisy.entries - gamma1_msr.entries
    measured = 20.0 * np.log10(
        np.linalg.norm(gamma1_msr.entries, "fro") / np.linalg.norm(e, "fro")
    )
    assert measured == pytest.approx(15.0, abs=1e-12)


def test_noise_determinism_and_decorrelation(gamma1_msr):
    spec = msr.NoiseSpec(snr_db=15.0, seed=11)
    n1 = msr.add_noise(gamma1_msr, spec)
    n2 = msr.add_noise(gamma1_msr, spec)
    assert np.array_equal(n1.entries, n2.entries)
    e1 = n1.entries - gamma1_msr.entries
    e3 = msr.add_noise(gamma1_msr, msr.NoiseSpec(15.0, 12)).entries - gamma1_msr.entries
    corr = abs(np.vdot(e1, e3)) / (np.linalg.norm(e1) * np.linalg.norm(e3))
    assert corr < 0.2


def test_noise_requires_nonzero_matrix(gamma1_msr):
    zero = msr.MsrMatrix(
        k=gamma1_msr.k,
        entries=np.zeros_like(gamma1_msr.entries),
        dirs=gamma1_msr.dirs,
        bc=gamma1_msr.bc,
    )
    with pytest.raises(DomainError):
        msr.add_noise(zero, msr.NoiseSpec(15.0, 1))


def test_threshold_rule_on_synthetic_spectrum():
    rng = np.random.default_rng(0)
    n = 6
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    sigma = np.array([1.0, 0.5, 0.005, 1e-4, 1e-6, 1e-8])
    k_mat = q1 @ np.diag(sigma) @ q2.conj().T
    m = msr.MsrMatrix(
        k=1.0, entries=k_mat, dirs=msr.DirectionSet.full_view(n), bc=BC.DIRICHLET
    )
    sub = msr.svd_threshold(m, 0.01)
    assert sub.cut_index == 2
    # ties at sigma_m / sigma_1 == tau are included (>= rule)
    sigma_tie = np.array([1.0, 0.01, 1e-5, 1e-6, 1e-7, 1e-8])
    m_tie = msr.MsrMatrix(
        k=1.0,
        entries=q1 @ np.diag(sigma_tie) @ q2.conj().T,
        dirs=msr.DirectionSet.full_view(n),
        bc=BC.DIRICHLET,
    )
    assert msr.svd_threshold(m_tie, 0.01).cut_index == 2


def test_svd_reconstruction_and_orthonormality(gamma1_msr):
    sub = msr.svd_threshold(gamma1_msr, 0.01)
    u, s, v = sub.left_vectors, sub.singular_values, sub.right_vectors
    recon = u @ np.diag(s) @ v.conj().T
    rel = np.linalg.norm(gamma1_msr.entries - recon, "fro") / np.linalg.norm(
        gamma1_msr.entries, "fro"
    )
    assert rel <= 1e-10
    assert np.all(np.diff(s) <= 1e-14)
    m_f = sub.cut_index
    eye = np.eye(m_f)
    assert np.allclose(u[:, :m_f].conj().T @ u[:, :m_f], eye, atol=1e-10)
    assert np.allclose(v[:, :m_f].conj().T @ v[:, :m_f], eye, atol=1e-10)


def test_cut_index_stable_under_node_doubling():
    dirs = msr.DirectionSet.full_view(16)
    crack = geometry.catalog("G1")
    m64 = msr.assemble(crack, K_HALF, dirs, BC.DIRICHLET, NystromConfig(nodes_per_arc=64))
    m128 = msr.assemble(crack, K_HALF, dirs, BC.DIRICHLET, NystromConfig(nodes_per_arc=128))
    assert msr.svd_threshold(m64).cut_index == msr.svd_threshold(m128).cut_index


def test_singular_values_permutation_invariant(gamma1_msr):
    rng = np.random.default_rng(5)
    perm = rng.permutation(gamma1_msr.count)
    permuted = gamma1_msr.entries[np.ix_(perm, perm)]
    s1 = np.linalg.svd(gamma1_msr.entries, compute_uv=False)
    s2 = np.linalg.svd(permuted, compute_uv=False)
    assert np.max(np.abs(s1 - s2)) / s1[0] < 1e-10


def _steering(dirs, k, point):
    v = np.exp(1j * k * (dirs.directions() @ point))
    return v / np.linalg.norm(v)


def test_steering_correlation_point_like_target():
    # point-like crack: the retained singular vector IS a steering vector
    # (up to phase), so the correlation thresholds hold in their sharp form
    micro = geometry.line_segment([-0.005, 0.3], [0.005, 0.3])
    dirs = msr.DirectionSet.full_view(64)
    m = msr.assemble(micro, K_HALF, dirs, BC.DIRICHLET, CFG)
    sub = msr.svd_threshold(m, 0.01)
    u1 = sub.left_vectors[:, 0]
    assert abs(np.vdot(_steering(dirs, K_HALF, np.array([0.0, 0.3])), u1)) >= 0.9
    far_points = [np.array([0.0, 1.7]), np.array([-1.5, -1.0]), np.array([1.3, -0.9])]
    assert max(abs(np.vdot(_steering(dirs, K_HALF, p), u1)) for p in far_points) <= 0.3


def test_steering_correlation_extended_crack():
    # extended crack: each singular vector mixes crack segments, so the
    # on-crack statement holds at subspace level (projection onto the
    # retained columns) while individual far-point correlations stay small
    dirs = msr.DirectionSet.full_view(64)
    m = msr.assemble(geometry.catalog("G1"), K_HALF, dirs, BC.DIRICHLET, CFG)
    sub = msr.svd_threshold(m, 0.01)
    u_sig = sub.retained_left()
    on_crack = [p.point for p in geometry.sample_points(geometry.catalog("G1"), 21)]
    on_vals = [np.linalg.norm(u_sig.conj().T @ _steering(dirs, K_HALF, p)) for p in on_crack]
    assert max(on_vals) >= 0.9
    far_points = [np.array([0.0, 1.7]), np.array([-1.5, -1.0]), np.array([1.8, 0.9])]
    far_vals = [
        abs(np.vdot(_steering(dirs, K_HALF, p), sub.left_vectors[:, 0])) for p in far_points
    ]
    assert max(far_vals) <= 0.3


def test_msr_round_trip(tmp_path, gamma1_msr):
    noisy = msr.add_noise(gamma1_msr, msr.NoiseSpec(15.0, 99))
    path = tmp_path / "g1.msr"
    msr.save_msr(noisy, path)
    back = msr.load_msr(path)
    assert np.array_equal(back.entries, noisy.entries)
    assert back.k == noisy.k
    assert back.dirs == noisy.dirs
    assert back.bc == noisy.bc
    assert back.noise == noisy.noise
    # bit-exact second write
    path2 = tmp_path / "g1b.msr"
    msr.save_msr(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def _reference_save_msr(m, path):
    """The per-entry formatter of NumPy scalars that save_msr replaced,
    kept as the byte reference."""
    n = m.count
    snr = "none" if m.noise is None else format(m.noise.snr_db, ".17g")
    seed = "none" if m.noise is None else str(m.noise.seed)
    lines = [
        f"MSR {n} {m.k:.17g} {m.dirs.alpha:.17g} {m.dirs.beta:.17g} "
        f"{m.bc.value} {snr} {seed}"
    ]
    for j in range(n):
        for l in range(n):
            e = m.entries[j, l]
            lines.append(f"{j + 1} {l + 1} {e.real:.17g} {e.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_save_msr_bytes_match_reference_formatter(tmp_path):
    # a G3-size matrix (N = 40) with entries over many magnitudes and the
    # special values, with and without a noise record
    rng = np.random.default_rng(9)
    n = 40
    parts = rng.normal(size=(2, n, n)) * 10.0 ** rng.integers(-300, 300, (2, n, n))
    entries = parts[0] + 1j * parts[1]
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, np.finfo(float).max]
    entries.real[0, : len(specials)] = specials
    entries.imag[1, : len(specials)] = specials
    dirs = msr.DirectionSet.full_view(n)
    for noise in (None, msr.NoiseSpec(15.0, 7)):
        m = msr.MsrMatrix(k=12.566370614359172, entries=entries, dirs=dirs, bc=BC.NEUMANN,
                          noise=noise)
        msr.save_msr(m, tmp_path / "new.msr")
        _reference_save_msr(m, tmp_path / "ref.msr")
        assert (tmp_path / "new.msr").read_bytes() == (tmp_path / "ref.msr").read_bytes()


def _saved_lines(tmp_path):
    """The lines of a saved noisy 3 x 3 MSR file: a header, then entries
    (1, 1), (1, 2), ..., (3, 3) on lines 2-10."""
    rng = np.random.default_rng(4)
    entries = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = msr.MsrMatrix(k=9.0, entries=entries, dirs=msr.DirectionSet.full_view(3),
                      bc=BC.DIRICHLET, noise=msr.NoiseSpec(15.0, 7))
    msr.save_msr(m, tmp_path / "m.msr")
    return (tmp_path / "m.msr").read_text().splitlines()


def _load_edited(tmp_path, lineno, edit):
    """load_msr on the saved file with line lineno (1-based) replaced by
    edit(its fields); the MapParseError it raises."""
    lines = _saved_lines(tmp_path)
    lines[lineno - 1] = " ".join(edit(lines[lineno - 1].split()))
    (tmp_path / "edited.msr").write_text("\n".join(lines) + "\n")
    with pytest.raises(MapParseError) as err:
        msr.load_msr(tmp_path / "edited.msr")
    return err.value


def test_msr_entry_index_zero_is_rejected(tmp_path):
    # unchecked, a 0 index would land in row -1, the last row
    err = _load_edited(tmp_path, 4, lambda f: ["0", f[1], *f[2:]])
    assert err.line == 4


def test_msr_repeated_entry_is_rejected(tmp_path):
    # line 3 holds (1, 2); writing (1, 1) again leaves (1, 2) unset
    err = _load_edited(tmp_path, 3, lambda f: ["1", "1", *f[2:]])
    assert err.line == 3 and "repeated" in str(err)


def test_msr_entry_index_above_n_is_rejected(tmp_path):
    err = _load_edited(tmp_path, 10, lambda f: [f[0], "4", *f[2:]])
    assert err.line == 10


@pytest.mark.parametrize("lineno, edit, message", [
    (1, lambda f: ["MRS", *f[1:]], "missing MSR header"),
    (1, lambda f: f[:-1], "malformed MSR header"),
    (7, lambda f: f[:3], "malformed entry line"),
])
def test_msr_malformed_line_is_rejected(tmp_path, lineno, edit, message):
    # a misspelt header tag, a header short of a field, a 3-field entry
    err = _load_edited(tmp_path, lineno, edit)
    assert err.line == lineno and message in str(err)


def test_msr_non_numeric_entry_field_is_rejected(tmp_path):
    err = _load_edited(tmp_path, 6, lambda f: [*f[:3], "1.0j"])
    assert err.line == 6


def test_msr_non_numeric_header_field_is_rejected(tmp_path):
    # fields 1-7: N, k, alpha, beta, the boundary condition, SNR and seed
    for field in range(1, 8):
        err = _load_edited(tmp_path, 1, lambda f: [*f[:field], "x", *f[field + 1:]])
        assert err.line == 1, field


@pytest.mark.parametrize("k", ["nan", "inf", "0", "-3"])
def test_msr_invalid_wavenumber_is_rejected(tmp_path, k):
    err = _load_edited(tmp_path, 1, lambda f: [*f[:2], k, *f[3:]])
    assert err.line == 1 and "wavenumber" in str(err)


def test_msr_line_count_other_than_one_plus_n_squared_is_rejected(tmp_path):
    lines = _saved_lines(tmp_path)
    for kept, line in ((lines[:-1], 9), (lines + [lines[-1]], 11)):
        (tmp_path / "edited.msr").write_text("\n".join(kept) + "\n")
        with pytest.raises(MapParseError) as err:
            msr.load_msr(tmp_path / "edited.msr")
        assert err.value.line == line


def test_direction_set_validation():
    with pytest.raises(ConfigError):
        msr.DirectionSet(0.0, 0.0, 4)
    with pytest.raises(ConfigError):
        msr.DirectionSet(0.0, 7.0, 4)
    with pytest.raises(ConfigError):
        msr.DirectionSet(0.0, np.pi, 1)
    # the east-facing auxiliary aperture has alpha < 0; accepted
    east = msr.DirectionSet(-np.pi / 6.0, np.pi / 6.0, 8)
    assert east.angles()[0] == pytest.approx(-np.pi / 6.0)


@pytest.mark.parametrize("name, bc", [("G2", BC.DIRICHLET), ("G4", BC.DIRICHLET), ("G4", BC.NEUMANN)])
def test_sweep_on_one_discretization_equals_one_build_per_frequency(name, bc):
    # the shared tables carry no state from one wavenumber to the next
    crack = geometry.catalog(name)
    dirs = msr.DirectionSet.full_view(12)
    disc = forward.discretize([crack], bc, CFG)
    for k in (2.0 * np.pi / 0.6, K_HALF, 2.0 * np.pi / 0.3, K_HALF):
        swept = msr.assemble(crack, k, dirs, bc, CFG, disc)
        alone = msr.assemble(crack, k, dirs, bc, CFG)
        assert np.array_equal(swept.entries, alone.entries)


def test_assemble_refuses_a_discretization_of_another_problem():
    crack = geometry.catalog("G1")
    dirs = msr.DirectionSet.full_view(8)
    disc = forward.discretize([crack], BC.DIRICHLET, CFG)
    for other_crack, bc, cfg in (
        (geometry.catalog("G1"), BC.DIRICHLET, CFG),
        (crack, BC.NEUMANN, CFG),
        (crack, BC.DIRICHLET, NystromConfig(nodes_per_arc=32)),
    ):
        with pytest.raises(DomainError, match="discretization"):
            msr.assemble(other_crack, K_HALF, dirs, bc, cfg, disc)


@pytest.mark.parametrize("bc", [BC.DIRICHLET, BC.NEUMANN])
def test_repeated_component_is_a_solver_error(bc):
    # the second arc repeats the first, so every node of one component
    # coincides with a node of the other
    (arc,) = geometry.catalog("G1").components
    crack = geometry.Crack([arc, arc])
    with pytest.raises(SolverError, match="coincident points between distinct components"):
        msr.assemble(crack, K_HALF, msr.DirectionSet.full_view(8), bc, CFG)
