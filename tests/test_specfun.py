"""Tests of the Bessel kernels in `arcmig.kernels`: trivial identities,
independent series oracles, bisection-located zeros, and regime-sweep
invariants."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arcmig
from arcmig import backend, kernels


def series_j_oracle(n, x, terms=80):
    """Plain ascending power series, written independently of the package."""
    term = (x / 2.0) ** n / math.factorial(n)
    total = term
    for m in range(1, terms):
        term *= -(x / 2.0) ** 2 / (m * (n + m))
        total += term
    return total


def series_y0_oracle(x, terms=80):
    gamma = 0.5772156649015328606
    j0 = series_j_oracle(0, x, terms)
    acc = 0.0
    term = 1.0
    harm = 0.0
    for m in range(1, terms):
        term *= (x / 2.0) ** 2 / (m * m)
        harm += 1.0 / m
        acc += (-1.0) ** (m + 1) * harm * term
    return (2.0 / math.pi) * ((math.log(x / 2.0) + gamma) * j0 + acc)


def jacobi_anger_partial(z, phi, L):
    """J_0(z) + 2 sum_{n<=L} i^n J_n(z) cos(n phi), which tends to
    exp(i z cos(phi)) as L grows."""
    table = kernels.jn_table(L, np.array([z]))[:, 0]
    n = np.arange(1, L + 1)
    i_powers = np.array([1.0, 1j, -1.0, -1j])[n % 4]
    return complex(table[0] + np.sum(2.0 * i_powers * table[1:] * np.cos(n * phi)))


def hankel0(x):
    """H_0^(1)(x) = J_0(x) + i Y_0(x) at one x > 0."""
    j0, _, y0, _ = kernels.jy01v(np.array([x]))
    return complex(j0[0], y0[0])


def test_j0_at_zero_is_one():
    assert kernels.jnv(0, np.array([0.0]))[0] == 1.0


def test_jn_at_zero_vanishes():
    for n in range(1, 8):
        assert kernels.jnv(n, np.array([0.0]))[0] == 0.0


def test_first_zero_of_j0_by_bisection():
    # locate the first zero of the independent series oracle, then check
    # the implementation vanishes there
    lo, hi = 2.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if series_j_oracle(0, lo) * series_j_oracle(0, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    assert abs(zero - 2.404825557695773) < 1e-12
    assert abs(kernels.jnv(0, np.array([zero]))[0]) < 1e-10


def test_hankel_real_part_is_j():
    xs = np.array([0.3, 1.7, 9.4, 25.0, 400.0])
    assert np.array_equal(kernels.jy01v(xs)[0], kernels.jnv(0, xs))


def test_hankel0_at_one_series_oracle():
    h = hankel0(1.0)
    assert abs(h.real - series_j_oracle(0, 1.0)) < 1e-14
    assert abs(h.imag - series_y0_oracle(1.0)) < 1e-13
    assert abs(h - (0.76519768655 + 0.08825696421j)) < 1e-10


def test_hankel0_small_argument_log_growth():
    # Im H_0(x) -> (2/pi) ln(x/2) to leading order as x -> 0+
    gamma = 0.5772156649015328606
    x = 1e-4
    h = hankel0(x)
    expansion = (2.0 / math.pi) * (math.log(x / 2.0) + gamma)
    # neglected terms are O(x^2 ln x)
    assert abs(h.imag - expansion) < 1e-7
    assert h.imag < -5.0


def test_hankel1_order_one_against_scipy():
    xs = np.array([0.05, 0.8, 3.1, 11.0, 44.0, 600.0])
    _, j1, _, y1 = kernels.jy01v(xs)
    mine = j1 + 1j * y1
    ref = sp.hankel1(1, xs)
    assert np.max(np.abs(mine - ref)) < 1e-10


def test_bessel_broad_accuracy_vs_independent_implementation():
    # abs error <= 1e-12 for x <= 1e3 and n <= 64
    rng = np.random.default_rng(42)
    xs = np.concatenate([rng.uniform(0.0, 20.0, 250), rng.uniform(20.0, 1000.0, 250)])
    for n in [0, 1, 2, 7, 19, 33, 64]:
        err = np.max(np.abs(kernels.jnv(n, xs) - sp.jv(n, xs)))
        assert err < 1e-12, f"n={n}: {err}"


def test_bessel_bound_invariant():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 200.0, 300)
    for n in [0, 1, 2, 5, 12, 30]:
        vals = np.abs(kernels.jnv(n, xs))
        bound = np.minimum(1.0, (xs**n) / (2.0**n * math.factorial(n)))
        assert np.all(vals <= bound + 1e-12)


def test_recurrence_consistency():
    rng = np.random.default_rng(4)
    xs = rng.uniform(0.1, 100.0, 200)
    for n in range(1, 20):
        lhs = kernels.jnv(n - 1, xs) + kernels.jnv(n + 1, xs)
        rhs = (2.0 * n / xs) * kernels.jnv(n, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-9
    # recurrence at fixed x across all orders from one table call
    table = kernels.jn_table(21, np.array([0.5, 7.7, 60.0]))
    for n in range(1, 20):
        lhs = table[n - 1] + table[n + 1]
        rhs = 2.0 * n / np.array([0.5, 7.7, 60.0]) * table[n]
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_asymptotic_agreement():
    rng = np.random.default_rng(5)
    xs = rng.uniform(50.0, 1000.0, 200)
    for n in range(4):
        approx = np.sqrt(2.0 / (np.pi * xs)) * np.cos(xs - 0.5 * n * np.pi - 0.25 * np.pi)
        err = np.abs(kernels.jnv(n, xs) - approx)
        assert np.all(err <= 0.5 / xs)


def test_jacobi_anger_zero_argument():
    for phi in [0.0, 0.4, 2.0]:
        for L in [0, 3, 25]:
            assert jacobi_anger_partial(0.0, phi, L) == 1.0 + 0.0j


def test_jacobi_anger_direct_exponential():
    val = jacobi_anger_partial(3.0, 0.0, 40)
    assert abs(val - np.exp(3.0j)) < 1e-10


def test_jacobi_anger_error_decreases_beyond_z():
    z, phi = 5.0, 1.0
    target = np.exp(1j * z * math.cos(phi))
    errs = [abs(jacobi_anger_partial(z, phi, L) - target) for L in range(6, 31)]
    # the added term at step L carries a cos(L*phi) factor that can nearly
    # vanish, so the decay is monotone along each parity class until the
    # error reaches the rounding floor
    floor = 1e-13
    for parity in (0, 1):
        seq = errs[parity::2]
        for a, b in zip(seq, seq[1:]):
            if a <= floor:
                break
            assert b < a
    assert errs[-1] < floor


def test_jacobi_anger_uniform_convergence():
    rng = np.random.default_rng(6)
    for _ in range(40):
        z = rng.uniform(0.0, 20.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        val = jacobi_anger_partial(z, phi, int(math.ceil(z)) + 40)
        assert abs(val - np.exp(1j * z * math.cos(phi))) < 1e-12


# the scheme cuts of the order-0/1 kernel and their float64 neighbours
CUT_SAMPLES = [
    x for cut in (9.0, 18.0) for x in (np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf))
]


def test_order01_kernels_match_scipy_across_ranges():
    # series below 9, recurrence band [9, 18), asymptotic sums from 18
    xs = np.concatenate(
        [np.linspace(1e-3, 9.0, 3001), np.linspace(9.0, 18.0, 3001),
         np.linspace(18.0, 400.0, 6001), CUT_SAMPLES]
    )
    j0, j1, y0, y1 = kernels.jy01v(xs)
    for name, mine, ref in [("J0", j0, sp.j0(xs)), ("J1", j1, sp.j1(xs)),
                            ("Y0", y0, sp.y0(xs)), ("Y1", y1, sp.y1(xs))]:
        err = np.abs(mine - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(err) <= 1e-12, f"{name}: {np.max(err):.2e} at x = {xs[np.argmax(err)]}"


def test_order01_views_equal_fused_kernel():
    xs = np.concatenate([np.linspace(0.05, 60.0, 997), CUT_SAMPLES])
    fused = kernels.jy01v(xs)
    j_only = kernels.jy01v(xs, want_y=False)
    views = (kernels.j0v(xs), kernels.j1v(xs), kernels.y0v(xs), kernels.y1v(xs))
    for view, value in zip(views, fused):
        assert np.array_equal(view, value)
    for j, value in zip(j_only, fused[:2]):
        assert np.array_equal(j, value)
    # a mixed-range call equals calls that each lie in one range, and the
    # outputs keep the input's shape
    single = np.array([[v[0] for v in kernels.jy01v(xs[i : i + 1])] for i in range(xs.size)])
    assert np.array_equal(single.T, np.array(fused))
    assert all(v.shape == (3, 5) for v in kernels.jy01v(np.linspace(1.0, 30.0, 15).reshape(3, 5)))


def test_order0_rows_equal_fused_kernel():
    # jy0v and j0v evaluate only the order-0 rows of each range; J_0 and
    # Y_0 keep the bits of jy01v in the series, the recurrence band and the
    # asymptotic sums, and at the cuts 9 and 18 themselves
    ranges = [np.linspace(1e-3, 9.0, 20001, endpoint=False),
              np.linspace(9.0, 18.0, 20001, endpoint=False),
              np.linspace(18.0, 400.0, 20001), np.array([9.0, 18.0]), CUT_SAMPLES]
    for xs in ranges + [np.concatenate(ranges)]:
        j0, _, y0, _ = kernels.jy01v(xs)
        order0 = kernels.jy0v(xs)
        assert np.array_equal(order0[0], j0) and np.array_equal(order0[1], y0)
        assert np.array_equal(kernels.j0v(xs), j0)
    assert all(v.shape == (3, 5) for v in kernels.jy0v(np.linspace(1.0, 30.0, 15).reshape(3, 5)))


@pytest.mark.parametrize("n", [2, 7, 20, 40])
def test_single_order_equals_table_row(n):
    # jnv evaluates the series for its own order only; the value is the
    # table's row bit for bit, on both sides of the series cut
    xs = np.concatenate([np.linspace(0.0, 400.0, 4001), np.linspace(8.5, 9.5, 101), CUT_SAMPLES])
    assert np.array_equal(kernels.jnv(n, xs), kernels.jn_table(n, xs)[n])


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=np.finfo(float).tiny, max_value=400.0))
@example(np.finfo(float).tiny)
@example(400.0)
@example(CUT_SAMPLES[0])
@example(CUT_SAMPLES[1])
@example(CUT_SAMPLES[2])
@example(CUT_SAMPLES[3])
@example(CUT_SAMPLES[4])
@example(CUT_SAMPLES[5])
def test_wronskian(x):
    # J1 Y0 - J0 Y1 = 2 / (pi x); for subnormal x, 2 / (pi x) overflows
    j0, j1, y0, y1 = (float(v[0]) for v in kernels.jy01v(np.array([x])))
    expected = 2.0 / (math.pi * x)
    assert abs(j1 * y0 - j0 * y1 - expected) <= 1e-12 * expected


def test_backend_names_are_the_kernels_module():
    # perfbench imports `kernels` from `arcmig.backend` and reads `arcmig.BACKEND`
    assert backend.kernels is kernels
    assert arcmig.BACKEND == "pure"
