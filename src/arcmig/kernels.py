"""Pure-NumPy Bessel-family kernels, float64 throughout.

Orders 0 and 1 come from one fused kernel, `jy01v`, which returns J_0 and
J_1, and optionally Y_0 and Y_1, in one pass per argument range; `jy0v`
returns J_0 and Y_0 alone, for the Nystrom fill's H_0.  Both go through one
dispatch, and each range computes only the rows asked for, so an order-0
value has the same bits from either.  Every range uses a fixed amount of
work per argument, chosen so that the first neglected term is below 1e-16
at the range's worst end:

* ``x < 9``: the ascending series, Horner in q = x^2/4 over 26 fixed
  coefficients (powers q^0..q^25; the first neglected term is 6e-20 at
  x = 9) for J_0, J_1 and the harmonic-number sums of Y_0 and Y_1
  (Abramowitz & Stegun 9.1.13, 9.1.11);
* ``9 <= x < 18``: a normalized downward (Miller) recurrence from the fixed
  order 66, which gives J_0 and J_1 and, from the same sweep, the Neumann
  series for Y_0 and Y_1 (A&S 9.1.88, 9.1.89);
* ``x >= 18``: the Hankel asymptotic P/Q sums with the 36 fixed terms
  a_0..a_35 (optimal truncation at x = 18; the first neglected term is
  3e-17 of the amplitude there), Horner in 1/x^2, with one cos x and one
  sin x shared by both orders.

`j0v` is the J_0 row alone, and `j1v`, `y0v` and `y1v` are views of
`jy01v`.  Higher orders use the series below ``x = 9`` and a normalized
downward recurrence from an argument-dependent start above.

All functions take finite ``x >= 0`` (``x > 0`` for Y) and do not check
it; the callers in the package pass distances and products k|x|.
"""

from math import factorial

import numpy as np

SERIES_CUT = 9.0
ASYMPTOTIC_CUT = 18.0

_SERIES_TERMS = 26
_RECURRENCE_START = 66
_ASYMPTOTIC_TERMS = 36

_EULER_GAMMA = 0.5772156649015328606


def _series_coefficients():
    """Rows J_0, J_1/(x/2), S_0/q and T in ascending powers of q = x^2/4,
    where Y_0 = (2/pi)[(ln(x/2) + gamma) J_0 + S_0] and
    Y_1 = (2/pi)[(ln(x/2) + gamma) J_1 - 1/x] - x T / (2 pi).

    Each coefficient is an integer ratio, so it is rounded once."""
    rows = np.empty((4, _SERIES_TERMS))
    for m in range(_SERIES_TERMS):
        sign = (-1) ** m
        f0, f1 = factorial(m), factorial(m + 1)
        h0 = sum(f0 // k for k in range(1, m + 1))        # m! H_m
        h1 = sum(f1 // k for k in range(1, m + 2))        # (m+1)! H_{m+1}
        rows[0, m] = sign / f0**2
        rows[1, m] = sign / (f0 * f1)
        rows[2, m] = sign * h1 / f1**3                    # H_{m+1} / ((m+1)!)^2
        rows[3, m] = sign * ((m + 1) * h0 + h1) / (f0 * f1**2)
    return rows


def _asymptotic_coefficients():
    """Rows P_0, Q_0 x, P_1, Q_1 x in ascending powers of 1/x^2."""
    rows = np.empty((4, _ASYMPTOTIC_TERMS // 2))
    for order in (0, 1):
        num = 1                               # a_k(order) = num / (k! 8^k)
        for k in range(_ASYMPTOTIC_TERMS):
            if k > 0:
                num *= 4 * order * order - (2 * k - 1) ** 2
            sign = (-1) ** (k // 2)
            rows[2 * order + k % 2, k // 2] = sign * num / (factorial(k) * 8**k)
    return rows


def _descending(rows):
    """Coefficient columns, highest power first, shaped (rows, 1) each."""
    return np.ascontiguousarray(rows[:, ::-1].T[:, :, None])


_SERIES_COLUMNS = _descending(_series_coefficients())
# the series rows each output needs, keyed by (order 1 wanted, Y wanted)
_SERIES_ROWS = {(True, True): [0, 1, 2, 3], (True, False): [0, 1],
                (False, True): [0, 2], (False, False): [0]}
_ASYMPTOTIC_COLUMNS = _descending(_asymptotic_coefficients())


def _neumann_weights():
    """Weight of J_m, per recurrence order m, in sum (-1)^k J_2k / k (Y_0)
    and in sum (-1)^k (2k+1) J_2k+1 / (k(k+1)) (Y_1), k >= 1."""
    y0 = np.zeros(_RECURRENCE_START + 1)
    y1 = np.zeros(_RECURRENCE_START + 1)
    for m in range(2, _RECURRENCE_START + 1):
        k = m // 2
        if m % 2 == 0:
            y0[m] = (-1) ** k / k
        else:
            y1[m] = (-1) ** k * (2 * k + 1) / (k * (k + 1))
    return y0, y1


_Y0_WEIGHTS, _Y1_WEIGHTS = _neumann_weights()


def _horner(columns, t):
    """Stacked polynomials at ``t``: shape (rows, len(t))."""
    acc = np.empty((columns.shape[1], t.size))
    acc[...] = columns[0]
    for c in columns[1:]:
        acc *= t
        acc += c
    return acc


def _series_01(x, one, want_y):
    """J_0 (J_1) (and Y_0 (Y_1)) from the ascending series, Horner in q
    over the coefficient rows those need only."""
    half = 0.5 * x
    q = half * half
    out = _horner(_SERIES_COLUMNS[:, _SERIES_ROWS[one, want_y]], q)
    if one:
        out[1] *= half
    if want_y:
        with np.errstate(divide="ignore"):
            log_term = np.log(half) + _EULER_GAMMA
        y0 = out[1 + one]
        y0 *= q
        y0 += log_term * out[0]
        y0 *= 2.0 / np.pi
        if one:
            with np.errstate(divide="ignore"):
                inv_x = 1.0 / x
            out[3] *= x / (-2.0 * np.pi)
            out[3] += (2.0 / np.pi) * (log_term * out[1] - inv_x)
    return out


def _recurrence_01(x, one, want_y):
    """J_0 (J_1) (and Y_0 (Y_1)) by downward recurrence from order 66; the
    Neumann sum of Y_1 runs only when Y_1 is asked for."""
    two_over_x = 2.0 / x
    upper = np.zeros_like(x)                  # J_{m+1}
    current = np.ones_like(x)                 # J_m, unnormalized
    evens = np.zeros_like(x)                  # sum of J_2k, k >= 1
    if want_y:
        s0 = np.zeros_like(x)
        if one:
            s1 = np.zeros_like(x)
    for m in range(_RECURRENCE_START, 0, -1):
        lower = np.multiply(two_over_x, m)
        lower *= current
        lower -= upper
        upper, current = current, lower       # current is now J_{m-1}
        if m <= 2:                            # J_1 and J_0 carry no weight
            continue
        if m % 2:
            evens += current
            if want_y:
                s0 += _Y0_WEIGHTS[m - 1] * current
        elif want_y and one:
            s1 += _Y1_WEIGHTS[m - 1] * current
    norm = 2.0 * evens + current
    out = np.empty(((1 + one) * (1 + want_y), x.size))
    np.divide(current, norm, out=out[0])
    if one:
        np.divide(upper, norm, out=out[1])
    if want_y:
        log_term = np.log(0.5 * x) + _EULER_GAMMA
        out[1 + one] = (2.0 / np.pi) * (log_term * out[0] - 2.0 * s0 / norm)
        if one:
            out[3] = (2.0 / np.pi) * (
                (log_term - 1.0) * out[1] - out[0] / x - s1 / norm
            )
    return out


def _asymptotic_01(x, one, want_y):
    """Hankel P/Q sums for order 0 (and 1), sharing cos x and sin x."""
    inv_x = 1.0 / x
    sums = _horner(_ASYMPTOTIC_COLUMNS[:, : 2 + 2 * one], inv_x * inv_x)
    sums[1::2] *= inv_x                       # Q_0 (and Q_1)
    # sqrt(2/(pi x)) times cos/sin of x - pi/4 and x - 3pi/4
    amp = np.sqrt(inv_x / np.pi)
    cos_x = np.cos(x)
    sin_x = np.sin(x)
    u = (cos_x + sin_x) * amp                 # sqrt(2/(pi x)) cos(x - pi/4)
    v = (sin_x - cos_x) * amp                 # sqrt(2/(pi x)) sin(x - pi/4)
    p0, q0 = sums[:2]
    out = np.empty(((1 + one) * (1 + want_y), x.size))
    out[0] = p0 * u - q0 * v
    if want_y:
        out[1 + one] = p0 * v + q0 * u
    if one:
        p1, q1 = sums[2:]
        out[1] = p1 * v + q1 * u
        if want_y:
            out[3] = q1 * v - p1 * u
    return out


_RANGES = (_series_01, _recurrence_01, _asymptotic_01)


def _bessel01(x, one, want_y):
    """Rows J_0, J_1 if one, then Y_0, Y_1 if one, when want_y: each
    argument range evaluates only those."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    flat = x.ravel()
    lo = flat < SERIES_CUT
    hi = flat >= ASYMPTOTIC_CUT
    masks = (lo, ~(lo | hi), hi)
    for mask, evaluate in zip(masks, _RANGES):
        if mask.all():
            out = evaluate(flat, one, want_y)
            break
    else:
        out = np.empty(((1 + one) * (1 + want_y), flat.size))
        for mask, evaluate in zip(masks, _RANGES):
            if mask.any():
                out[:, mask] = evaluate(flat[mask], one, want_y)
    return tuple(row.reshape(x.shape) for row in out)


def jy01v(x, want_y=True):
    """(J_0, J_1, Y_0, Y_1) at ``x``, or (J_0, J_1) when ``want_y`` is false.

    The J values do not depend on ``want_y``.  Y needs ``x > 0``.
    """
    return _bessel01(x, True, want_y)


def jy0v(x):
    """(J_0, Y_0) at ``x > 0``: the rows of `jy01v`, bit for bit, at about
    three quarters of its cost."""
    return _bessel01(x, False, True)


def j0v(x):
    return _bessel01(x, False, False)[0]


def j1v(x):
    return jy01v(x, want_y=False)[1]


def y0v(x):
    return jy01v(x)[2]


def y1v(x):
    return jy01v(x)[3]


def _series_j(n, x):
    """Ascending series for J_n, ``x < 9``, with the fixed term count."""
    half = 0.5 * x
    q = half * half
    # leading term (x/2)^n / n!
    term = np.ones_like(x)
    for i in range(1, n + 1):
        term = term * half / i
    total = term.copy()
    for m in range(1, _SERIES_TERMS):
        term = -term * q / (m * (n + m))
        total += term
    return total


def _miller_table(nmax, x):
    """All of J_0..J_nmax at points ``x`` via normalized downward recurrence.

    Valid for any x > 0; intended for x >= SERIES_CUT where the ascending
    series loses digits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.zeros((nmax + 1, 0))
    top = max(nmax, int(np.ceil(np.max(x))))
    start = top + 40 + int(2.0 * np.sqrt(top))
    if start % 2:
        start += 1
    jp = np.zeros_like(x)            # J_{m+1}
    jc = np.full_like(x, 1e-30)      # J_m at m = start
    norm = np.zeros_like(x)
    table = np.zeros((nmax + 1,) + x.shape)
    inv_x = 1.0 / x
    for m in range(start, 0, -1):
        jm = (2.0 * m) * inv_x * jc - jp
        jp = jc
        jc = jm
        mm = m - 1
        if mm <= nmax:
            table[mm] = jc
        if mm > 0 and mm % 2 == 0:
            norm += jc
        big = np.abs(jc) > 1e250
        if big.any():
            scale = np.where(big, 1e-250, 1.0)
            jc = jc * scale
            jp = jp * scale
            norm = norm * scale
            table[:, big] *= 1e-250
    norm = 2.0 * norm + jc
    return table / norm


def jnv(n, x):
    """J_n over an array for a single integer order n >= 0."""
    if n == 0:
        return j0v(x)
    if n == 1:
        return j1v(x)
    return _jn_rows((n,), x)[0]


def jn_table(nmax, x):
    """Array of shape (nmax+1, len(x)) with rows J_0(x) .. J_nmax(x)."""
    return _jn_rows(range(nmax + 1), x)


def _jn_rows(orders, x):
    """Rows J_n(x), one per order asked for: the series below SERIES_CUT for
    those orders only, and above it one downward recurrence to the largest."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    table = np.zeros((len(orders),) + x.shape)
    lo = x < SERIES_CUT
    if lo.any():
        xs = x[lo]
        for row, n in zip(table, orders):
            row[lo] = _series_j(n, xs)
    if (~lo).any():
        table[:, ~lo] = _miller_table(max(orders), x[~lo])[np.asarray(orders)]
    return table
