"""Integer-order Bessel and Hankel functions and truncated Jacobi-Anger sums.

Built from scratch (series / downward recurrence / asymptotic forms); no
external special-function dependency.  The array paths call the kernels
in `arcmig.backend`.
"""

import math

import numpy as np

from .backend import kernels
from .errors import DomainError

__all__ = [
    "bessel_j",
    "bessel_j_many",
    "hankel1",
    "hankel1_many",
    "jacobi_anger_partial",
    "bessel_j_table",
]


def _check_x(x):
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    return x


def bessel_j(n, x):
    """J_n(x) for integer order n >= 0 and finite real x.

    Absolute error <= 1e-12 for |x| <= 1e3, n <= 64.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"order must be a nonnegative integer, got {n}")
    x = _check_x(x)
    sign = 1.0
    if x < 0.0:
        x = -x
        sign = -1.0 if n % 2 else 1.0
    return sign * float(kernels.jnv(int(n), np.array([x]))[0])


def bessel_j_many(n, x):
    """Vectorized J_n over an array of nonnegative arguments."""
    if n < 0:
        raise DomainError(f"order must be a nonnegative integer, got {n}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise DomainError("arguments must be finite and >= 0")
    return kernels.jnv(int(n), x)


def hankel1(n, x):
    """H_n^(1)(x) = J_n(x) + i Y_n(x) for n in {0, 1}, x > 0.

    The kernel is only ever evaluated off-diagonal, so coincident points
    (x <= 0) are a caller error: the logarithmic singularity must be split
    analytically upstream.
    """
    if n not in (0, 1):
        raise DomainError(f"H_n^(1) implemented for n in {{0, 1}} only, got {n}")
    x = _check_x(x)
    if x <= 0.0:
        raise DomainError(f"H_n^(1) requires x > 0, got {x}")
    return complex(hankel1_many(n, np.array([x]))[0])


def hankel1_many(n, x):
    """Vectorized H_n^(1) over an array of strictly positive arguments."""
    if n not in (0, 1):
        raise DomainError(f"H_n^(1) implemented for n in {{0, 1}} only, got {n}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise DomainError("arguments must be finite and > 0")
    j0, j1, y0, y1 = kernels.jy01v(x)
    return j0 + 1j * y0 if n == 0 else j1 + 1j * y1


def bessel_j_table(nmax, x):
    """J_0..J_nmax at the points x, shape (nmax+1, len(x))."""
    if nmax < 0:
        raise DomainError(f"order must be a nonnegative integer, got {nmax}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise DomainError("arguments must be finite and >= 0")
    return kernels.jn_table(int(nmax), x)


def jacobi_anger_partial(z, phi, L=None):
    """Truncated plane-wave expansion J_0(z) + 2 sum_{n<=L} i^n J_n(z) cos(n phi).

    Converges to exp(i z cos(phi)) as L grows; the tail decays
    super-exponentially once n exceeds z, so L defaults to ceil(z) + 20.
    """
    z = _check_x(z)
    if z < 0.0:
        raise DomainError(f"expansion argument must be >= 0, got {z}")
    if L is None:
        L = int(math.ceil(z)) + 20
    if L < 0 or int(L) != L:
        raise DomainError(f"truncation must be a nonnegative integer, got {L}")
    L = int(L)
    table = kernels.jn_table(L, np.array([z]))[:, 0]
    total = complex(table[0])
    for n in range(1, L + 1):
        total += 2.0 * (1j**n) * table[n] * math.cos(n * phi)
    return total
