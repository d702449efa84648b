"""Bessel function of the first kind of order zero.

Two regimes: the defining power series for |z| <= 8 (with compensated
summation to tame the alternating-term cancellation near the crossover),
and the Hankel large-argument form
``sqrt(2/(pi z)) * (P(z) cos(z - pi/4) - Q(z) sin(z - pi/4))`` for
|z| > 8, with P and Q evaluated from minimax rational fits in 25/z^2
(coefficients from Cephes, valid down to |z| = 5). Absolute error stays
below 1e-12 across both regimes; the quadrature oracle below is the
independent check used by the test suite.

All functions accept scalars or arrays and are pure and thread-safe.
"""

import functools

import numpy as np

_SQRT_2_OVER_PI = 7.9788456080286535587989e-1
_PI_OVER_4 = 7.85398163397448309616e-1

# Rational-fit coefficients for the Hankel amplitude/phase factors,
# highest degree first, argument 25/z^2.
_PP = (
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_PQ = (
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_QP = (
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
)
# Monic denominator: leading coefficient 1 is implicit.
_QQ = (
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
)


def _polevl(x, coeffs):
    result = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        result = result * x + c
    return result


def _polevl_monic(x, coeffs):
    # Implicit leading coefficient 1: x^n + coeffs[0] x^(n-1) + ...
    result = x + coeffs[0]
    for c in coeffs[1:]:
        result = result * x + c
    return result


def _series(z):
    # J0(z) = sum_k (-1)^k (z^2/4)^k / (k!)^2, Kahan-compensated: the terms
    # peak near 114 at z = 8 while the sum is O(1).
    q = 0.25 * z * z
    term = np.ones_like(z)
    total = np.ones_like(z)
    comp = np.zeros_like(z)
    for k in range(1, 64):
        term = -term * q / (k * k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if np.max(np.abs(term)) < 1e-21:
            break
    return total


def _hankel(z):
    q = 25.0 / (z * z)
    p = _polevl(q, _PP) / _polevl(q, _PQ)
    amp_q = _polevl(q, _QP) / _polevl_monic(q, _QQ)
    phase = z - _PI_OVER_4
    combined = p * np.cos(phase) - (5.0 / z) * amp_q * np.sin(phase)
    return _SQRT_2_OVER_PI * combined / np.sqrt(z)


def bessel_j0(z):
    """J0 evaluated elementwise, absolute error below 1e-12 for
    |z| <= 8035, which covers the largest Gram argument
    gamma pi (2M-2) at M = 1024, gamma = 1.25; the test suite checks it
    against scipy over that range.

    Even symmetry is exact: the sign of ``z`` is dropped before evaluation.
    """
    z_arr = np.abs(np.asarray(z, dtype=np.float64))
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    out = np.empty_like(z_arr)
    small = z_arr <= 8.0
    if np.any(small):
        out[small] = _series(z_arr[small])
    if np.any(~small):
        out[~small] = _hankel(z_arr[~small])
    return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=8)
def _legendre_rule(nodes):
    t, w = np.polynomial.legendre.leggauss(nodes)
    theta = (t + 1.0) * (np.pi / 2.0)
    return theta, w * (np.pi / 2.0)


def bessel_j0_quadrature_oracle(z, nodes=200):
    """Independent J0 values from the integral identity
    ``pi*J0(z) = integral_0^pi cos(z cos(t)) dt`` via Gauss-Legendre.

    Used by tests as the ground truth that guards the coefficients in
    ``bessel_j0``; not meant for production evaluation.

    Args:
        z: Scalar or array of arguments.
        nodes: Gauss-Legendre node count, at least 2. 200 nodes give
            machine precision for |z| up to ~100.
    """
    if nodes < 2:
        raise ValueError("oracle needs at least 2 nodes")
    theta, weights = _legendre_rule(int(nodes))
    z_arr = np.asarray(z, dtype=np.float64)
    scalar = z_arr.ndim == 0
    values = np.cos(np.multiply.outer(np.atleast_1d(z_arr), np.cos(theta))) @ weights / np.pi
    return float(values[0]) if scalar else values
