"""Quadrature conveniences over apsrec's rule tables, used by the tests.

The library integrates through the point/weight tables of
``apsrec.quad`` directly; these wrappers turn a callable into a number
so the tests can check the rules on closed-form integrals. The J0
oracle here is the independent check on the Gram's ``scipy.special.j0``.
"""

import numpy as np

from apsrec.errors import QuadratureError
from apsrec.quad import (
    CHEBYSHEV_GAUSS,
    gauss_legendre,
    theta_quadrature_points,
    weighted_quadrature_points,
)


def _finite_or_raise(values):
    if not np.all(np.isfinite(values)):
        raise QuadratureError("integrand produced non-finite values")
    return values


def weighted_inner(f, g, rule):
    """Weighted inner product <f, g>_w = integral of f(x) g(x) w(x) dx on
    [-1, 1], with w(x) = 1/sqrt(1 - x^2).

    Args:
        f, g: Vectorized callables, finite on the rule's abscissae.
        rule: A Chebyshev-Gauss rule (the only family whose weight matches w).
    """
    if rule.kind != CHEBYSHEV_GAUSS:
        raise ValueError("weighted inner products require a Chebyshev-Gauss rule")
    x = rule.abscissae
    return float(np.sum(rule.weights * _finite_or_raise(np.asarray(f(x)) * np.asarray(g(x)))))


def weighted_inner_complex(f, m, cfg, rule):
    """Weighted Fourier measurement <f, e^{i kappa_m x}>_w of a real
    function f: real part pairs f with cos(kappa_m x), imaginary part with
    sin(kappa_m x) (the inner product is bilinear, no conjugation), so for
    a density g this is exactly the covariance lag r_m. Negative m yields
    the conjugate lag.
    """
    if rule.kind != CHEBYSHEV_GAUSS:
        raise ValueError("weighted inner products require a Chebyshev-Gauss rule")
    x = rule.abscissae
    kappa = cfg.gamma * np.pi * m
    fx = _finite_or_raise(np.asarray(f(x), dtype=np.float64))
    wf = rule.weights * fx
    return complex(np.sum(wf * np.cos(kappa * x)), np.sum(wf * np.sin(kappa * x)))


def integrate_theta(f, nodes, seams=()):
    """Gauss-Legendre integral of f over the angle interval [-pi/2, pi/2],
    split at interior ``seams`` when the integrand has known kinks there."""
    points, weights = theta_quadrature_points(nodes, seams)
    return float(np.sum(weights * _finite_or_raise(np.asarray(f(points), dtype=np.float64))))


def integrate_theta_complex(f, nodes, seams=()):
    """Complex-valued variant of :func:`integrate_theta`."""
    points, weights = theta_quadrature_points(nodes, seams)
    return complex(np.sum(weights * _finite_or_raise(np.asarray(f(points), dtype=np.complex128))))


def weighted_integral(f, nodes, seams=()):
    """Integral of f(x) w(x) over [-1, 1] with w(x) = 1/sqrt(1 - x^2),
    seam-aware; complex-valued f is supported."""
    points, weights = weighted_quadrature_points(nodes, seams)
    total = np.sum(weights * _finite_or_raise(np.asarray(f(points))))
    return complex(total) if np.iscomplexobj(total) else float(total)


def bessel_j0_quadrature_oracle(z, nodes=200):
    """Independent J0 values from the integral identity
    ``pi*J0(z) = integral_0^pi cos(z cos(t)) dt`` via Gauss-Legendre.

    Used by tests as the ground truth that guards the Gram's J0; not
    meant for production evaluation.

    Args:
        z: Scalar or array of arguments.
        nodes: Gauss-Legendre node count, at least 2. 200 nodes give
            machine precision for |z| up to ~100.
    """
    if nodes < 2:
        raise ValueError("oracle needs at least 2 nodes")
    rule = gauss_legendre(int(nodes))
    theta = (rule.abscissae + 1.0) * (np.pi / 2.0)
    weights = rule.weights * (np.pi / 2.0)
    z_arr = np.asarray(z, dtype=np.float64)
    scalar = z_arr.ndim == 0
    values = np.cos(np.multiply.outer(np.atleast_1d(z_arr), np.cos(theta))) @ weights / np.pi
    return float(values[0]) if scalar else values
