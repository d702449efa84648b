"""Quadrature conveniences over apsrec's rule tables, used by the tests.

The library integrates through the (points, weights) tables of
``apsrec.quad`` directly; these wrappers turn a callable into a number
so the tests can check the rules on closed-form integrals. The J0
oracle here is the independent check on the Gram's ``scipy.special.j0``,
and the lag oracle the one on ``synthesize_lags``.
"""

import numpy as np

from apsrec.core import Domain, PointSources, SpectrumSum, transform_aps
from apsrec.errors import QuadratureError
from apsrec.quad import theta_quadrature_points, weighted_quadrature_points


def _finite_or_raise(values):
    if not np.all(np.isfinite(values)):
        raise QuadratureError("integrand produced non-finite values")
    return values


def _weighted_table(table):
    """(points, weights) of a table for the weight w(x) = 1/sqrt(1 - x^2).
    Such a table integrates 1 to pi; an unweighted Gauss-Legendre table on
    [-1, 1] gives 2 and is rejected."""
    points, weights = table
    if abs(np.sum(weights) - np.pi) > 1e-12:
        raise ValueError("weighted inner products require a table for the weight w")
    return points, weights


def weighted_inner(f, g, table):
    """Weighted inner product <f, g>_w = integral of f(x) g(x) w(x) dx on
    [-1, 1], with w(x) = 1/sqrt(1 - x^2).

    Args:
        f, g: Vectorized callables, finite on the table's points.
        table: (points, weights) from ``weighted_quadrature_points``.
    """
    x, weights = _weighted_table(table)
    return float(np.sum(weights * _finite_or_raise(np.asarray(f(x)) * np.asarray(g(x)))))


def weighted_inner_complex(f, m, cfg, table):
    """Weighted Fourier measurement <f, e^{i kappa_m x}>_w of a real
    function f: real part pairs f with cos(kappa_m x), imaginary part with
    sin(kappa_m x) (the inner product is bilinear, no conjugation), so for
    a density g this is exactly the covariance lag r_m. Negative m yields
    the conjugate lag.
    """
    x, weights = _weighted_table(table)
    kappa = cfg.gamma * np.pi * m
    fx = _finite_or_raise(np.asarray(f(x), dtype=np.float64))
    wf = weights * fx
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


def weighted_integral(f, nodes):
    """Chebyshev-Gauss integral of f(x) w(x) over [-1, 1] with
    w(x) = 1/sqrt(1 - x^2); complex-valued f is supported."""
    points, weights = weighted_quadrature_points(nodes)
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
    abscissae, weights = np.polynomial.legendre.leggauss(int(nodes))
    theta = (abscissae + 1.0) * (np.pi / 2.0)
    weights = weights * (np.pi / 2.0)
    z_arr = np.asarray(z, dtype=np.float64)
    scalar = z_arr.ndim == 0
    values = np.cos(np.multiply.outer(np.atleast_1d(z_arr), np.cos(theta))) @ weights / np.pi
    return float(values[0]) if scalar else values


def dense_exp_sum(cfg, x, v, chunk=4096):
    """sum_j v_j exp(i kappa_m x_j) for m < M from dense ``np.exp`` tables
    of at most ``chunk`` points each: the reference for the library's
    exponential-sum kernel, which builds powers of exp(i gamma pi x_j)."""
    kappas = cfg.kappas(cfg.M)
    return sum(np.exp(1j * np.multiply.outer(kappas, x[i:i + chunk])) @ v[i:i + chunk]
               for i in range(0, x.size, chunk))


def _leaves(model):
    if isinstance(model, SpectrumSum):
        return [leaf for term in model.terms for leaf in _leaves(term)]
    return [model]


def _composite_rule(densities, kappa, path="theta", order=16):
    """Composite ``order``-point Gauss-Legendre rule for integrands built
    from ``densities`` and frequencies up to ``kappa``: panels no wider
    than the narrowest mixture std nor than one period of ``kappa`` plus
    the fastest trigonometric polynomial term, split at the seams, in
    theta or in t = arccos(x). Returns (nodes, weights)."""
    stds = [std for leaf in densities for _, std, _ in getattr(leaf, "components", ())]
    own = [leaf.config.kappa(leaf.config.M - 1) for leaf in densities if hasattr(leaf, "config")]
    width = min([np.pi, 2.0 * np.pi / (1.0 + kappa + max(own, default=0.0)), *stds])
    seams = sorted({s for leaf in densities for s in leaf.seams_theta()})
    if Domain(path) is Domain.THETA:
        bounds = [-np.pi / 2, *seams, np.pi / 2]
    else:
        bounds = [0.0, *sorted(np.arccos(np.sin(seams))), np.pi]
    abscissae, unit_weights = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        edges = np.linspace(lo, hi, int(np.ceil((hi - lo) / width)) + 1)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        nodes.append((mid[:, None] + np.multiply.outer(half, abscissae)).ravel())
        weights.append(np.multiply.outer(half, unit_weights).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def reference_lags(model, cfg, path="theta", order=16, chunk=1024):
    """Lags of any built-in model, independent of the library's synthesis.

    Point sources are phasor sums. The density terms are integrated by
    :func:`_composite_rule` at the fastest lag's frequency and summed by
    :func:`dense_exp_sum`: on the theta path over rho(theta) e^{i kappa
    sin(theta)} in theta, on the x path over g(x) e^{i kappa x} w(x) in
    t = arccos(x), with g from ``transform_aps``.
    """
    kappas = cfg.kappas(cfg.M)
    r = np.zeros(cfg.M, dtype=np.complex128)
    densities = []
    for leaf in _leaves(model):
        if isinstance(leaf, PointSources):
            for angle, power in leaf.sources:
                r += power * np.exp(1j * kappas * np.sin(angle))
        else:
            densities.append(leaf)
    if not densities:
        return r
    nodes, weights = _composite_rule(densities, kappas[-1], path, order)
    if Domain(path) is Domain.THETA:
        x, values = np.sin(nodes), sum(leaf.rho(nodes) for leaf in densities)
    else:
        x = np.cos(nodes)
        values = sum(transform_aps(leaf)(x) for leaf in densities)
    return r + dense_exp_sum(cfg, x, weights * values, chunk)


def reference_energy(model, order=16):
    """The energy integral of rho(theta)^2 over [-pi/2, pi/2] of an L2
    model by :func:`_composite_rule`, independent of the certificate's
    rule."""
    theta, weights = _composite_rule(_leaves(model), 0.0, "theta", order)
    values = model.rho(theta)
    return float(weights @ (values * values))
