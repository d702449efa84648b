"""Fixed-node quadrature tables.

Every rule is a read-only (points, weights) pair. Chebyshev-Gauss on
[-1, 1] carries exactly the Jacobian weight w(x) = 1/sqrt(1 - x^2) of
x = sin(theta), so the endpoint singularity never appears numerically;
Gauss-Legendre panels cover plain integrals over a piece of an interval.

Integrands with known interior kinks or jumps are handled by splitting the
interval at those seam points and applying a fixed-size rule per smooth
piece; the split points come from the spectrum models, never from error
estimation, so every evaluation is deterministic.
"""

import functools

import numpy as np

from .core import HALF_PI, _count


def _read_only(points, weights):
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


@functools.lru_cache(maxsize=64)
def _chebyshev_gauss(nodes):
    """Chebyshev-Gauss table: abscissa_k = cos((2k-1)pi/(2n)) ascending,
    weight pi/n. Exact (up to rounding) for integrals of f(x)/sqrt(1-x^2)
    over [-1, 1] whenever f is a polynomial of degree below 2n."""
    k = np.arange(nodes, 0, -1)
    return _read_only(np.cos((2 * k - 1) * np.pi / (2 * nodes)), np.full(nodes, np.pi / nodes))


@functools.lru_cache(maxsize=64)
def _gauss_legendre(nodes):
    """Gauss-Legendre table on [-1, 1] for unweighted integrals."""
    return _read_only(*np.polynomial.legendre.leggauss(nodes))


def _pieces(lo, hi, seams):
    seams = sorted(s for s in set(float(s) for s in seams) if lo < s < hi)
    bounds = [lo, *seams, hi]
    return zip(bounds[:-1], bounds[1:])


def _panels(nodes, pieces):
    """One ``nodes``-point Gauss-Legendre panel on each (lo, hi) piece, in
    order. Returns (points, weights)."""
    abscissae, unit_weights = _gauss_legendre(nodes)
    points, weights = [], []
    for lo, hi in pieces:
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        points.append(mid + half * abscissae)
        weights.append(half * unit_weights)
    return np.concatenate(points), np.concatenate(weights)


def theta_quadrature_points(nodes, seams=()):
    """Gauss-Legendre point/weight tables covering [-pi/2, pi/2], split
    at interior ``seams``; each smooth piece gets its own ``nodes``-point
    panel. Returns (points, weights); ValueError unless ``nodes`` is an
    integer of at least 1."""
    return _panels(_count(nodes, 1, "node count"), _pieces(-HALF_PI, HALF_PI, seams))


def weighted_quadrature_points(nodes, seams=()):
    """Point/weight tables for integrals of f(x) w(x) over [-1, 1] with
    w(x) = 1/sqrt(1 - x^2).

    Without seams this is the read-only Chebyshev-Gauss table (whose
    weight is exactly w). With seams the substitution x = cos(t) removes
    the weight and each piece becomes an unweighted Gauss-Legendre panel
    in t, keeping spectral accuracy on integrands that are only piecewise
    smooth. ValueError unless ``nodes`` is an integer of at least 1.
    """
    nodes = _count(nodes, 1, "node count")
    if not seams:
        return _chebyshev_gauss(nodes)
    t, weights = _panels(nodes, ((np.arccos(hi), np.arccos(lo))
                                 for lo, hi in _pieces(-1.0, 1.0, seams)))
    return np.cos(t), weights
