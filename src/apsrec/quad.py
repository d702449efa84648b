"""Fixed-node quadrature engines.

Two rule families: Chebyshev-Gauss on [-1, 1], whose weight is exactly the
Jacobian factor w(x) = 1/sqrt(1 - x^2) arising from x = sin(theta) (so the
endpoint singularity never appears numerically), and Gauss-Legendre for
plain integrals over the angle interval.

Integrands with known interior kinks or jumps are handled by splitting the
interval at those seam points and applying a fixed-size rule per smooth
piece; the split points come from the spectrum models, never from error
estimation, so every evaluation is deterministic.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import HALF_PI

CHEBYSHEV_GAUSS = "chebyshev-gauss"
GAUSS_LEGENDRE = "gauss-legendre"


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable node/weight table on the open interval (-1, 1)."""

    kind: str
    nodes: int
    abscissae: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in (CHEBYSHEV_GAUSS, GAUSS_LEGENDRE):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.nodes < 1 or self.abscissae.size != self.nodes or self.weights.size != self.nodes:
            raise ValueError("node count does not match tables")
        self.abscissae.setflags(write=False)
        self.weights.setflags(write=False)


@functools.lru_cache(maxsize=64)
def chebyshev_gauss(nodes):
    """Chebyshev-Gauss rule: abscissa_k = cos((2k-1)pi/(2n)), weight pi/n.

    Approximates integrals of f(x)/sqrt(1-x^2) over [-1, 1] and is exact
    (up to rounding) whenever f is a polynomial of degree below 2n.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    k = np.arange(nodes, 0, -1)
    abscissae = np.cos((2 * k - 1) * np.pi / (2 * nodes))
    weights = np.full(nodes, np.pi / nodes)
    return QuadratureRule(CHEBYSHEV_GAUSS, nodes, abscissae, weights)


@functools.lru_cache(maxsize=64)
def gauss_legendre(nodes):
    """Gauss-Legendre rule on [-1, 1] for unweighted integrals."""
    if nodes < 1:
        raise ValueError("need at least one node")
    abscissae, weights = np.polynomial.legendre.leggauss(int(nodes))
    return QuadratureRule(GAUSS_LEGENDRE, int(nodes), abscissae, weights)


def _pieces(lo, hi, seams):
    seams = sorted(s for s in set(float(s) for s in seams) if lo < s < hi)
    bounds = [lo, *seams, hi]
    return zip(bounds[:-1], bounds[1:])


def theta_quadrature_points(nodes, seams=()):
    """Gauss-Legendre point/weight tables covering [-pi/2, pi/2], split
    at interior ``seams``; each smooth piece gets its own ``nodes``-point
    panel. Returns (points, weights)."""
    rule = gauss_legendre(nodes)
    points, weights = [], []
    for lo, hi in _pieces(-HALF_PI, HALF_PI, seams):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        points.append(mid + half * rule.abscissae)
        weights.append(half * rule.weights)
    return np.concatenate(points), np.concatenate(weights)


def weighted_quadrature_points(nodes, seams=()):
    """Point/weight tables for integrals of f(x) w(x) over [-1, 1] with
    w(x) = 1/sqrt(1 - x^2).

    Without seams this is a single Chebyshev-Gauss rule (whose weight is
    exactly w). With seams the substitution x = cos(t) removes the weight
    and each piece becomes an unweighted Gauss-Legendre panel, keeping
    spectral accuracy on integrands that are only piecewise smooth.
    """
    if not seams:
        rule = chebyshev_gauss(nodes)
        return rule.abscissae, rule.weights
    rule = gauss_legendre(nodes)
    points, weights = [], []
    for lo, hi in _pieces(-1.0, 1.0, seams):
        t_lo, t_hi = np.arccos(hi), np.arccos(lo)
        mid, half = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
        points.append(np.cos(mid + half * rule.abscissae))
        weights.append(half * rule.weights)
    return np.concatenate(points), np.concatenate(weights)
