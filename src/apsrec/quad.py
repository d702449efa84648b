"""Fixed-node quadrature tables.

Every rule is a read-only (points, weights) pair. Chebyshev-Gauss on
[-1, 1] carries exactly the Jacobian weight w(x) = 1/sqrt(1 - x^2) of
x = sin(theta), so the endpoint singularity never appears numerically;
Gauss-Legendre panels cover plain integrals over a piece of an interval.

Integrands with known interior kinks or jumps are integrated in theta,
split at those seam points with a fixed-size rule per smooth piece; the
split points come from the spectrum models, never from error estimation,
so every evaluation is deterministic.
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


def theta_quadrature_points(nodes, seams=()):
    """Gauss-Legendre point/weight tables covering [-pi/2, pi/2], split
    at the distinct interior ``seams``; each smooth piece gets its own
    ``nodes``-point panel, in order. Returns (points, weights); ValueError
    unless ``nodes`` is an integer of at least 1."""
    abscissae, unit_weights = _gauss_legendre(_count(nodes, 1, "node count"))
    seams = np.asarray(seams, dtype=np.float64).reshape(-1)
    inner = np.unique(seams[(-HALF_PI < seams) & (seams < HALF_PI)])
    bounds = np.concatenate(([-HALF_PI], inner, [HALF_PI]))
    mid, half = 0.5 * (bounds[1:] + bounds[:-1]), 0.5 * (bounds[1:] - bounds[:-1])
    return ((mid[:, None] + half[:, None] * abscissae).ravel(),
            (half[:, None] * unit_weights).ravel())


def weighted_quadrature_points(nodes):
    """The read-only Chebyshev-Gauss (points, weights) table for integrals
    of f(x) w(x) over [-1, 1] with w(x) = 1/sqrt(1 - x^2); ValueError
    unless ``nodes`` is an integer of at least 1."""
    return _chebyshev_gauss(_count(nodes, 1, "node count"))
