"""Forward model: synthesize covariance lags from a ground-truth
spectrum model.

The m-th lag is the integral of rho(theta) e^{i kappa_m sin(theta)} over
the angle interval; equivalently, after x = sin(theta), the weighted
Fourier measurement of the transformed density. Both integration paths
are available and must agree, which is the cross-check the test suite
leans on. Point sources never touch quadrature: their lags are exact
finite sums of complex exponentials.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    ApsModel,
    CovarianceLags,
    Domain,
    PointSources,
    SpectrumSum,
    _count,
    _exp_lags,
    _exp_table,
    seams_x,
    transform_aps,
)
from .quad import theta_quadrature_points, weighted_quadrature_points

DEFAULT_NODES = 256


@dataclass(frozen=True)
class SynthesisOptions:
    """Quadrature resolution and integration path for lag synthesis."""

    nodes: int = DEFAULT_NODES
    domain_path: Domain = Domain.THETA

    def __post_init__(self):
        object.__setattr__(self, "nodes", _count(self.nodes, 16, "synthesis node count"))
        object.__setattr__(self, "domain_path", Domain(self.domain_path))


def _split_atoms(model):
    """Separate Dirac sources from density terms, recursing through sums."""
    if isinstance(model, PointSources):
        return list(model.sources), []
    if isinstance(model, SpectrumSum):
        atoms, densities = [], []
        for term in model.terms:
            sub_atoms, sub_densities = _split_atoms(term)
            atoms.extend(sub_atoms)
            densities.extend(sub_densities)
        return atoms, densities
    return [], [model]


def synthesize_lags(model, cfg, opts=None):
    """Covariance lags r_m, m = 0..M-1, of ``model`` under ``cfg``.

    Atoms add exact phasor sums; the densities' weighted samples v_j on
    one rule give r_m = sum_j v_j exp(i kappa_m x_j) through the
    exponential-sum kernel, with x_j = sin(theta_j) on the theta path.

    The imaginary part of r_0 is forced to exact zero (it vanishes
    analytically). Results are deterministic and linear in the model.
    """
    if not isinstance(model, ApsModel):
        raise TypeError("model must be a spectrum model")
    opts = opts if opts is not None else SynthesisOptions()
    r = np.zeros(cfg.M, dtype=np.complex128)

    atoms, densities = _split_atoms(model)
    for angle, power in atoms:
        r += power * np.exp(1j * cfg.kappas(cfg.M) * np.sin(angle))

    if densities:
        density = densities[0] if len(densities) == 1 else SpectrumSum(tuple(densities))
        if opts.domain_path is Domain.THETA:
            points, weights = theta_quadrature_points(opts.nodes, density.seams_theta())
            x, samples = np.sin(points), weights * density.rho(points)
        else:
            points, weights = weighted_quadrature_points(opts.nodes, seams_x(density))
            x, samples = points, weights * transform_aps(density)(points)
        r += _exp_lags(_exp_table(cfg, x), samples, samples, cfg.M)

    r[0] = r[0].real
    return CovarianceLags(r)
