"""Minimum-norm spectrum recovery.

Among all transformed densities consistent with the observed lags, the
recovered one is the unique element that is also a trigonometric
polynomial at the array's frequencies: the orthogonal projection of the
origin onto the affine feasible set. Its coefficients come from one
positive-definite solve, and feasibility is re-checked a posteriori by
quadrature against every lag constraint.

No positivity is imposed anywhere: a reconstruction may dip negative
(typically for spectra far outside the representable subspace), and it is
reported verbatim with a negativity summary rather than clipped, since
clipping would silently break every energy identity downstream.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ApsModel,
    ArrayConfig,
    CovarianceLags,
    Domain,
    HALF_PI,
    SampledFunction,
    TrigCoeffs,
    _MAX_KEPT_TABLE_BYTES,
    _count,
    _exp_lags,
    _exp_samples,
    _exp_table,
    trig_basis,
)
from .errors import DomainError, FeasibilityWarning, ModelError
from .forward import synthesize_lags
from .gram import _tables, assemble_gram, measurement_vector, solve
from .quad import weighted_quadrature_points

DEFAULT_RESIDUAL_TOL = 1e-8


def _auto_nodes(cfg):
    # Enough nodes to resolve products of basis functions at the top
    # frequency 2*kappa_{M-1}; generous floor for small arrays.
    return max(256, int(4 * cfg.gamma * cfg.M) + 64)


def _negativity_nodes(cfg):
    return max(2048, _auto_nodes(cfg))


@dataclass(frozen=True)
class PlvSolution:
    """Recovered minimum-norm spectrum.

    ``constraint_residual`` is the worst absolute mismatch, recomputed by
    quadrature, between the solution's lags and the observed ones; it is
    numerical noise (not model error) because the feasible set always
    intersects the trigonometric subspace exactly.
    """

    coeffs: TrigCoeffs
    constraint_residual: float
    cfg: ArrayConfig

    def g(self, x):
        """Transformed density g(x) of the reconstruction."""
        basis = _grid_basis(self.cfg, np.atleast_1d(np.asarray(x, dtype=np.float64)))
        values = basis @ self.coeffs.b
        return values[0] if np.ndim(x) == 0 else values

    def rho(self, theta):
        """Angular density rho(theta) = g(sin theta) of the reconstruction."""
        return self.g(np.sin(np.asarray(theta, dtype=np.float64)))


def _grid_basis(cfg, x):
    """trig_basis(cfg, x), kept with the configuration's Gram for the last
    grid evaluated there while within the kept size; the key is a
    read-only copy of ``x``."""
    kept = _tables(cfg).get("grid")
    if kept is not None and np.array_equal(kept[0], x):
        return kept[1]
    basis = trig_basis(cfg, x)
    if x.nbytes + basis.nbytes <= _MAX_KEPT_TABLE_BYTES:
        grid = x.copy()
        grid.setflags(write=False)
        basis.setflags(write=False)
        _tables(cfg)["grid"] = grid, basis
    return basis


def _half_rule(cfg, nodes):
    """Weights and kernel table of the upper half of the Chebyshev-Gauss
    rule, the nodes x_j >= 0.

    The rule's abscissae ascend and are symmetric about x = 0, so g(x_j)
    and g(-x_j) are e_j + o_j and e_j - o_j, with e and o the even and
    odd parts of g on those nodes, the kernel's two sample parts. For odd
    ``nodes`` the middle node is snapped to x = 0 and kept at half weight,
    so a sum over both halves counts it once. A whole table is kept with
    the configuration's Gram at the audit's and the summary's default
    node counts.

    Returns:
        (w, powers): the half-rule weights and the table.
    """
    nodes = _count(nodes, 1, "node count")
    kept = _tables(cfg).get(nodes)
    if kept is not None:
        return kept
    points, weights = weighted_quadrature_points(nodes)
    half = nodes // 2
    x = points[half:].copy()
    w = weights[half:].copy()
    if nodes % 2:
        x[0] = 0.0
        w[0] *= 0.5
    w.setflags(write=False)
    powers = _exp_table(cfg, x)
    if isinstance(powers, np.ndarray) and nodes in (_auto_nodes(cfg), _negativity_nodes(cfg)):
        _tables(cfg)[nodes] = w, powers
    return w, powers


def _lags_of_coeffs(cfg, coeffs, nodes):
    """Lags r_m = sum_j w_j g(x_j) exp(i kappa_m x_j) of the solution by
    Chebyshev-Gauss quadrature, independent of the closed-form Gram.

    exp(i kappa_m (-x)) is the conjugate of exp(i kappa_m x), so over the
    half rule of :func:`_half_rule`,
    r_m = 2 sum_j w_j (e_j cos(kappa_m x_j) + i o_j sin(kappa_m x_j)):
    the kernel's lags of the weighted parts.
    """
    w, powers = _half_rule(cfg, nodes)
    even, odd = _exp_samples(powers, coeffs.b)
    return 2.0 * _exp_lags(powers, w * even, w * odd, cfg.M)


def recover(lags, cfg, residual_tol=DEFAULT_RESIDUAL_TOL):
    """Recover the minimum-norm spectrum consistent with ``lags``.

    Args:
        lags: CovarianceLags (or raw complex vector) of length cfg.M.
        residual_tol: Feasibility tolerance, scaled by (1 + max |r_m|). A
            FeasibilityWarning is emitted when the quadrature-checked
            constraint residual exceeds it. The residual is checked on a
            Chebyshev-Gauss rule whose node count scales with the top basis
            frequency.

    Raises:
        ConditioningError: Propagated from Gram assembly.
        ValueError: Unless ``residual_tol`` is finite and at least 0 (0
            warns on any residual).
    """
    if not 0.0 <= residual_tol < np.inf:
        raise ValueError(f"residual_tol must be finite and >= 0, got {residual_tol!r}")
    if not isinstance(lags, CovarianceLags):
        lags = CovarianceLags(lags)
    if lags.M != cfg.M:
        raise ValueError(f"lag count {lags.M} does not match array M = {cfg.M}")
    coeffs = solve(assemble_gram(cfg), measurement_vector(lags))

    residual = float(np.max(np.abs(_lags_of_coeffs(cfg, coeffs, _auto_nodes(cfg)) - lags.r)))
    scale = residual_tol * (1.0 + float(np.max(np.abs(lags.r))))
    if residual > scale:
        warnings.warn(
            f"constraint residual {residual:.3e} exceeds tolerance {scale:.3e}; "
            "the Gram solve is numerically unreliable at this configuration",
            FeasibilityWarning,
            stacklevel=2,
        )
    return PlvSolution(coeffs, residual, cfg)


def project_onto_nperp(g, cfg, nodes=None):
    """Project a function (or an L2 spectrum model) orthogonally onto the
    trigonometric subspace spanned by the array's basis.

    The projection coefficients solve G c = v with v the weighted moments
    of ``g`` against the basis. A model's moments are its exact
    synthesized lags, so its projection is :func:`recover` of those lags,
    bit for bit. A callable's are the kernel's lags of its samples on a
    Chebyshev-Gauss rule of ``nodes`` points.

    Args:
        g: Vectorized callable on [-1, 1], or an ApsModel with a density.
        nodes: Node count of a callable's moment rule, by default
            max(512, n) with n the residual audit's count, which follows
            the top frequency gamma pi (M-1); a model needs none.

    Raises:
        ModelError: For a model without a density (point sources).
        ValueError: Unless ``nodes`` is an integer of at least 1, for a
            callable.
    """
    if isinstance(g, ApsModel):
        if not g.in_l2:
            raise ModelError("model has no square-integrable density to project")
        return solve(assemble_gram(cfg), measurement_vector(synthesize_lags(g, cfg)))
    if nodes is None:
        nodes = max(512, _auto_nodes(cfg))
    points, weights = weighted_quadrature_points(nodes)
    samples = weights * np.asarray(g(points), dtype=np.float64)
    lags = _exp_lags(_exp_table(cfg, points), samples, samples, cfg.M)
    return solve(assemble_gram(cfg), np.concatenate([lags.real, lags[1:].imag]))


def evaluate_solution(solution, grid, domain=Domain.THETA):
    """Sample the reconstruction on a grid in either domain.

    Raises:
        DomainError: If the grid leaves [-pi/2, pi/2] (theta) or [-1, 1] (x).
    """
    domain = Domain(domain)
    grid = np.asarray(grid, dtype=np.float64)
    if domain is Domain.THETA:
        if np.any(np.abs(grid) > HALF_PI):
            raise DomainError("theta grid must lie within [-pi/2, pi/2]")
        values = solution.rho(grid)
    else:
        if np.any(np.abs(grid) > 1.0):
            raise DomainError("x grid must lie within [-1, 1]")
        values = solution.g(grid)
    return SampledFunction(grid, values, domain)


class NegativitySummary(NamedTuple):
    min_value: float
    negative_fraction: float


def negativity_summary(solution, nodes=None):
    """Diagnostics for sign violations of a reconstruction: the minimum
    value over a dense x grid, and the weighted mass of the negative part
    relative to the total absolute mass (0 for a nonnegative solution).

    The grid is a Chebyshev-Gauss rule of ``nodes`` points, by default
    max(2048, n) with n the residual audit's count, which follows the top
    frequency gamma pi (M-1). g is sampled through the audit's half-rule
    power table: g(+-x_j) = e_j +- o_j over the nodes x_j >= 0, with the
    middle node of an odd rule counted once.
    """
    cfg = solution.cfg
    if nodes is None:
        nodes = _negativity_nodes(cfg)
    w, powers = _half_rule(cfg, nodes)
    even, odd = _exp_samples(powers, solution.coeffs.b)
    upper, lower = even + odd, even - odd
    grid_min = float(min(upper.min(), lower.min()))
    abs_mass = float(w @ (np.abs(upper) + np.abs(lower)))
    if abs_mass == 0.0:
        return NegativitySummary(grid_min, 0.0)
    neg_mass = float(w @ (np.maximum(-upper, 0.0) + np.maximum(-lower, 0.0)))
    return NegativitySummary(grid_min, neg_mass / abs_mass)
