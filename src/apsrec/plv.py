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
    _exp_lags,
    _exp_moments,
    _exp_samples,
    _exp_table,
)
# trig_basis is not called here: perfbench's tracer wraps it as the basis
# layer, so it stays a module attribute.
from .core import trig_basis  # noqa: F401
from .errors import DomainError, FeasibilityWarning, ModelError
from .forward import synthesize_lags
from .gram import (
    _TOEPLITZ_MIN_M,
    _blocks,
    _spectrum,
    _tables,
    _toeplitz_product,
    assemble_gram,
    measurement_vector,
    solve,
)
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
        """Transformed density g(x) of the reconstruction at the points
        ``x``, in their shape (a scalar for a 0-d input), by the
        exponential-sum kernel, bit for bit as ``TrigPolynomial.g``."""
        x = np.asarray(x, dtype=np.float64)
        even, odd = _exp_samples(_grid_table(self.cfg, x.ravel()), self.coeffs.b)
        return (even + odd).reshape(x.shape)[()]

    def rho(self, theta):
        """Angular density rho(theta) = g(sin theta) of the reconstruction."""
        return self.g(np.sin(np.asarray(theta, dtype=np.float64)))


def _grid_table(cfg, x):
    """The kernel table of ``x``, kept with the configuration's Gram for
    the last grid evaluated there (:func:`_keep`); the key is a read-only
    copy of ``x``."""
    kept = _tables(cfg).get("grid")
    if kept is not None and np.array_equal(kept[0], x):
        return kept[1]
    grid = x.copy()
    grid.setflags(write=False)
    return _keep(cfg, "grid", grid, _exp_table(cfg, x))[1]


def _keep(cfg, key, *entry):
    """``entry``, kept with the configuration's Gram under ``key`` unless
    the baby rows and giant step of its last item, a kernel table, exceed
    ``_MAX_KEPT_TABLE_BYTES``."""
    if (len(entry[-1].baby) + 1) * entry[-1].giant.nbytes <= _MAX_KEPT_TABLE_BYTES:
        _tables(cfg)[key] = entry
    return entry


def _half_rule(nodes):
    """Nodes and weights of the upper half of the Chebyshev-Gauss rule of
    ``nodes`` points, the nodes x_j >= 0.

    The rule's abscissae ascend and are symmetric about x = 0, so a sum
    over it of an even function is twice the half rule's, and of an odd
    one is zero. For odd ``nodes`` the middle node is snapped to x = 0
    and kept at half weight, so a sum over both halves counts it once.

    Returns:
        (x, w): the half-rule nodes and read-only weights.
    """
    points, weights = weighted_quadrature_points(nodes)
    half = nodes // 2
    x = points[half:].copy()
    w = weights[half:].copy()
    if nodes % 2:
        x[0] = 0.0
        w[0] *= 0.5
    w.setflags(write=False)
    return x, w


def _summary_table(cfg):
    """Weights and kernel table of :func:`_half_rule` at the summary's
    count, kept with the configuration's Gram (:func:`_keep`)."""
    nodes = _negativity_nodes(cfg)
    kept = _tables(cfg).get(nodes)
    if kept is not None:
        return kept
    x, w = _half_rule(nodes)
    return _keep(cfg, nodes, w, _exp_table(cfg, x))


def _audit_matrix(cfg, x, w):
    """The audit's Gram Q on the half rule (x, w) of :func:`_half_rule`.

    Q is the Gram with pi J0(kappa_l) replaced by the rule's own moments
    mu_l = sum_j w_j cos(kappa_l x_j) over the whole rule, l < 2M-1, one
    pass of the kernel over 2M-1 powers; the rule is symmetric, so its
    products of a cosine and a sine sum to zero and Q b equals the lags
    sum_j w_j g(x_j) exp(i kappa_m x_j) of the coefficients b, with g
    sampled on the rule. Below ``_TOEPLITZ_MIN_M`` it is the two dense
    blocks (:func:`gram._blocks`), from it up the circulant spectrum of
    the Toeplitz matrix with first column mu. Never built from J0 or from
    the Gram's factors, it checks the solve independently.

    Returns:
        A tuple of read-only arrays, for :func:`_lags_of_coeffs`.
    """
    mu = 2.0 * _exp_moments(ArrayConfig(2 * cfg.M - 1, cfg.gamma), x, w)
    audit = (_spectrum(mu),) if cfg.M >= _TOEPLITZ_MIN_M else _blocks(mu, 0.5)
    for array in audit:
        array.setflags(write=False)
    return audit


def _lags_of_coeffs(cfg, audit, coeffs):
    """Lags r_m = sum_j w_j g(x_j) exp(i kappa_m x_j), m < M, of the
    solution by Chebyshev-Gauss quadrature: Q b, with Q from
    :func:`_audit_matrix`, is [Re r_0 .. Re r_{M-1}, Im r_1 .. Im r_{M-1}],
    the measurement layout."""
    b, M = coeffs.b, cfg.M
    if M >= _TOEPLITZ_MIN_M:
        y = _toeplitz_product(audit[0], b)
    else:
        y = np.concatenate([audit[0] @ b[:M], audit[1] @ b[M:]])
    lags = y[:M].astype(np.complex128)
    lags[1:] += 1j * y[M:]
    return lags


def recover(lags, cfg, residual_tol=DEFAULT_RESIDUAL_TOL):
    """Recover the minimum-norm spectrum consistent with ``lags``.

    Feasibility is re-checked independently of the closed-form Gram: the
    lags of the solution by Chebyshev-Gauss quadrature, on a rule whose
    node count scales with the top basis frequency, are Q b with Q the
    Gram of that rule (:func:`_audit_matrix`). Q depends on the array
    alone; it is built after the solve on a new configuration and kept
    with the cached Gram.

    Args:
        lags: CovarianceLags (or raw complex vector) of length cfg.M.
        residual_tol: Feasibility tolerance, scaled by (1 + max |r_m|). A
            FeasibilityWarning is emitted when the quadrature-checked
            constraint residual exceeds it.

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
    tables = _tables(cfg)
    audit = tables.get("audit")
    if audit is None:
        audit = tables["audit"] = _audit_matrix(cfg, *_half_rule(_auto_nodes(cfg)))

    residual = float(np.max(np.abs(_lags_of_coeffs(cfg, audit, coeffs) - lags.r)))
    scale = residual_tol * (1.0 + float(np.max(np.abs(lags.r))))
    if residual > scale:
        warnings.warn(
            f"constraint residual {residual:.3e} exceeds tolerance {scale:.3e}; "
            "the Gram solve is numerically unreliable at this configuration",
            FeasibilityWarning,
            stacklevel=2,
        )
    return PlvSolution(coeffs, residual, cfg)


def project_onto_nperp(g, cfg):
    """Project a function (or an L2 spectrum model) orthogonally onto the
    trigonometric subspace spanned by the array's basis.

    The projection coefficients solve G c = v with v the weighted moments
    of ``g`` against the basis. A model's moments are its exact
    synthesized lags, so its projection is :func:`recover` of those lags,
    bit for bit. A callable's are the kernel's lags of its samples on a
    Chebyshev-Gauss rule of max(512, n) points, with n the residual
    audit's count, which follows the top frequency gamma pi (M-1).

    Args:
        g: Vectorized callable on [-1, 1], or an ApsModel with a density.

    Raises:
        ModelError: For a model without a density (point sources).
    """
    if isinstance(g, ApsModel):
        if not g.in_l2:
            raise ModelError("model has no square-integrable density to project")
        return solve(assemble_gram(cfg), measurement_vector(synthesize_lags(g, cfg)))
    points, weights = weighted_quadrature_points(max(512, _auto_nodes(cfg)))
    samples = weights * np.asarray(g(points), dtype=np.float64)
    lags = _exp_lags(_exp_table(cfg, points), samples, samples, cfg.M)
    return solve(assemble_gram(cfg), np.concatenate([lags.real, lags[1:].imag]))


def evaluate_solution(solution, grid, domain=Domain.THETA):
    """Sample the reconstruction on a grid in either domain.

    Raises:
        DomainError: Unless the grid lies within [-pi/2, pi/2] (theta) or
            [-1, 1] (x); a NaN point lies in neither.
    """
    domain = Domain(domain)
    grid = np.asarray(grid, dtype=np.float64)
    theta = domain is Domain.THETA
    limit, span = (HALF_PI, "[-pi/2, pi/2]") if theta else (1.0, "[-1, 1]")
    if not np.all(np.abs(grid) <= limit):
        raise DomainError(f"{domain.value} grid must lie within {span}")
    values = solution.rho(grid) if theta else solution.g(grid)
    return SampledFunction(grid, values, domain)


class NegativitySummary(NamedTuple):
    min_value: float
    negative_fraction: float


def negativity_summary(solution):
    """Diagnostics for sign violations of a reconstruction: the minimum
    value over a dense x grid, and the weighted mass of the negative part
    relative to the total absolute mass (0 for a nonnegative solution).

    The grid is a Chebyshev-Gauss rule of max(2048, n) points, with n the
    residual audit's count, which follows the top frequency
    gamma pi (M-1). g is sampled through the kernel table of its half rule
    (:func:`_summary_table`): g(+-x_j) = e_j +- o_j over the nodes
    x_j >= 0, with e and o the kernel's even and odd sample parts and the
    middle node of an odd rule counted once.
    """
    cfg = solution.cfg
    w, powers = _summary_table(cfg)
    even, odd = _exp_samples(powers, solution.coeffs.b)
    upper, lower = even + odd, even - odd
    grid_min = float(min(upper.min(), lower.min()))
    abs_mass = float(w @ (np.abs(upper) + np.abs(lower)))
    if abs_mass == 0.0:
        return NegativitySummary(grid_min, 0.0)
    neg_mass = float(w @ (np.maximum(-upper, 0.0) + np.maximum(-lower, 0.0)))
    return NegativitySummary(grid_min, neg_mass / abs_mass)
