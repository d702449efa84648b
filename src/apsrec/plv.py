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
    _ExpTable,
    _MAX_KEPT_TABLE_BYTES,
    _exp_lags,
    _exp_samples,
    _exp_table,
    _giant_lags,
)
# trig_basis is not called here: perfbench's tracer wraps it as the basis
# layer, so it stays a module attribute.
from .core import trig_basis  # noqa: F401
from .errors import DomainError, FeasibilityWarning, ModelError
from .forward import synthesize_lags
from .gram import _gram_form, _gram_product, _tables, assemble_gram, measurement_vector, solve
from .quad import weighted_quadrature_points

DEFAULT_RESIDUAL_TOL = 1e-8


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
    the last grid evaluated there while it fits (:func:`_fits`); the key
    is a read-only copy of ``x``."""
    tables = _tables(cfg)
    kept = tables.get("grid")
    if kept is not None and np.array_equal(kept[0], x):
        return kept[1]
    table = _exp_table(cfg, x)
    if _fits(table):
        grid = x.copy()
        grid.setflags(write=False)
        tables["grid"] = grid, table
    return table


def _fits(table):
    """Whether the baby rows and giant step of a kernel table fit
    ``_MAX_KEPT_TABLE_BYTES``, so that it may be kept with the Gram."""
    return (len(table.baby) + 1) * table.giant.nbytes <= _MAX_KEPT_TABLE_BYTES


def _half_rule(nodes):
    """Nodes and weights of the upper half of the Chebyshev-Gauss rule of
    ``nodes`` points, the nodes x_j >= 0.

    The rule's abscissae ascend and are symmetric about x = 0, so a sum
    over it of an even function is twice the half rule's, and of an odd
    one is zero. For odd ``nodes`` the middle node is snapped to x = 0
    and kept at half weight, so a sum over both halves counts it once.

    Returns:
        (x, w): the read-only half-rule nodes and weights.
    """
    points, weights = weighted_quadrature_points(nodes)
    half = nodes // 2
    x = points[half:].copy()
    w = weights[half:].copy()
    if nodes % 2:
        x[0] = 0.0
        w[0] *= 0.5
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class _Rule(NamedTuple):
    """:func:`_rule`'s record; ``table`` is None in a kept record whose
    table exceeds ``_MAX_KEPT_TABLE_BYTES``, and ``audit`` is None until
    :func:`recover` asks for Q."""

    x: np.ndarray
    w: np.ndarray
    table: _ExpTable | None
    audit: tuple | None


def _rule(cfg, audit=False):
    """The one Chebyshev-Gauss rule by which the residual audit, the
    negativity summary and a callable's projection integrate against
    w(x) = 1/sqrt(1 - x^2) at ``cfg``: the read-only nodes x and weights
    w of :func:`_half_rule` on max(2048, 4 gamma M + 64) points, which
    resolve products of basis functions at the top frequency
    2 kappa_{M-1}, their kernel table and, with ``audit``, the audit's
    Gram form Q, kept with the configuration's Gram under one key (the
    table only while it fits ``_MAX_KEPT_TABLE_BYTES``). Q is built once
    per kept record, and only for a caller that reads it.

    Q is the Gram with pi J0(kappa_l) replaced by the rule's own moments
    mu_l = sum_j w_j cos(kappa_l x_j) over the whole rule, l < 2M-1,
    from the table's baby rows and giant step with ceil((2M-1)/B) giant
    powers; the rule is symmetric, so its products of a cosine and a sine
    sum to zero and Q b equals the lags sum_j w_j g(x_j) exp(i kappa_m x_j)
    of the coefficients b, with g sampled on the rule. Never built from
    J0 or from the Gram's factors, it checks the solve independently.
    """
    tables = _tables(cfg)
    rule = tables.get("rule")
    if rule is None:
        x, w = _half_rule(max(2048, int(4 * cfg.gamma * cfg.M) + 64))
        rule = _Rule(x, w, _exp_table(cfg, x), None)
    elif rule.audit is not None or not audit:
        return rule
    if audit:
        table, count = rule.table or _exp_table(cfg, rule.x), 2 * cfg.M - 1
        mu = 2.0 * _giant_lags(table._replace(count=-(-count // len(table.baby))), rule.w, count)
        rule = rule._replace(table=table, audit=_gram_form(mu))
    tables["rule"] = rule if _fits(rule.table) else rule._replace(table=None)
    return rule


def recover(lags, cfg, residual_tol=DEFAULT_RESIDUAL_TOL):
    """Recover the minimum-norm spectrum consistent with ``lags``.

    Feasibility is re-checked independently of the closed-form Gram: the
    lags of the solution by Chebyshev-Gauss quadrature, on the array's
    rule (:func:`_rule`), whose node count scales with the top basis
    frequency, are Q b with Q the Gram of that rule. Q depends on the
    array alone; it is built after the solve on a new configuration and
    kept with the cached Gram.

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
    # Q b in the measurement layout [Re r_0 .. Re r_{M-1}, Im r_1 .. Im r_{M-1}].
    y = _gram_product(_rule(cfg, audit=True).audit, coeffs.b)
    checked = y[:cfg.M].astype(np.complex128)
    checked[1:] += 1j * y[cfg.M:]
    residual = float(np.max(np.abs(checked - lags.r)))
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
    bit for bit. A callable's are the kernel's lags of its samples at
    +-x_j on the array's rule (:func:`_rule`), whose node count follows
    the top frequency gamma pi (M-1): with g_+- = g(+-x_j) and the middle
    node of an odd rule at half weight, the lags over the whole rule are
    sum_j w_j ((g_+ + g_-) cos(kappa_m x_j) + i (g_+ - g_-) sin(kappa_m x_j)).

    Args:
        g: Vectorized callable on [-1, 1], or an ApsModel with a density.

    Raises:
        ModelError: For a model without a density (point sources).
    """
    if isinstance(g, ApsModel):
        if not g.in_l2:
            raise ModelError("model has no square-integrable density to project")
        return solve(assemble_gram(cfg), measurement_vector(synthesize_lags(g, cfg)))
    gram = assemble_gram(cfg)
    x, w, table, _ = _rule(cfg)
    upper, lower = (w * np.asarray(g(points), dtype=np.float64) for points in (x, -x))
    lags = _exp_lags(table or _exp_table(cfg, x), upper + lower, upper - lower, cfg.M)
    return solve(gram, np.concatenate([lags.real, lags[1:].imag]))


def evaluate_solution(solution, grid, domain=Domain.THETA):
    """Sample the reconstruction on a grid in either domain.

    Raises:
        DomainError: Unless the grid lies within [-pi/2, pi/2] (theta) or
            [-1, 1] (x); a NaN point lies in neither.
        ValueError: Unless the grid, flattened, is strictly increasing.
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

    The grid is the array's rule (:func:`_rule`), whose node count follows
    the top frequency gamma pi (M-1). g is sampled through the kernel
    table of its half rule: g(+-x_j) = e_j +- o_j over the nodes x_j >= 0,
    with e and o the kernel's even and odd sample parts and the middle
    node of an odd rule counted once.
    """
    x, w, table, _ = _rule(solution.cfg)
    even, odd = _exp_samples(table or _exp_table(solution.cfg, x), solution.coeffs.b)
    upper, lower = even + odd, even - odd
    grid_min = float(min(upper.min(), lower.min()))
    abs_mass = float(w @ (np.abs(upper) + np.abs(lower)))
    if abs_mass == 0.0:
        return NegativitySummary(grid_min, 0.0)
    neg_mass = float(w @ (np.maximum(-upper, 0.0) + np.maximum(-lower, 0.0)))
    return NegativitySummary(grid_min, neg_mass / abs_mass)
