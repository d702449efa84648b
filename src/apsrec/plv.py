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

import functools
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
    _BLOCK_BYTES,
    _ExpTable,
    _MAX_KEPT_TABLE_BYTES,
    _bessel_cut,
    _exp_lags,
    _exp_samples,
    _exp_table,
)
# trig_basis and weighted_quadrature_points are not called here:
# perfbench's tracer wraps them as layers, so they stay module attributes.
from .core import trig_basis  # noqa: F401
from .errors import DomainError, FeasibilityWarning, ModelError
from .forward import synthesize_lags
from .gram import _gram_form, _gram_product, _tables, assemble_gram, measurement_vector, solve
from .quad import weighted_quadrature_points  # noqa: F401

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
    ``nodes`` points, the nodes x_j >= 0, built alone: cos((2k-1) pi /
    (2 nodes)) for k = ceil(nodes/2)..1, each at weight pi/nodes.

    The rule's abscissae ascend and are symmetric about x = 0, so a sum
    over it of an even function is twice the half rule's, and of an odd
    one is zero. For odd ``nodes`` the middle node is snapped to x = 0
    and kept at half weight, so a sum over both halves counts it once.

    Returns:
        (x, w): the read-only half-rule nodes and weights.
    """
    k = np.arange(-(-nodes // 2), 0, -1)
    x = np.cos((2 * k - 1) * np.pi / (2 * nodes))
    w = np.full(k.size, np.pi / nodes)
    if nodes % 2:
        x[0] = 0.0
        w[0] *= 0.5
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class _Rule(NamedTuple):
    """:func:`_rule`'s record; ``table`` is None in a kept record whose
    table exceeds ``_MAX_KEPT_TABLE_BYTES``."""

    x: np.ndarray
    w: np.ndarray
    table: _ExpTable | None


def _rule(cfg):
    """The Chebyshev-Gauss rule by which the negativity summary and a
    callable's projection integrate against w(x) = 1/sqrt(1 - x^2) at
    ``cfg``: the read-only nodes x and weights w of :func:`_half_rule` on
    max(2048, 4 gamma M + 64) points, a grid set by resolution that
    resolves products of basis functions at the top frequency
    2 kappa_{M-1}, and their kernel table of M powers, kept with the
    configuration's Gram under one key (the table only while it fits
    ``_MAX_KEPT_TABLE_BYTES``). The residual audit has a rule of its own
    (:func:`_audit`)."""
    tables = _tables(cfg)
    rule = tables.get("rule")
    if rule is None:
        x, w = _half_rule(max(2048, int(4 * cfg.gamma * cfg.M) + 64))
        rule = _Rule(x, w, _exp_table(cfg, x))
        tables["rule"] = rule if _fits(rule.table) else rule._replace(table=None)
    return rule


# The audit's moments are a type-1 nonuniform FFT (Dutt and Rokhlin, SIAM
# J. Sci. Comput. 14, 1993) with the "exponential of semicircle" kernel
# exp(beta (sqrt(1 - z^2) - 1)) on |z| <= 1 (Barnett, Magland and af
# Klinteberg, SIAM J. Sci. Comput. 41, 2019): each weight is spread over
# this many grid points, with beta = 2.30 times that width, the shape
# whose error their analysis puts near 1e-15 of the weights' sum at
# twofold oversampling.
_SPREAD = 16
_BETA = 2.30 * _SPREAD


@functools.cache
def _kernel_rule():
    """The nodes z in (0, 1) of the 62-point Gauss-Legendre rule, and
    _SPREAD times their weights times the kernel at z: the rule of the
    kernel's Fourier transform, built once. The nodes are the roots of
    P_62 by four Newton steps from cos(pi (i - 1/4) / 62.5), in the
    three-term recurrence, and the weights 2 (1 - z^2) / (62 P_61(z))^2.
    ``np.polynomial.legendre.leggauss(62)`` gives the same products to
    3e-15, but its eigenvalue solve raised a first M = 64 recovery's peak
    RSS by about 0.7 MB."""
    n = 62

    def legendre(z):
        previous, value = np.ones_like(z), z
        for k in range(2, n + 1):
            previous, value = value, ((2 * k - 1) * z * value - (k - 1) * previous) / k
        return value, previous

    z = np.cos(np.pi * (np.arange(n // 2, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(4):
        value, previous = legendre(z)
        z = z - value * (1.0 - z) * (1.0 + z) / (n * (previous - z * value))
    _, previous = legendre(z)
    weights = 2.0 * (1.0 - z) * (1.0 + z) / (n * previous) ** 2
    weights *= _SPREAD * np.exp(_BETA * (np.sqrt(1.0 - z * z) - 1.0))
    return tuple(zip(z.tolist(), weights.tolist()))


@functools.lru_cache(maxsize=4)
def _deconvolution(count):
    """The audit's grid length n for ``count`` moments, the power of two
    at least 4 ``count`` (twofold oversampling of the modes -+``count``),
    and the read-only Fourier transform of the spread kernel at the modes
    k < ``count``: _SPREAD times the integral of the kernel times
    cos(pi _SPREAD k z / n) over z in (0, 1), by :func:`_kernel_rule`,
    one node at a time, so its memory is linear in ``count``. It depends
    on the moment count alone, which a stream of fresh gamma at one M
    keeps."""
    size = 1 << (4 * count - 1).bit_length()
    modes = (np.pi * _SPREAD / size) * np.arange(count)
    transform = np.zeros(count)
    for z, weight in _kernel_rule():
        transform += weight * np.cos(z * modes)
    transform.setflags(write=False)
    return size, transform


def _moments(cfg, x, w):
    """mu_l = sum_j w_j cos(kappa_l x_j), l < 2M-1, over the whole
    rule from its half (x, w) of :func:`_half_rule`, by a type-1 NUFFT.

    On a periodic grid of n points over theta in [0, 2 pi), the point x_j
    sits at u_j = gamma n x_j / 2 (mod n), theta_j = kappa_1 x_j, with no
    rounding of pi. Its weight w_j is spread by the kernel at
    z = (p - u_j) / (_SPREAD / 2) onto the _SPREAD grid points p it
    covers, modulo n, a panel of points at a time through two blocks of
    a quarter of ``_BLOCK_BYTES`` each, each panel's ``np.bincount``
    added to the grid. The real part of the grid's ``rfft`` at mode l is
    sum_j w_j cos(l theta_j) times the kernel's Fourier transform at l,
    up to the aliases at l +- n, which the ES kernel keeps near 1e-15
    relative; twice it (the whole rule's two nodes +-x_j) divided by the
    transform (:func:`_deconvolution`) is mu_l. The cosine is even, so
    theta_j may wrap the circle any number of times (16 at gamma = 32).

    The blocks are small, and the per-point arrays are freed before the
    FFT, because each page of the pass's peak above what the rest of a miss
    uses was faulted afresh on every M = 1024 miss of a loop shaped like
    the ``large_array`` benchmark, whose checks between misses shrink
    the heap: with blocks of ``_BLOCK_BYTES`` each and a padded grid
    folded into a copy, about 80 minor faults per miss; 16 as here, the
    pages of the FFT's buffers for the 8192-point grid.
    """
    count = 2 * cfg.M - 1
    size, transform = _deconvolution(count)
    half = _SPREAD // 2
    u = x * (0.5 * cfg.gamma * size)
    np.fmod(u, size, out=u)
    first = np.ceil(u - half)
    offset = np.subtract(first, u, out=u)
    offset /= half  # each point's first z, in [-1, 1 - 1/half)
    first = first.astype(np.intp)
    steps = np.arange(_SPREAD)[:, None]
    shifts = steps / half
    width = max(1, _BLOCK_BYTES // (32 * _SPREAD))
    values, indices = np.empty(width * _SPREAD), np.empty(width * _SPREAD, dtype=np.intp)
    grid = np.zeros(size)
    for start in range(0, x.size, width):  # row m of a panel: each point's m-th grid point
        stop = min(start + width, x.size)
        z = values[:_SPREAD * (stop - start)].reshape(_SPREAD, stop - start)
        index = indices[:z.size].reshape(z.shape)
        np.add(shifts, offset[start:stop], out=z)
        np.multiply(z, z, out=z)
        np.subtract(1.0, z, out=z)
        np.sqrt(z, out=z)
        np.subtract(z, 1.0, out=z)
        np.multiply(z, _BETA, out=z)
        np.exp(z, out=z)
        np.multiply(z, w[start:stop], out=z)
        np.add(steps, first[start:stop], out=index)
        np.bitwise_and(index, size - 1, out=index)
        grid += np.bincount(index.ravel(), z.ravel(), minlength=size)
    del u, offset, first, values, indices
    return 2.0 * np.fft.rfft(grid)[:count].real / transform


def _audit(cfg):
    """The residual audit's Gram form Q at ``cfg``, on a Chebyshev-Gauss
    rule of its own. Q is the Gram with pi J0(kappa_l) replaced by the
    rule's moments mu_l = sum_j w_j cos(kappa_l x_j), l < 2M-1, over the
    whole rule, from the weights of :func:`_half_rule` by a nonuniform
    FFT (:func:`_moments`). The rule is symmetric, so its products of a
    cosine and a sine sum to zero, and Q b equals the lags
    sum_j w_j g(x_j) exp(i kappa_m x_j) of the coefficients b, with g
    sampled on the rule. Never built from J0 or from the Gram's factors,
    Q checks the solve independently.

    The rule's N = ``_bessel_cut``(kappa_{2M-2}) // 2 + 1 nodes make every
    moment exact to rounding. At x_j = cos(t_j), t_j = (2j - 1) pi / (2N),
    Jacobi-Anger gives cos(k cos t) = J0(k) + 2 sum_{n>=1} (-1)^n J_{2n}(k)
    cos(2 n t), and the rule sums cos(2 n t_j) to zero unless N divides
    n, so mu(k) = pi J0(k) + 2 pi sum_{q>=1} (-1)^{q(N+1)} J_{2qN}(k).
    2N passes the cut of the top frequency, so Kapteyn's inequality
    (:func:`core._bessel_cut`) puts |J_{2N}(k)| under 9.6e-18 for every
    k <= kappa_{2M-2}, and each further alias's bound under
    (z / (1 + s))^{2N} times the one before, z = k / 2N, s = sqrt(1 - z^2),
    which is under 1e-88 there: |mu_l - pi J0(kappa_l)| < 6.1e-17.
    Computed with ``scipy.special.jv``, the largest |J_{2N}(kappa_{2M-2})|
    over M <= 16384, gamma in [0.5, 32] is 3.0e-21.
    N is 262 at M = 64 and 3346, 3768 and 4158 at M = 1024 with gamma
    = 1, 1.13 and 1.25, against the summary's 2048 and 4160-5184.

    Q alone is kept with the configuration's Gram, built once per kept
    record; only :func:`recover` reads it.
    """
    tables = _tables(cfg)
    q = tables.get("audit")
    if q is None:
        x, w = _half_rule(_bessel_cut(cfg.kappa(2 * cfg.M - 2)) // 2 + 1)
        q = tables["audit"] = _gram_form(_moments(cfg, x, w))
    return q


def recover(lags, cfg, residual_tol=DEFAULT_RESIDUAL_TOL):
    """Recover the minimum-norm spectrum consistent with ``lags``.

    Feasibility is re-checked independently of the closed-form Gram: the
    lags of the solution by Chebyshev-Gauss quadrature, on the audit's
    own rule (:func:`_audit`), whose node count clears the Bessel
    transition of the top moment frequency, are Q b with Q the Gram of
    that rule. Q depends on the array alone; it is built after the solve
    on a new configuration and kept with the cached Gram. Of a cache miss
    at M = 1024, gamma in [1, 1.25], the Gram with its CG generator takes
    about 62 %, Q about 17 % and the refined solve about 17 %.

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
    y = _gram_product(_audit(cfg), coeffs.b)
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
    +-x_j on the resolution rule (:func:`_rule`), whose node count follows
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
    x, w, table = _rule(cfg)
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

    The grid is the resolution rule (:func:`_rule`), whose node count follows
    the top frequency gamma pi (M-1). g is sampled through the kernel
    table of its half rule: g(+-x_j) = e_j +- o_j over the nodes x_j >= 0,
    with e and o the kernel's even and odd sample parts and the middle
    node of an odd rule counted once. With a = |o| and m = max(|e|, a),
    min(e - a) is the minimum over e +- o, |e + o| + |e - o| = 2 m, and
    the negative parts of e +- o sum to m - e >= 0.
    """
    cfg = solution.cfg
    x, w, table = _rule(cfg)
    even, odd = _exp_samples(table or _exp_table(cfg, x), solution.coeffs.b)
    spread = np.abs(odd)
    peak = np.maximum(np.abs(even), spread)
    grid_min = float((even - spread).min())
    abs_mass = 2.0 * float(w @ peak)
    if abs_mass == 0.0:
        return NegativitySummary(grid_min, 0.0)
    return NegativitySummary(grid_min, float(w @ (peak - even)) / abs_mass)
