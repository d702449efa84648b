"""Reconstruction certificates: exact energy accounting, closed-form
reconstruction error, identifiability verdicts, and resolution sweeps
over the array size.

The load-bearing facts: the recovered spectrum's weighted energy equals
the quadratic form y^T G^{-1} y of the measurements, the true energy
splits orthogonally into recovered energy plus squared error, and the
error is zero exactly when the truth lies in the array's trigonometric
subspace. Everything here is the numerical realization of those
identities, with independent quadrature on one side and closed forms on
the other.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    HALF_PI,
    ArrayConfig,
    TrigPolynomial,
    _count,
    _exp_samples,
    _exp_table,
    _leaves,
    _Mixture,
)
from .errors import ModelError, QuadratureError
from .forward import synthesize_lags
from .gram import assemble_gram, measurement_vector, solve
# weighted_quadrature_points is not called here: perfbench's tracer wraps
# it as the quadrature layer, so it stays a module attribute.
from .quad import theta_quadrature_points, weighted_quadrature_points  # noqa: F401

DEFAULT_IDENTIFIABILITY_TOL = 1e-6

# The certificate's energy rule: 32-node Gauss-Legendre panels in theta
# no wider than min(24/kappa, pi/8), with kappa the top frequency of the
# array or of a trigonometric polynomial term, edges at the model's seams,
# and panels no wider than 2 std within 10 std of each mixture peak's
# mean. A panel of 24/kappa spans about 7.6 periods of the gap
# integrand's top frequency 2 kappa, which 32 nodes integrate to
# rounding; 48/kappa left errors near 1e-10 E.
_PANEL_NODES = 32
_PANEL_PERIODS = 24.0
_WINDOW_STDS = 10.0
_PEAK_PANEL_STDS = 2.0


def _energy_rule(model, cfg, split=1):
    """(points, weights) in theta of the energy rule for ``model`` under
    ``cfg``, with every panel cut into ``split``: one Gauss-Legendre panel
    between consecutive edges, for integrals of rho(theta)^2 d theta."""
    kappa = cfg.kappa(cfg.M - 1)
    peaks = []
    for leaf in _leaves(model):
        if isinstance(leaf, TrigPolynomial):
            kappa = max(kappa, leaf.config.kappa(leaf.config.M - 1))
        elif isinstance(leaf, _Mixture):
            peaks.extend(component[:2] for component in leaf.components)
    widest = min(np.pi / 8, _PANEL_PERIODS / kappa) if kappa > 0 else np.pi / 8
    mean, std = np.array(peaks, dtype=np.float64).reshape(-1, 2).T
    lo = np.maximum(mean - _WINDOW_STDS * std, -HALF_PI)
    hi = np.minimum(mean + _WINDOW_STDS * std, HALF_PI)
    edges = np.unique(np.concatenate(([-HALF_PI, HALF_PI], model.seams_theta(), lo, hi)))
    length, mid = np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    inside = (lo[:, None] <= mid) & (mid <= hi[:, None])
    width = np.min(np.where(inside, _PEAK_PANEL_STDS * std[:, None], np.inf),
                   axis=0, initial=widest)
    count = split * np.ceil(length / width).astype(np.int64)
    first = np.repeat(np.cumsum(count) - count, count)
    step = np.arange(count.sum()) - first
    cuts = np.repeat(edges[:-1], count) + step * np.repeat(length / count, count)
    return theta_quadrature_points(_PANEL_NODES, cuts[1:])


@dataclass(frozen=True)
class ErrorCertificate:
    """Energy accounting for one (model, array) pair.

    Attributes:
        energy_truth: ||g_true||^2_w by quadrature.
        energy_plv: ||g_rec||^2_w as the Gram quadratic form b^T G b.
        quadratic_form: y^T G^{-1} y, evaluated stably as y^T b.
        reconstruction_error_sq: energy_truth - quadratic_form, the exact
            squared recovery error; nonnegative up to quadrature noise.
        pythagoras_gap: Absolute defect of the orthogonal split
            energy_truth = energy_plv + ||g_true - g_rec||^2_w, with the
            difference norm by independent quadrature.
        energy_truth_refinement: Change in energy_truth when every panel
            of its rule is halved; a convergence check on the one quantity
            with no closed form.
        identifiable: True when the error is negligible against the
            energy, i.e. the model lies in the representable subspace.
        margin: identifiability_tol * energy_truth - reconstruction_error_sq
            (positive for identifiable verdicts).
    """

    energy_truth: float
    energy_plv: float
    quadratic_form: float
    reconstruction_error_sq: float
    pythagoras_gap: float
    energy_truth_refinement: float
    identifiable: bool
    margin: float


def certify(model, cfg, identifiability_tol=DEFAULT_IDENTIFIABILITY_TOL):
    """Run the full pipeline on a ground-truth model and certify the
    reconstruction.

    The lags and the quadratic form are exact. The truth's energy and the
    Pythagoras term come from an independent composite Gauss-Legendre rule
    in theta whose panels follow from the array's top frequency, the
    model's seams and its peak widths; the refinement reruns the energy
    with every panel halved.

    Args:
        model: L2 spectrum model (point sources carry no energy density
            and raise ModelError).
        cfg: Array configuration.
        identifiability_tol: Relative threshold on error/energy for the
            identifiability verdict. The underlying condition is exact
            subspace membership; the default sits far above quadrature
            noise and far below any genuine model mismatch.

    Raises:
        ModelError: For models without a density.
        ConditioningError: Propagated from Gram assembly.
        QuadratureError: When the squared error is below, or the
            Pythagoras gap or the refinement's size above,
            +-identifiability_tol * energy_truth: the quadrature does not
            resolve the truth, so no verdict is issued.
        ValueError: Unless ``identifiability_tol`` is positive and finite.
    """
    if not 0.0 < identifiability_tol < float("inf"):
        raise ValueError(
            f"identifiability_tol must be positive and finite, got {identifiability_tol!r}")
    if not model.in_l2:
        raise ModelError("certificates need a square-integrable ground truth")

    lags = synthesize_lags(model, cfg)
    gram = assemble_gram(cfg)
    y = measurement_vector(lags)
    coeffs = solve(gram, y)

    points, weights = _energy_rule(model, cfg)
    points2, weights2 = _energy_rule(model, cfg, split=2)
    truth_samples = model.rho(points)
    energy_truth = float(weights @ (truth_samples * truth_samples))
    truth_samples2 = model.rho(points2)
    refinement = float(weights2 @ (truth_samples2 * truth_samples2)) - energy_truth

    energy_plv = gram.quadratic_form(coeffs)
    quadratic_form = float(y @ coeffs.b)
    error_sq = energy_truth - quadratic_form

    even, odd = _exp_samples(_exp_table(cfg, np.sin(points)), coeffs.b)
    diff = truth_samples - (even + odd)
    diff_energy = float(weights @ (diff * diff))
    pythagoras_gap = abs(energy_truth - energy_plv - diff_energy)

    floor = identifiability_tol * energy_truth
    if error_sq < -floor or pythagoras_gap > floor or abs(refinement) > floor:
        raise QuadratureError(
            f"certificate self-check failed for M={cfg.M}, gamma={cfg.gamma:g}: "
            f"reconstruction_error_sq {error_sq:.3e}, pythagoras_gap "
            f"{pythagoras_gap:.3e}, energy_truth_refinement {refinement:.3e}, "
            f"tolerance {floor:.3e}")
    margin = floor - error_sq
    return ErrorCertificate(
        energy_truth=energy_truth,
        energy_plv=energy_plv,
        quadratic_form=quadratic_form,
        reconstruction_error_sq=error_sq,
        pythagoras_gap=pythagoras_gap,
        energy_truth_refinement=refinement,
        identifiable=bool(error_sq <= floor),
        margin=margin,
    )


def resolution_sweep(model, gamma, m_values, identifiability_tol=DEFAULT_IDENTIFIABILITY_TOL):
    """Reconstruction error versus antenna count at fixed spacing ratio.

    For fixed gamma the representable subspaces are nested in M, so the
    returned errors are non-increasing; a model representable at order
    M0 drops to quadrature floor for every M >= M0. Each entry is gated
    like :func:`certify`, whose rule follows each M.

    Args:
        model: L2 spectrum model.
        gamma: Spacing ratio shared by all sweep entries.
        m_values: Strictly increasing antenna counts.
        identifiability_tol: Passed to each :func:`certify`.

    Returns:
        List of (M, reconstruction_error_sq) pairs.
    """
    m_values = [_count(m, 1, "antenna count") for m in m_values]
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise ValueError("antenna counts must be strictly increasing")
    sweep = []
    for m in m_values:
        certificate = certify(model, ArrayConfig(m, gamma), identifiability_tol)
        sweep.append((m, certificate.reconstruction_error_sq))
    return sweep
