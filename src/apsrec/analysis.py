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

from .core import ArrayConfig, _exp_samples, _exp_table, seams_x, transform_aps
from .errors import ModelError, QuadratureError
from .forward import SynthesisOptions, synthesize_lags
from .gram import assemble_gram, measurement_vector, solve
from .quad import weighted_quadrature_points

DEFAULT_ENERGY_NODES = 512
DEFAULT_IDENTIFIABILITY_TOL = 1e-6


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
        energy_truth_refinement: Change in energy_truth when the node
            count doubles; a convergence diagnostic for the one quantity
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


def certify(model, cfg, opts=None, identifiability_tol=DEFAULT_IDENTIFIABILITY_TOL):
    """Run the full pipeline on a ground-truth model and certify the
    reconstruction.

    Args:
        model: L2 spectrum model (point sources carry no energy density
            and raise ModelError).
        cfg: Array configuration.
        opts: Synthesis options; their node count is also the energy
            rule's (the closed-form side needs none). Defaults to
            theta-path synthesis at DEFAULT_ENERGY_NODES.
        identifiability_tol: Relative threshold on error/energy for the
            identifiability verdict. The underlying condition is exact
            subspace membership; the default sits far above quadrature
            noise and far below any genuine model mismatch.

    Raises:
        ModelError: For models without a density.
        ConditioningError: Propagated from Gram assembly.
        QuadratureError: When the squared error is below, or the
            Pythagoras gap above, +-identifiability_tol * energy_truth: the
            quadrature does not resolve the truth, so no verdict is issued.
        ValueError: Unless ``identifiability_tol`` is positive and finite.
    """
    if not 0.0 < identifiability_tol < float("inf"):
        raise ValueError(
            f"identifiability_tol must be positive and finite, got {identifiability_tol!r}")
    if not model.in_l2:
        raise ModelError("certificates need a square-integrable ground truth")
    opts = opts if opts is not None else SynthesisOptions(DEFAULT_ENERGY_NODES)

    lags = synthesize_lags(model, cfg, opts)
    gram = assemble_gram(cfg)
    y = measurement_vector(lags)
    coeffs = solve(gram, y)

    g_true = transform_aps(model)
    seams = seams_x(model)
    points, weights = weighted_quadrature_points(opts.nodes, seams)
    points2, weights2 = weighted_quadrature_points(2 * opts.nodes, seams)
    truth_samples = g_true(points)
    energy_truth = float(weights @ (truth_samples * truth_samples))
    truth_samples2 = g_true(points2)
    energy_refined = float(weights2 @ (truth_samples2 * truth_samples2))

    energy_plv = gram.quadratic_form(coeffs)
    quadratic_form = float(y @ coeffs.b)
    error_sq = energy_truth - quadratic_form

    even, odd = _exp_samples(_exp_table(cfg, points), coeffs.b)
    diff = truth_samples - (even + odd)
    diff_energy = float(weights @ (diff * diff))
    pythagoras_gap = abs(energy_truth - energy_plv - diff_energy)

    floor = identifiability_tol * energy_truth
    if error_sq < -floor or pythagoras_gap > floor:
        raise QuadratureError(
            f"certificate self-check failed for M={cfg.M}, gamma={cfg.gamma:g}: "
            f"reconstruction_error_sq {error_sq:.3e}, pythagoras_gap "
            f"{pythagoras_gap:.3e}, tolerance {floor:.3e}")
    margin = floor - error_sq
    return ErrorCertificate(
        energy_truth=energy_truth,
        energy_plv=energy_plv,
        quadratic_form=quadratic_form,
        reconstruction_error_sq=error_sq,
        pythagoras_gap=pythagoras_gap,
        energy_truth_refinement=energy_refined - energy_truth,
        identifiable=bool(error_sq <= floor),
        margin=margin,
    )


def energy_of_solution(solution):
    """Weighted energy ||g_rec||^2_w of a recovered spectrum, as the Gram
    quadratic form of its coefficients (no quadrature involved).

    Raises:
        ConditioningError: From the shared Gram, when the configuration
            is past the conditioning ceiling (``recover`` rejects such
            configurations too).
    """
    return assemble_gram(solution.cfg).quadratic_form(solution.coeffs)


def resolution_sweep(model, gamma, m_values, **certify_kwargs):
    """Reconstruction error versus antenna count at fixed spacing ratio.

    For fixed gamma the representable subspaces are nested in M, so the
    returned errors are non-increasing; a model representable at order
    M0 drops to quadrature floor for every M >= M0. Each entry is gated
    like :func:`certify`.

    Args:
        model: L2 spectrum model.
        gamma: Spacing ratio shared by all sweep entries.
        m_values: Strictly increasing antenna counts.

    Returns:
        List of (M, reconstruction_error_sq) pairs.
    """
    m_values = [int(m) for m in m_values]
    if any(m < 1 for m in m_values):
        raise ValueError("antenna counts must be positive")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise ValueError("antenna counts must be strictly increasing")
    sweep = []
    for m in m_values:
        certificate = certify(model, ArrayConfig(m, gamma), **certify_kwargs)
        sweep.append((m, certificate.reconstruction_error_sq))
    return sweep
