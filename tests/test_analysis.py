import tracemalloc

import numpy as np
import pytest
import scipy.special
from quad_helpers import reference_energy, reference_lags

from apsrec import analysis
from apsrec.analysis import (
    DEFAULT_IDENTIFIABILITY_TOL,
    _energy_rule,
    certify,
    resolution_sweep,
)
from apsrec.core import (
    ArrayConfig,
    CovarianceLags,
    GaussianMixture,
    LaplacianMixture,
    PointSources,
    TrigCoeffs,
    TrigPolynomial,
    Uniform,
    trig_basis,
)
from apsrec.errors import ModelError, QuadratureError
from apsrec.forward import synthesize_lags
from apsrec.gram import assemble_gram, measurement_vector, solve
from apsrec.plv import PlvSolution, project_onto_nperp, recover
from apsrec.quad import theta_quadrature_points

FULL_RANGE = Uniform(-np.pi / 2, np.pi / 2, 1.0)
GAUSS_CLUSTER = GaussianMixture(components=((0.3, 0.05, 1.0),))


def theta_norm_sq(f, seams=(), nodes=512):
    """Integral of f(theta)^2 over [-pi/2, pi/2], split at ``seams``: the
    weighted energy of g(x) = f(arcsin x)."""
    points, weights = theta_quadrature_points(nodes, seams)
    values = np.asarray(f(points))
    return float(weights @ (values * values))


def random_trig_model(m, rng, gamma=1.0):
    cfg = ArrayConfig(m, gamma)
    b = rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)
    grid = np.linspace(-1.0, 1.0, 2001)
    b[0] += max(0.0, -np.min(trig_basis(cfg, grid) @ b)) + 0.1
    return TrigPolynomial(cfg, TrigCoeffs(b))


def test_uniform_certificate_is_exact():
    certificate = certify(FULL_RANGE, ArrayConfig(4, 1.0))
    # ||1||_w^2 = integral of w = pi, analytically forced
    assert certificate.energy_truth == pytest.approx(np.pi, abs=1e-12)
    assert certificate.quadratic_form == pytest.approx(np.pi, abs=1e-12)
    assert abs(certificate.reconstruction_error_sq) <= 1e-12
    assert certificate.identifiable
    assert certificate.margin > 0


def test_trig_polynomial_certificate_identifiable(rng):
    model = random_trig_model(5, rng)
    certificate = certify(model, model.config)
    assert certificate.reconstruction_error_sq <= 1e-8 * certificate.energy_truth
    assert certificate.identifiable


def test_gaussian_cluster_certificate():
    cfg = ArrayConfig(4, 1.0)
    certificate = certify(GAUSS_CLUSTER, cfg)
    assert certificate.reconstruction_error_sq > 1e-3 * certificate.energy_truth
    assert not certificate.identifiable
    assert certificate.margin < 0
    assert certificate.pythagoras_gap <= 1e-8 * certificate.energy_truth
    # closed-form error against direct quadrature of the difference
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    solution = recover(lags, cfg)
    direct = theta_norm_sq(lambda t: GAUSS_CLUSTER.rho(t) - solution.g(np.sin(t)),
                           GAUSS_CLUSTER.seams_theta())
    assert certificate.reconstruction_error_sq == pytest.approx(direct, rel=1e-8)


def test_certificate_energy_refinement_small_for_smooth_models():
    certificate = certify(GAUSS_CLUSTER, ArrayConfig(4, 1.0))
    assert abs(certificate.energy_truth_refinement) <= 1e-10 * certificate.energy_truth


def test_laplacian_certificate_seam_handling():
    # The kink at the component mean would wreck a single fixed rule; the
    # seam-aware engine keeps the identity tight.
    model = LaplacianMixture(components=((0.25, 0.1, 1.0),))
    certificate = certify(model, ArrayConfig(4, 1.0))
    assert certificate.pythagoras_gap <= 1e-8 * certificate.energy_truth
    assert certificate.reconstruction_error_sq >= -1e-8 * certificate.energy_truth


def test_certify_rejects_point_sources():
    with pytest.raises(ModelError):
        certify(PointSources(sources=((0.0, 1.0),)), ArrayConfig(3, 1.0))


CERTIFIED_TRUTHS = [
    Uniform(-0.6, 0.2, 1.4),
    GAUSS_CLUSTER,
    LaplacianMixture(components=((0.25, 0.08, 1.0),)),
    TrigPolynomial(ArrayConfig(3, 1.0), TrigCoeffs(np.array([1.0, 0.4, -0.2, 0.3, 0.1]))),
    Uniform(-0.3, 0.3, 0.5) + GaussianMixture(components=((0.5, 0.1, 1.0),)),
]


@pytest.mark.parametrize("m", [1, 8, 64, 256])
@pytest.mark.parametrize("model", CERTIFIED_TRUTHS, ids=lambda m: type(m).__name__)
def test_certificate_matches_dense_forms(model, m):
    # Lags by the reference rule's dense exp table and the Pythagoras term
    # by the dense trig_basis table on the certificate's own rule give
    # the same certificate to rounding, and every one of these truths
    # certifies, M = 256 included, where the former 512-node synthesis
    # rule failed the self-checks.
    cfg = ArrayConfig(m, 1.0)
    gram = assemble_gram(cfg)
    y = measurement_vector(CovarianceLags(reference_lags(model, cfg)))
    coeffs = solve(gram, y)
    points, weights = _energy_rule(model, cfg)
    truth = model.rho(points)
    energy = float(weights @ (truth * truth))
    diff = truth - trig_basis(cfg, np.sin(points)) @ coeffs.b
    gap = abs(energy - gram.quadratic_form(coeffs) - float(weights @ (diff * diff)))
    certificate = certify(model, cfg)
    assert certificate.energy_truth == energy
    assert abs(certificate.quadratic_form - float(y @ coeffs.b)) <= 1e-12 * energy
    assert abs(certificate.energy_plv - gram.quadratic_form(coeffs)) <= 1e-12 * energy
    assert abs(certificate.pythagoras_gap - gap) <= 1e-12 * energy


TWO_GAUSSIANS = GaussianMixture(components=((0.3, 0.05, 1.0), (-0.4, 0.1, 0.7)))
NARROW = GaussianMixture(components=((0.2, 3e-3, 1.0),))


@pytest.mark.parametrize("m", [64, 128, 256, 512])
def test_two_gaussian_certificate_is_exact(m):
    # With exact lags the energy rule leaves err_sq and the gap at
    # rounding. The former 512-node synthesis rule read err_sq -13.9 and
    # a gap of 27.9 at M = 256.
    certificate = certify(TWO_GAUSSIANS, ArrayConfig(m, 1.0))
    floor = 1e-10 * certificate.energy_truth
    assert abs(certificate.reconstruction_error_sq) <= floor
    assert certificate.pythagoras_gap <= floor
    assert certificate.identifiable


VERY_NARROW = GaussianMixture(components=((0.2, 1e-3, 1.0),))
EDGE_GAUSSIAN = GaussianMixture(components=((1.5, 0.05, 1.0),))


@pytest.mark.parametrize("model,m,gamma", [
    (TWO_GAUSSIANS, 1024, 1.25),
    (VERY_NARROW, 8, 1.0),
    (VERY_NARROW, 512, 1.0),
    (NARROW, 8, 1.0),
    (NARROW, 64, 1.0),
    (NARROW, 256, 1.0),
    (EDGE_GAUSSIAN, 64, 1.0),
    (EDGE_GAUSSIAN, 256, 1.0),
    (LaplacianMixture(components=((0.25, 0.08, 1.0),)), 512, 1.0),
], ids=["two-gaussian-1024-1.25", "std-1e-3-8", "std-1e-3-512", "std-3e-3-8",
        "std-3e-3-64", "std-3e-3-256", "edge-gaussian-64", "edge-gaussian-256",
        "laplacian-512"])
def test_energy_rule_resolves_the_truth(model, m, gamma):
    # Each of these raised QuadratureError under the former fixed
    # 512-node energy rule, or certified the Laplacian with a gap of
    # 1.9e-10 E. The rule that follows from the array and the model leaves
    # every self-check at rounding, and its energy meets an independent
    # composite rule.
    certificate = certify(model, ArrayConfig(m, gamma))
    energy = certificate.energy_truth
    floor = 1e-10 * energy
    assert certificate.pythagoras_gap <= floor
    assert abs(certificate.energy_truth_refinement) <= floor
    assert certificate.reconstruction_error_sq >= -floor
    assert abs(energy - reference_energy(model)) <= 1e-12 * energy


@pytest.mark.parametrize("std", [1e-6, 1e-8, 1e-9])
def test_certificate_of_a_peak_at_the_edge(std):
    # A Gaussian one std inside pi/2. Sampled as rho(arcsin x) at x = sin
    # theta, the peak was lost to rounding near x = 1: stds 1e-6 and 1e-8
    # failed the self-checks, and 1e-9 certified an energy 131 % off. The
    # rule samples rho in theta, and the energy meets the closed form
    # integral of rho^2, (erf(t_hi) + erf(t_lo)) / (4 std sqrt(pi)) with
    # t = (pi/2 -+ mean)/std over the float interval.
    mean = np.pi / 2 - std
    model = GaussianMixture(components=((mean, std, 1.0),))
    certificate = certify(model, ArrayConfig(8, 1.0))
    t_hi, t_lo = (np.pi / 2 - mean) / std, (np.pi / 2 + mean) / std
    exact = (scipy.special.erf(t_hi) + scipy.special.erf(t_lo)) / (4.0 * std * np.sqrt(np.pi))
    assert abs(certificate.energy_truth - exact) <= 1e-7 * exact


def test_trig_polynomial_certificate_builds_no_dense_table(rng):
    # At (M, gamma) = (1024, 1) the dense trig_basis table of the truth on
    # the energy rule peaked at 1053 MB; the kernel's tables stay within
    # the cap's split form.
    model = random_trig_model(1024, rng)
    tracemalloc.start()
    try:
        certificate = certify(model, model.config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert certificate.identifiable


def test_unresolved_certificate_raises(monkeypatch):
    # Panels of pi/8 whatever the array leave the gap integrand's top
    # frequency unresolved at M = 256: the Pythagoras gap fails the
    # self-check, so certify raises, and so does a sweep that reaches such
    # an M. The rule that follows from the array certifies.
    cfg = ArrayConfig(256, 1.0)
    certificate = certify(NARROW, cfg)
    monkeypatch.setattr(analysis, "_PANEL_PERIODS", 1e4)
    with pytest.raises(QuadratureError, match="M=256"):
        certify(NARROW, cfg)
    with pytest.raises(QuadratureError):
        resolution_sweep(NARROW, 1.0, [64, 256])
    monkeypatch.undo()
    floor = DEFAULT_IDENTIFIABILITY_TOL * certificate.energy_truth
    assert certificate.reconstruction_error_sq >= -floor
    assert certificate.pythagoras_gap <= floor
    sweep = resolution_sweep(NARROW, 1.0, [64, 256])
    assert sweep[-1][1] == certificate.reconstruction_error_sq


def test_unsettled_refinement_raises(monkeypatch):
    # Peak panels of 20 std leave the square of a narrow peak
    # unresolved: at M = 8 the gap (1.5e-9 E) and err_sq pass the
    # self-checks, but halving every panel moves the energy by 6.9e-5 E,
    # so certify raises on the refinement alone.
    cfg = ArrayConfig(8, 1.0)
    monkeypatch.setattr(analysis, "_PEAK_PANEL_STDS", 20.0)
    loose = certify(NARROW, cfg, identifiability_tol=1e-3)
    floor = DEFAULT_IDENTIFIABILITY_TOL * loose.energy_truth
    assert loose.pythagoras_gap <= floor
    assert loose.reconstruction_error_sq >= -floor
    assert abs(loose.energy_truth_refinement) > floor
    with pytest.raises(QuadratureError, match="energy_truth_refinement"):
        certify(NARROW, cfg)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-6])
def test_certify_rejects_unusable_tolerance(tol):
    # NaN turned the self-check gate off (a certificate at M = 256 with
    # error_sq -11.28 and margin nan), inf made every model identifiable,
    # and 0 or less raised a QuadratureError that blamed the quadrature.
    with pytest.raises(ValueError, match="identifiability_tol"):
        certify(GAUSS_CLUSTER, ArrayConfig(256, 1.0), identifiability_tol=tol)
    with pytest.raises(ValueError, match="identifiability_tol"):
        resolution_sweep(GAUSS_CLUSTER, 1.0, [2, 4], identifiability_tol=tol)


def test_error_nonnegative_up_to_noise(rng):
    models = [FULL_RANGE, GAUSS_CLUSTER, Uniform(-0.4, 0.3, 2.0), random_trig_model(4, rng)]
    for model in models:
        certificate = certify(model, ArrayConfig(5, 1.0))
        assert certificate.reconstruction_error_sq >= -1e-8 * certificate.energy_truth


class TestEnergyOfSolution:
    """A solution's weighted energy as the Gram's quadratic form of its
    coefficients."""

    def make_solution(self, b, m, gamma=1.0):
        return PlvSolution(TrigCoeffs(np.asarray(b, dtype=float)), 0.0, ArrayConfig(m, gamma))

    @staticmethod
    def energy(solution):
        return assemble_gram(solution.cfg).quadratic_form(solution.coeffs)

    def test_zero(self):
        assert self.energy(self.make_solution(np.zeros(5), 3)) == 0.0

    def test_constant_energy_is_pi(self):
        solution = self.make_solution([1.0, 0, 0, 0, 0], 3)
        assert self.energy(solution) == pytest.approx(np.pi, abs=1e-13)

    def test_matches_quadrature(self, rng):
        cfg = ArrayConfig(6, 1.0)
        b = rng.uniform(-1, 1, 2 * cfg.M - 1)
        solution = self.make_solution(b, 6)
        direct = theta_norm_sq(lambda t: solution.g(np.sin(t)))
        assert self.energy(solution) == pytest.approx(direct, rel=1e-9)


def test_energy_identity_for_recovered_solutions(rng):
    from apsrec.gram import assemble_gram, measurement_vector, solve
    models = [FULL_RANGE, GAUSS_CLUSTER, random_trig_model(6, rng)]
    for model in models:
        cfg = ArrayConfig(6, 1.0)
        lags = synthesize_lags(model, cfg)
        gram = assemble_gram(cfg)
        y = measurement_vector(lags)
        b = solve(gram, y)
        quad_form = gram.quadratic_form(b)
        cross = float(y @ b.b)
        assert abs(quad_form - cross) <= 1e-10 * (1.0 + quad_form)


def test_identifiability_agrees_with_subspace_membership(rng):
    # The verdict and the projection-residual test are two routes to the
    # same membership question; they must agree on every model.
    cases = [
        (FULL_RANGE, True),
        (random_trig_model(4, rng), True),
        (GAUSS_CLUSTER, False),
        (Uniform(-0.4, 0.6, 1.0), False),
    ]
    cfg = ArrayConfig(4, 1.0)
    tol = 1e-6
    for model, expected in cases:
        certificate = certify(model, cfg, identifiability_tol=tol)
        coeffs = project_onto_nperp(model, cfg)
        seams = model.seams_theta()
        residual_sq = theta_norm_sq(
            lambda t: model.rho(t) - trig_basis(cfg, np.sin(t)) @ coeffs.b, seams)
        membership = residual_sq <= tol * theta_norm_sq(model.rho, seams)
        assert certificate.identifiable == membership == expected


class TestResolutionSweep:
    def test_trig_truth_crosses_at_its_order(self, rng):
        model = random_trig_model(3, rng)
        sweep = resolution_sweep(model, 1.0, [1, 2, 3, 4, 5, 6])
        energy = certify(model, ArrayConfig(3, 1.0)).energy_truth
        for m, error in sweep:
            if m < 3:
                assert error > 1e-8 * energy
            else:
                assert error <= 1e-8 * energy

    def test_uniform_always_exact(self):
        sweep = resolution_sweep(FULL_RANGE, 1.0, [1, 3, 5])
        for _, error in sweep:
            assert abs(error) <= 1e-10

    def test_gaussian_errors_positive_and_non_increasing(self):
        sweep = resolution_sweep(GAUSS_CLUSTER, 1.0, [2, 4, 8, 16])
        errors = [error for _, error in sweep]
        assert all(error > 0 for error in errors)
        for previous, current in zip(errors, errors[1:]):
            assert current <= previous + 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            resolution_sweep(FULL_RANGE, 1.0, [4, 2])
        with pytest.raises(ValueError):
            resolution_sweep(FULL_RANGE, 1.0, [0, 2])
        # int() truncated these to sweeps at M = 2, 4 and M = 1, 4.
        for m_values in ([2.9, 4.5], [True, 4], [2, np.float64(4.0)]):
            with pytest.raises(ValueError, match="antenna count"):
                resolution_sweep(FULL_RANGE, 1.0, m_values)

    def test_returns_pairs(self):
        sweep = resolution_sweep(FULL_RANGE, 1.0, [2, 4])
        assert [m for m, _ in sweep] == [2, 4]
