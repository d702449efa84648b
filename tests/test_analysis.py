import numpy as np
import pytest
from quad_helpers import reference_lags

from apsrec.analysis import (
    DEFAULT_IDENTIFIABILITY_TOL,
    certify,
    energy_of_solution,
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
    evaluate_trig,
    seams_x,
    transform_aps,
)
from apsrec.errors import ModelError, QuadratureError
from apsrec.forward import synthesize_lags
from apsrec.gram import assemble_gram, measurement_vector, solve
from apsrec.plv import PlvSolution, project_onto_nperp, recover
from apsrec.quad import weighted_quadrature_points

FULL_RANGE = Uniform(-np.pi / 2, np.pi / 2, 1.0)
GAUSS_CLUSTER = GaussianMixture(components=((0.3, 0.05, 1.0),))


def weighted_norm_sq(f, seams=(), nodes=512):
    points, weights = weighted_quadrature_points(nodes, seams)
    values = np.asarray(f(points))
    return float(weights @ (values * values))


def random_trig_model(m, rng, gamma=1.0):
    cfg = ArrayConfig(m, gamma)
    b = rng.uniform(-1.0, 1.0, cfg.n_coeffs)
    grid = np.linspace(-1.0, 1.0, 2001)
    from apsrec.core import evaluate_trig
    b[0] += max(0.0, -np.min(evaluate_trig(cfg, TrigCoeffs(b), grid))) + 0.1
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
    g_true = transform_aps(GAUSS_CLUSTER)
    direct = weighted_norm_sq(lambda x: g_true(x) - solution.g(x), seams_x(GAUSS_CLUSTER))
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
    # by evaluate_trig's dense basis give the same certificate to rounding,
    # and every one of these truths certifies, M = 256 included, where the
    # former 512-node synthesis rule failed the self-checks.
    cfg = ArrayConfig(m, 1.0)
    gram = assemble_gram(cfg)
    y = measurement_vector(CovarianceLags(reference_lags(model, cfg)))
    coeffs = solve(gram, y)
    points, weights = weighted_quadrature_points(512, seams_x(model))
    truth = transform_aps(model)(points)
    energy = float(weights @ (truth * truth))
    diff = truth - evaluate_trig(cfg, coeffs, points)
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
    # With exact lags the default 512-node energy rule leaves err_sq and
    # the gap at rounding (at most 5.3e-15 against E = 7.02). The former
    # 512-node synthesis rule read err_sq -13.9 and a gap of 27.9 at
    # M = 256.
    certificate = certify(TWO_GAUSSIANS, ArrayConfig(m, 1.0))
    floor = 1e-10 * certificate.energy_truth
    assert abs(certificate.reconstruction_error_sq) <= floor
    assert certificate.pythagoras_gap <= floor
    assert certificate.identifiable


def test_unresolved_certificate_raises():
    # A 512-node energy rule does not resolve a std of 3e-3: the
    # Pythagoras gap fails the self-check at every M, so certify raises,
    # and so does a sweep that reaches such an M. A rule that resolves it
    # certifies.
    cfg = ArrayConfig(256, 1.0)
    with pytest.raises(QuadratureError, match="M=256"):
        certify(NARROW, cfg)
    with pytest.raises(QuadratureError):
        resolution_sweep(NARROW, 1.0, [64, 256])
    certificate = certify(NARROW, cfg, nodes=8192)
    floor = DEFAULT_IDENTIFIABILITY_TOL * certificate.energy_truth
    assert certificate.reconstruction_error_sq >= -floor
    assert certificate.pythagoras_gap <= floor
    sweep = resolution_sweep(NARROW, 1.0, [64, 256], nodes=8192)
    assert sweep[-1][1] == certificate.reconstruction_error_sq


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-6])
def test_certify_rejects_unusable_tolerance(tol):
    # NaN turned the self-check gate off (a certificate at M = 256 with
    # error_sq -11.28 and margin nan), inf made every model identifiable,
    # and 0 or less raised a QuadratureError that blamed the quadrature.
    with pytest.raises(ValueError, match="identifiability_tol"):
        certify(GAUSS_CLUSTER, ArrayConfig(256, 1.0), identifiability_tol=tol)
    with pytest.raises(ValueError, match="identifiability_tol"):
        resolution_sweep(GAUSS_CLUSTER, 1.0, [2, 4], identifiability_tol=tol)


def test_certify_takes_energy_nodes():
    # One node count per call, for the energy rule only.
    model, cfg = LaplacianMixture(components=((0.25, 0.08, 1.0),)), ArrayConfig(4, 1.0)
    g = transform_aps(model)
    for nodes in (300, 512, 1024):
        certificate = certify(model, cfg, nodes=nodes)
        assert certificate.energy_truth == weighted_norm_sq(g, seams_x(model), nodes)
    assert certify(model, cfg) == certify(model, cfg, nodes=512)


def test_error_nonnegative_up_to_noise(rng):
    models = [FULL_RANGE, GAUSS_CLUSTER, Uniform(-0.4, 0.3, 2.0), random_trig_model(4, rng)]
    for model in models:
        certificate = certify(model, ArrayConfig(5, 1.0))
        assert certificate.reconstruction_error_sq >= -1e-8 * certificate.energy_truth


class TestEnergyOfSolution:
    def make_solution(self, b, m, gamma=1.0):
        return PlvSolution(TrigCoeffs(np.asarray(b, dtype=float)), 0.0, ArrayConfig(m, gamma))

    def test_zero(self):
        assert energy_of_solution(self.make_solution(np.zeros(5), 3)) == 0.0

    def test_constant_energy_is_pi(self):
        solution = self.make_solution([1.0, 0, 0, 0, 0], 3)
        assert energy_of_solution(solution) == pytest.approx(np.pi, abs=1e-13)

    def test_matches_quadrature(self, rng):
        cfg = ArrayConfig(6, 1.0)
        b = rng.uniform(-1, 1, cfg.n_coeffs)
        solution = self.make_solution(b, 6)
        direct = weighted_norm_sq(solution.g)
        assert energy_of_solution(solution) == pytest.approx(direct, rel=1e-9)


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
        g_true = transform_aps(model)
        from apsrec.core import evaluate_trig
        residual_sq = weighted_norm_sq(
            lambda x: g_true(x) - evaluate_trig(cfg, coeffs, x), seams_x(model)
        )
        membership = residual_sq <= tol * weighted_norm_sq(g_true, seams_x(model))
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

    def test_returns_pairs(self):
        sweep = resolution_sweep(FULL_RANGE, 1.0, [2, 4])
        assert [m for m, _ in sweep] == [2, 4]
