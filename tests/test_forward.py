import numpy as np
import pytest

from apsrec.core import (
    ArrayConfig,
    GaussianMixture,
    LaplacianMixture,
    PointSources,
    SpectrumSum,
    TrigCoeffs,
    TrigPolynomial,
    Uniform,
    toeplitz_from_lags,
)
from apsrec.forward import SynthesisOptions, synthesize_lags
from apsrec.gram import gram_blocks
from apsrec.quad import weighted_quadrature_points

PI_J0_PI = -0.9558049901987985  # frozen via the Bessel quadrature oracle

FULL_RANGE = Uniform(-np.pi / 2, np.pi / 2, 1.0)


def lags_by_dense_quadrature(model, cfg, nodes=2048):
    """Reference synthesis at high resolution, straight from the weighted
    Fourier definition."""
    from apsrec.core import seams_x, transform_aps

    points, weights = weighted_quadrature_points(nodes, seams_x(model))
    samples = weights * transform_aps(model)(points)
    return np.exp(1j * np.multiply.outer(cfg.kappas(cfg.M), points)) @ samples


def test_uniform_full_range_lags():
    cfg = ArrayConfig(2, 1.0)
    lags = synthesize_lags(FULL_RANGE, cfg, SynthesisOptions(nodes=512))
    assert lags.r[0] == pytest.approx(np.pi, abs=1e-13)
    assert lags.r[1].real == pytest.approx(PI_J0_PI, abs=1e-12)
    assert lags.r[1].imag == pytest.approx(0.0, abs=1e-13)


def test_zero_height_model_gives_zero_lags():
    lags = synthesize_lags(Uniform(-0.5, 0.5, 0.0), ArrayConfig(3, 1.0))
    assert np.array_equal(lags.r, np.zeros(3))


def test_point_source_at_broadside():
    lags = synthesize_lags(PointSources(sources=((0.0, 1.0),)), ArrayConfig(5, 1.0))
    assert np.array_equal(lags.r, np.ones(5))


def test_point_source_phases_exact():
    angle, power = 0.4, 2.0
    cfg = ArrayConfig(4, 1.3)
    lags = synthesize_lags(PointSources(sources=((angle, power),)), cfg)
    expected = power * np.exp(1j * cfg.kappas(4) * np.sin(angle))
    expected[0] = expected[0].real
    assert np.array_equal(lags.r, expected)


def test_trig_polynomial_lags_equal_gram_product():
    # The lag map restricted to the trigonometric subspace IS the Gram
    # matrix: Re r = G_re @ cos-part, Im r[1:] = G_im @ sin-part.
    cfg = ArrayConfig(3, 1.0)
    b = TrigCoeffs(np.array([0.8, -0.3, 0.2, 0.5, -0.1]))
    model = TrigPolynomial(cfg, b)
    lags = synthesize_lags(model, cfg, SynthesisOptions(nodes=512))
    g_re, g_im = gram_blocks(cfg)
    expected_re = g_re @ np.concatenate([[b.constant], b.cos_block])
    expected_im = g_im @ b.sin_block
    assert np.allclose(lags.r.real, expected_re, atol=1e-12)
    assert np.allclose(lags.r[1:].imag, expected_im, atol=1e-12)


MODELS = [
    FULL_RANGE,
    Uniform(-0.7, 0.4, 1.5),
    GaussianMixture(components=((0.3, 0.05, 1.0),)),
    GaussianMixture(components=((0.2, 0.1, 1.0), (-0.6, 0.2, 0.5))),
    LaplacianMixture(components=((0.25, 0.08, 1.0),)),
    SpectrumSum((Uniform(-0.3, 0.3, 0.5), GaussianMixture(components=((0.5, 0.1, 1.0),)))),
    TrigPolynomial(ArrayConfig(3, 1.0), TrigCoeffs(np.array([1.0, 0.4, -0.2, 0.3, 0.1]))),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_path_equivalence(model):
    cfg = ArrayConfig(6, 1.0)
    theta = synthesize_lags(model, cfg, SynthesisOptions(nodes=256, domain_path="theta"))
    x = synthesize_lags(model, cfg, SynthesisOptions(nodes=256, domain_path="x"))
    scale = max(np.max(np.abs(theta.r)), 1e-30)
    assert np.max(np.abs(theta.r - x.r)) / scale <= 1e-9


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_convergence_to_dense_reference(model):
    cfg = ArrayConfig(6, 1.0)
    lags = synthesize_lags(model, cfg, SynthesisOptions(nodes=512))
    reference = lags_by_dense_quadrature(model, cfg)
    assert np.max(np.abs(lags.r - reference)) <= 1e-9 * max(1.0, np.max(np.abs(reference)))


def test_linearity_of_sum():
    cfg = ArrayConfig(5, 1.0)
    first = GaussianMixture(components=((0.2, 0.1, 1.0),))
    second = Uniform(-0.5, 0.1, 0.7)
    opts = SynthesisOptions(nodes=256)
    combined = synthesize_lags(first + second, cfg, opts)
    separate = synthesize_lags(first, cfg, opts).r + synthesize_lags(second, cfg, opts).r
    assert np.max(np.abs(combined.r - separate)) <= 1e-12


def test_mixed_sum_with_point_sources():
    cfg = ArrayConfig(4, 1.0)
    atoms = PointSources(sources=((0.3, 0.5), (-0.2, 1.5)))
    density = GaussianMixture(components=((0.0, 0.2, 1.0),))
    combined = synthesize_lags(atoms + density, cfg)
    separate = synthesize_lags(atoms, cfg).r + synthesize_lags(density, cfg).r
    assert np.max(np.abs(combined.r - separate)) <= 1e-14


def test_imaginary_r0_exactly_zero():
    for model in MODELS:
        lags = synthesize_lags(model, ArrayConfig(4, 1.0))
        assert lags.r[0].imag == 0.0


def test_conjugate_symmetry_via_hermitian_covariance():
    cfg = ArrayConfig(5, 1.0)
    lags = synthesize_lags(GaussianMixture(components=((0.4, 0.15, 1.0),)), cfg)
    matrix = toeplitz_from_lags(lags)
    assert np.array_equal(matrix, matrix.conj().T)


def test_covariance_of_uniform_has_pi_diagonal():
    lags = synthesize_lags(FULL_RANGE, ArrayConfig(3, 1.0), SynthesisOptions(nodes=512))
    matrix = toeplitz_from_lags(lags)
    assert np.allclose(np.diag(matrix), np.pi, atol=1e-12)


def test_covariance_zero_model():
    matrix = toeplitz_from_lags(synthesize_lags(Uniform(-0.5, 0.5, 0.0), ArrayConfig(3, 1.0)))
    assert np.array_equal(matrix, np.zeros((3, 3)))


def test_point_source_covariance_is_rank_one():
    angle, power = 0.25, 1.7
    cfg = ArrayConfig(4, 1.0)
    matrix = toeplitz_from_lags(synthesize_lags(PointSources(sources=((angle, power),)), cfg))
    steering = np.exp(1j * cfg.kappas(4) * np.sin(angle))
    assert np.allclose(matrix, power * np.outer(steering, steering.conj()), atol=1e-15)
    eigenvalues = np.linalg.eigvalsh(matrix)
    assert eigenvalues[-1] == pytest.approx(power * cfg.M, rel=1e-14)
    assert np.all(np.abs(eigenvalues[:-1]) <= 1e-12)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_covariance_positive_semidefinite(model):
    matrix = toeplitz_from_lags(synthesize_lags(model, ArrayConfig(6, 1.0)))
    eigenvalues = np.linalg.eigvalsh(matrix)
    assert eigenvalues[0] >= -1e-9 * np.trace(matrix).real


def test_options_validation():
    with pytest.raises(ValueError):
        SynthesisOptions(nodes=8)
    with pytest.raises(ValueError):
        SynthesisOptions(domain_path="frequency")
    with pytest.raises(TypeError):
        synthesize_lags("not a model", ArrayConfig(2, 1.0))
