import tracemalloc

import numpy as np
import pytest
from quad_helpers import dense_exp_sum, dense_synthesis

from apsrec.core import (
    ArrayConfig,
    Domain,
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


@pytest.mark.parametrize("m", [1, 8, 64, 256])
@pytest.mark.parametrize("path", ["theta", "x"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_kernel_synthesis_matches_dense_exp_table(model, path, m):
    # The same sums as one dense np.exp table per rule, to rounding.
    cfg = ArrayConfig(m, 1.0)
    lags = synthesize_lags(model, cfg, SynthesisOptions(domain_path=path))
    dense = dense_synthesis(model, cfg, path=path)
    assert lags.r[0].imag == 0.0
    assert np.max(np.abs(lags.r - dense.r)) <= 1e-12 * np.max(np.abs(dense.r))


def test_large_x_path_synthesis_builds_no_dense_table():
    # A dense 1024 x 16384 exp table takes 256 MB; the kernel's baby rows
    # and work table take about 8 MB each.
    model = GaussianMixture(components=((0.3, 0.05, 1.0), (-0.4, 0.1, 0.7)))
    cfg = ArrayConfig(1024, 1.0)
    opts = SynthesisOptions(nodes=16384, domain_path=Domain.X)
    points, weights = weighted_quadrature_points(opts.nodes)
    tracemalloc.start()
    try:
        lags = synthesize_lags(model, cfg, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    dense = dense_exp_sum(cfg, points, weights * model.rho(np.arcsin(points)), chunk=2048)
    assert np.max(np.abs(lags.r - dense)) <= 1e-12 * np.max(np.abs(dense))


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


@pytest.mark.parametrize("nodes", [100.5, np.float64(256.0), True, "256"])
def test_options_reject_non_integer_nodes(nodes):
    # A fractional count must not truncate silently on one path and fail
    # inside numpy on the other.
    with pytest.raises(ValueError, match="synthesis node count must be an integer"):
        SynthesisOptions(nodes=nodes)


def test_options_store_numpy_node_counts_as_int():
    opts = SynthesisOptions(np.int64(256), Domain.X)
    assert type(opts.nodes) is int and opts == SynthesisOptions(256, Domain.X)


def test_options_validation():
    with pytest.raises(ValueError):
        SynthesisOptions(nodes=8)
    with pytest.raises(ValueError):
        SynthesisOptions(domain_path="frequency")
    with pytest.raises(TypeError):
        synthesize_lags("not a model", ArrayConfig(2, 1.0))
