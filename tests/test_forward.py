import tracemalloc

import numpy as np
import pytest
from quad_helpers import reference_lags

from apsrec.analysis import certify
from apsrec.core import (
    ApsModel,
    ArrayConfig,
    GaussianMixture,
    LaplacianMixture,
    PointSources,
    SpectrumSum,
    TrigCoeffs,
    TrigPolynomial,
    Uniform,
    _SplitTable,
    _exp_table,
    toeplitz_from_lags,
)
from apsrec.errors import ModelError
from apsrec.forward import synthesize_lags
from apsrec.gram import gram_blocks
from apsrec.plv import negativity_summary, recover
from apsrec.quad import theta_quadrature_points

PI_J0_PI = -0.9558049901987985  # frozen via the Bessel quadrature oracle

FULL_RANGE = Uniform(-np.pi / 2, np.pi / 2, 1.0)
TWO_GAUSSIANS = GaussianMixture(components=((0.3, 0.05, 1.0), (-0.4, 0.1, 0.7)))


def assert_matches_reference(lags, reference, tol=1e-12):
    assert np.max(np.abs(lags.r - reference)) <= tol * (1.0 + np.max(np.abs(reference)))


def test_uniform_full_range_lags():
    cfg = ArrayConfig(2, 1.0)
    lags = synthesize_lags(FULL_RANGE, cfg)
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
    # matrix: Re r = G_re @ cos-part, Im r[1:] = G_im @ sin-part. At any
    # other (M', gamma') the lags are the cross-Gram's product, which the
    # reference rule integrates.
    cfg = ArrayConfig(3, 1.0)
    b = TrigCoeffs(np.array([0.8, -0.3, 0.2, 0.5, -0.1]))
    lags = synthesize_lags(TrigPolynomial(cfg, b), cfg)
    g_re, g_im = gram_blocks(cfg)
    expected_re = g_re @ np.concatenate([[b.constant], b.cos_block])
    expected_im = g_im @ b.sin_block
    assert np.allclose(lags.r.real, expected_re, atol=1e-12)
    assert np.allclose(lags.r[1:].imag, expected_im, atol=1e-12)
    for own in (ArrayConfig(5, 1.13), ArrayConfig(2, 0.7)):
        model = TrigPolynomial(own, TrigCoeffs(np.linspace(0.8, -0.4, own.n_coeffs)))
        expected = reference_lags(model, cfg)
        assert np.max(np.abs(synthesize_lags(model, cfg).r - expected)) <= 1e-12


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
    # The library's theta rule, which certify's energies use, on the lag
    # integrand meets the exact lags, and the reference's x path, panels
    # in t = arccos(x) over g = rho(arcsin x), meets the theta rule to the
    # former path tolerance.
    cfg = ArrayConfig(6, 1.0)
    theta, weights = theta_quadrature_points(256, model.seams_theta())
    by_theta = np.exp(1j * np.multiply.outer(cfg.kappas(6), np.sin(theta))) @ (
        weights * model.rho(theta))
    assert_matches_reference(synthesize_lags(model, cfg), by_theta)
    by_x = reference_lags(model, cfg, "x")
    scale = max(np.max(np.abs(by_theta)), 1e-30)
    assert np.max(np.abs(by_theta - by_x)) / scale <= 1e-9


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_convergence_to_dense_reference(model):
    cfg = ArrayConfig(6, 1.0)
    assert_matches_reference(synthesize_lags(model, cfg), reference_lags(model, cfg))


@pytest.mark.parametrize("m", [1, 8, 64, 256])
@pytest.mark.parametrize("path", ["theta", "x"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_kernel_synthesis_matches_dense_exp_table(model, path, m):
    # The reference's dense np.exp table, on a rule in theta over rho or in
    # t = arccos(x) over g, gives the same lags to rounding.
    cfg = ArrayConfig(m, 1.0)
    lags = synthesize_lags(model, cfg)
    assert lags.r[0].imag == 0.0
    assert_matches_reference(lags, reference_lags(model, cfg, path))


NARROW = GaussianMixture(components=((0.2, 1e-3, 1.0),))


@pytest.mark.parametrize("model, m, gamma", [
    (TWO_GAUSSIANS, 128, 1.0),
    (TWO_GAUSSIANS, 256, 1.0),
    (TWO_GAUSSIANS, 512, 1.0),
    (NARROW, 512, 1.0),
    (LaplacianMixture(components=((0.25, 0.08, 1.0), (-1.0, 0.2, 0.6))), 512, 1.0),
    (Uniform(-0.7, 0.4, 1.5), 512, 1.0),
    (GaussianMixture(components=((np.pi / 2, 0.1, 1.0), (-np.pi / 2, 0.3, 0.5))), 256, 1.13),
    (Uniform(-0.3, 0.3, 0.5) + NARROW + PointSources(sources=((0.3, 0.5), (-1.2, 0.2))), 256, 1.13),
], ids=["two-gaussian-128", "two-gaussian-256", "two-gaussian-512", "narrow-gaussian-512",
        "laplacian-512", "uniform-512", "edge-gaussians-256", "sum-with-atoms-256"])
def test_exact_lags_at_large_arrays(model, m, gamma):
    # Every one of these was off by 1e-3 to 1.4 relative under the former
    # default 256-node rule.
    cfg = ArrayConfig(m, gamma)
    assert_matches_reference(synthesize_lags(model, cfg), reference_lags(model, cfg))


def test_large_synthesis_builds_no_dense_table():
    # At M = 1024, gamma = 1.25 the Jacobi-Anger rule has 2077 nodes
    # x >= 0, whose whole power table (34 MB) is over the cap: the kernel's
    # baby rows and work table take about 1 MB each.
    cfg = ArrayConfig(1024, 1.25)
    tracemalloc.start()
    try:
        lags = synthesize_lags(TWO_GAUSSIANS, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert isinstance(_exp_table(cfg, np.linspace(0.0, 1.0, 2077)), _SplitTable)
    assert_matches_reference(lags, reference_lags(TWO_GAUSSIANS, cfg))


def test_linearity_of_sum():
    cfg = ArrayConfig(5, 1.0)
    first = GaussianMixture(components=((0.2, 0.1, 1.0),))
    second = Uniform(-0.5, 0.1, 0.7)
    combined = synthesize_lags(first + second, cfg)
    separate = synthesize_lags(first, cfg).r + synthesize_lags(second, cfg).r
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
    lags = synthesize_lags(FULL_RANGE, ArrayConfig(3, 1.0))
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
    # Synthesis, certify and the negativity summary take no node count,
    # whatever its type; each follows from the array (and the model).
    cfg = ArrayConfig(2, 1.0)
    with pytest.raises(TypeError):
        certify(FULL_RANGE, cfg, nodes=nodes)
    solution = recover(synthesize_lags(FULL_RANGE, cfg), cfg)
    with pytest.raises(TypeError):
        negativity_summary(solution, nodes)
    with pytest.raises(TypeError):
        negativity_summary(solution, nodes=nodes)


class _Custom(ApsModel):
    def rho(self, theta):
        return np.ones_like(theta)


def test_options_validation():
    with pytest.raises(TypeError):
        synthesize_lags("not a model", ArrayConfig(2, 1.0))
    # Only built-in models have closed-form lags; alone or in a sum.
    for model in (_Custom(), FULL_RANGE + _Custom()):
        with pytest.raises(ModelError, match="_Custom"):
            synthesize_lags(model, ArrayConfig(2, 1.0))
