import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apsrec.core import (
    ArrayConfig,
    CovarianceLags,
    Domain,
    GaussianMixture,
    LaplacianMixture,
    PointSources,
    SampledFunction,
    SpectrumSum,
    TrigCoeffs,
    TrigPolynomial,
    Uniform,
    lags_from_toeplitz,
    toeplitz_from_lags,
    transform_aps,
    trig_basis,
)
from apsrec import core
from apsrec.errors import DomainError, ModelError, StructureError
from apsrec.quad import theta_quadrature_points

PI_J0_PI = -0.9558049901987985  # frozen via the Bessel quadrature oracle


class TestArrayConfig:
    def test_kappa_values(self):
        assert ArrayConfig(4, 1.0).kappa(0) == 0.0
        assert ArrayConfig(4, 1.0).kappa(2) == pytest.approx(2 * np.pi, abs=0)
        assert ArrayConfig(4, 0.5).kappa(3) == pytest.approx(1.5 * np.pi, abs=0)

    def test_kappa_extends_past_m(self):
        cfg = ArrayConfig(3, 2.0)
        assert cfg.kappa(2 * cfg.M - 2) == pytest.approx(2.0 * np.pi * 4, abs=0)

    def test_kappas_vector(self):
        cfg = ArrayConfig(3, 0.5)
        assert np.array_equal(cfg.kappas(4), 0.5 * np.pi * np.arange(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayConfig(0, 1.0)
        with pytest.raises(ValueError):
            ArrayConfig(4, 0.0)
        with pytest.raises(ValueError):
            ArrayConfig(4, -1.0)
        with pytest.raises(ValueError):
            ArrayConfig(2.5, 1.0)
        with pytest.raises(ValueError):
            ArrayConfig(2, np.nan)
        with pytest.raises(ValueError):
            ArrayConfig(2, 1.0).kappa(-1)

    def test_oversampled_spacing_accepted(self):
        assert ArrayConfig(4, 2.5).gamma == 2.5


class TestCovarianceLags:
    def test_rejects_imaginary_r0(self):
        with pytest.raises(ValueError):
            CovarianceLags(np.array([1.0 + 1e-16j, 0.5j]))

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            CovarianceLags(np.array([]))
        with pytest.raises(ValueError):
            CovarianceLags(np.array([np.inf, 0.0]))

    def test_immutable(self):
        lags = CovarianceLags(np.array([1.0, 0.5j]))
        with pytest.raises(ValueError):
            lags.r[0] = 2.0
        assert len(lags) == lags.M == 2


class TestTrigCoeffs:
    def test_layout(self):
        coeffs = TrigCoeffs(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert coeffs.M == 3
        assert coeffs.constant == 1.0
        assert np.array_equal(coeffs.cos_block, [2.0, 3.0])
        assert np.array_equal(coeffs.sin_block, [4.0, 5.0])

    def test_single_antenna_blocks_empty(self):
        coeffs = TrigCoeffs(np.array([2.0]))
        assert coeffs.M == 1
        assert coeffs.cos_block.size == 0
        assert coeffs.sin_block.size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrigCoeffs(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            TrigCoeffs(np.array([1.0, np.nan, 0.0]))

    def test_zeros_constructor(self):
        assert np.array_equal(TrigCoeffs.zeros(3).b, np.zeros(5))


class TestEvaluateTrig:
    """A trigonometric polynomial evaluated by ``TrigPolynomial.g`` through
    the exponential-sum kernel, against the dense basis table."""

    @staticmethod
    def g(cfg, b, x):
        return TrigPolynomial(cfg, TrigCoeffs(b)).g(x)

    def test_constant(self):
        cfg = ArrayConfig(3, 1.0)
        assert self.g(cfg, np.array([1.0, 0, 0, 0, 0]), 0.7) == pytest.approx(1.0, abs=0)

    def test_cosine_at_origin(self):
        cfg = ArrayConfig(2, 1.0)
        value = self.g(cfg, np.array([0.0, 1.0, 0.0]), 0.0)
        assert np.ndim(value) == 0
        assert value == pytest.approx(1.0, abs=0)

    def test_sine_quarter_period(self):
        cfg = ArrayConfig(2, 1.0)
        assert self.g(cfg, np.array([0.0, 0.0, 1.0]), 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_vector_evaluation_matches_basis(self):
        # Points in any shape, |x| > 1 (the analytic continuation) included.
        cfg = ArrayConfig(4, 0.8)
        b = np.arange(1.0, 8.0)
        x = np.linspace(-1.5, 1.5, 18)
        assert np.allclose(self.g(cfg, b, x), trig_basis(cfg, x) @ b, atol=0)
        grid = x.reshape(3, 2, 3)
        assert np.array_equal(self.g(cfg, b, grid), self.g(cfg, b, x).reshape(3, 2, 3))

    @pytest.mark.parametrize("points", [1000, 20000], ids=["whole", "split"])
    def test_large_order_matches_basis(self, points, rng):
        # A positive density, like every TrigPolynomial truth, at M' = 1024
        # on 1000 points that fit the kernel's cap and on 20000 that do
        # not. With kappa_m x up to 3214, each of the two evaluations is
        # about 7e-12 off an extended-precision sum on these points.
        cfg = ArrayConfig(1024, 1.0)
        x = np.sort(rng.uniform(-1.0, 1.0, points))
        assert isinstance(core._exp_table(cfg, x), np.ndarray) == (points == 1000)
        b = rng.uniform(-1.0, 1.0, cfg.n_coeffs)

        def dense(b):
            return np.concatenate([trig_basis(cfg, part) @ b for part in np.split(x, 10)])

        b[0] += max(0.0, -np.min(dense(b))) + 0.1
        expected, g = dense(b), self.g(cfg, b, x)
        assert np.max(np.abs(g - expected)) <= 1e-13 * (1.0 + np.max(np.abs(g)))

    @settings(max_examples=50)
    @given(
        alpha=st.floats(-5, 5, allow_nan=False),
        x=st.floats(-1, 1, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, alpha, x, seed):
        cfg = ArrayConfig(4, 1.0)
        local = np.random.default_rng(seed)
        b1 = local.uniform(-1, 1, 7)
        b2 = local.uniform(-1, 1, 7)
        combined = self.g(cfg, alpha * b1 + b2, x)
        split = alpha * self.g(cfg, b1, x) + self.g(cfg, b2, x)
        assert combined == pytest.approx(split, rel=1e-12, abs=1e-12)


class TestToeplitz:
    def test_zero_off_diagonal(self):
        matrix = toeplitz_from_lags(CovarianceLags(np.array([1.0, 0.0])))
        assert np.array_equal(matrix, np.eye(2))

    def test_uniform_spectrum_matrix(self):
        matrix = toeplitz_from_lags(CovarianceLags(np.array([np.pi, PI_J0_PI], dtype=complex)))
        assert matrix[0, 0] == matrix[1, 1] == np.pi
        assert matrix[0, 1] == pytest.approx(PI_J0_PI, abs=1e-12)
        assert np.allclose(matrix, matrix.conj().T, atol=0)

    def test_hermitian_completion(self):
        matrix = toeplitz_from_lags(CovarianceLags(np.array([2.0, 1.0j])))
        assert np.array_equal(matrix, np.array([[2.0, -1.0j], [1.0j, 2.0]]))

    def test_identity_extraction(self):
        lags = lags_from_toeplitz(np.eye(3, dtype=complex), tol=0.0)
        assert np.array_equal(lags.r, np.array([1.0, 0.0, 0.0]))

    def test_round_trip_bit_exact(self, rng):
        for m in (1, 2, 5, 9):
            r = rng.normal(size=m) + 1j * rng.normal(size=m)
            r[0] = r[0].real
            lags = CovarianceLags(r)
            back = lags_from_toeplitz(toeplitz_from_lags(lags), tol=0.0)
            assert np.array_equal(back.r, lags.r)

    def test_structure_error(self):
        with pytest.raises(StructureError):
            lags_from_toeplitz(np.diag([1.0, 2.0]).astype(complex), tol=1e-12)
        with pytest.raises(StructureError):
            lags_from_toeplitz(np.ones((2, 3), dtype=complex))

    def test_tolerance_accepts_small_noise(self):
        matrix = toeplitz_from_lags(CovarianceLags(np.array([1.0, 0.3 + 0.1j])))
        noisy = matrix + 1e-13 * np.array([[0, 1], [0, 0]])
        lags = lags_from_toeplitz(noisy, tol=1e-12)
        assert lags.M == 2

    def test_non_finite_entry_rejected(self):
        # A NaN off the first column made the deviation NaN, and
        # NaN > tol let the matrix through as lags [2, 0.5].
        for bad in (np.nan, np.inf):
            with pytest.raises(StructureError, match="finite"):
                lags_from_toeplitz(np.array([[2.0, bad], [0.5, 2.0]], dtype=complex))
        with pytest.raises(StructureError, match="finite"):
            lags_from_toeplitz(np.array([[2.0, 0.5], [np.nan, 2.0]], dtype=complex))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_unusable_tolerance(self, tol):
        # A NaN tolerance accepted [[2, 5], [0.5, 2]], and a negative one
        # rejected an exact Toeplitz matrix as deviating by 0.
        exact = toeplitz_from_lags(CovarianceLags(np.array([2.0, 0.5])))
        for matrix in (exact, np.array([[2.0, 5.0], [0.5, 2.0]], dtype=complex)):
            with pytest.raises(ValueError, match="tol must be finite"):
                lags_from_toeplitz(matrix, tol=tol)


class TestModels:
    def test_uniform_constant_in_both_domains(self):
        model = Uniform(-np.pi / 2, np.pi / 2, 1.0)
        g = transform_aps(model)
        assert g(0.5) == 1.0
        assert model.rho(0.3) == 1.0

    def test_trig_polynomial_constant(self):
        cfg = ArrayConfig(3, 1.0)
        model = TrigPolynomial(cfg, TrigCoeffs(np.array([1.0, 0, 0, 0, 0])))
        g = transform_aps(model)
        assert g(-0.2) == pytest.approx(1.0, abs=0)

    def test_gaussian_transform_matches_direct_composition(self):
        model = GaussianMixture(components=((0.0, 0.1, 1.0),))
        g = transform_aps(model)
        assert g(0.0) == pytest.approx(model.rho(0.0), abs=0)
        assert g(0.0) == pytest.approx(1.0 / (0.1 * np.sqrt(2 * np.pi)), rel=1e-15)

    def test_transform_equals_rho_at_sin_theta(self):
        models = [
            Uniform(-0.4, 0.9, 2.0),
            GaussianMixture(components=((0.2, 0.1, 1.0), (-0.5, 0.3, 0.4))),
            LaplacianMixture(components=((0.1, 0.2, 1.5),)),
            TrigPolynomial(ArrayConfig(3, 1.0), TrigCoeffs(np.array([1.0, 0.2, -0.1, 0.05, 0.0]))),
        ]
        theta = np.linspace(-np.pi / 2, np.pi / 2, 101)
        for model in models:
            g = transform_aps(model)
            assert np.allclose(g(np.sin(theta)), model.rho(theta), rtol=1e-13, atol=1e-13)

    def test_transform_domain_error(self):
        g = transform_aps(Uniform(-1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            g(1.0001)
        with pytest.raises(DomainError):
            g(np.array([0.0, -1.5]))

    def test_point_sources_have_no_transform(self):
        model = PointSources(sources=((0.1, 1.0),))
        assert not model.in_l2
        with pytest.raises(ModelError):
            transform_aps(model)
        with pytest.raises(ModelError):
            model.rho(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Uniform(0.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            Uniform(-2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(-0.5, 0.5, -1.0)
        with pytest.raises(ValueError, match="finite"):
            Uniform(-0.5, 0.5, np.inf)
        with pytest.raises(ValueError):
            GaussianMixture(components=((0.0, -0.1, 1.0),))
        with pytest.raises(ValueError):
            GaussianMixture(components=((0.0, 0.1, -1.0),))
        with pytest.raises(ValueError):
            GaussianMixture(components=())
        with pytest.raises(ValueError):
            PointSources(sources=((0.0, -1.0),))
        with pytest.raises(ValueError, match="finite"):
            PointSources(sources=((0.0, np.inf),))
        with pytest.raises(ValueError):
            TrigPolynomial(ArrayConfig(3, 1.0), TrigCoeffs(np.array([1.0, 0.0, 0.0])))

    @pytest.mark.parametrize("mixture", [GaussianMixture, LaplacianMixture])
    @pytest.mark.parametrize("component", [
        (0.0, np.inf, 1.0), (0.0, np.nan, 1.0), (0.0, 0.1, np.inf), (0.0, 0.1, np.nan),
    ])
    def test_mixtures_reject_non_finite_components(self, mixture, component):
        with pytest.raises(ValueError, match="finite"):
            mixture(components=(component,))

    def test_mixture_kinds_share_components_but_not_equality(self):
        components = ((0.3, 0.1, 2.0), (-0.2, 0.05, 1))
        gauss, laplace = GaussianMixture(components), LaplacianMixture(components)
        assert gauss.components == laplace.components == ((0.3, 0.1, 2.0), (-0.2, 0.05, 1.0))
        assert gauss != laplace
        assert gauss == GaussianMixture(components)
        assert repr(laplace).startswith("LaplacianMixture(")
        with pytest.raises(AttributeError):
            gauss.components = ()

    def test_in_l2_per_kind(self):
        assert Uniform.in_l2 and GaussianMixture.in_l2 and LaplacianMixture.in_l2
        assert TrigPolynomial.in_l2
        assert not PointSources.in_l2

    def test_sum_and_seams(self):
        mix = LaplacianMixture(components=((0.3, 0.1, 1.0),))
        segment = Uniform(-0.5, 0.2, 1.0)
        total = mix + segment
        assert isinstance(total, SpectrumSum)
        assert total.in_l2
        assert total.seams_theta() == (-0.5, 0.2, 0.3)
        assert total.rho(0.0) == pytest.approx(mix.rho(0.0) + 1.0, rel=1e-15)

    def test_sum_with_point_sources_not_l2(self):
        total = PointSources(sources=((0.0, 1.0),)) + Uniform(-0.5, 0.5, 1.0)
        assert not total.in_l2

    def test_full_range_uniform_has_no_seams(self):
        assert Uniform(-np.pi / 2, np.pi / 2, 1.0).seams_theta() == ()


@pytest.mark.parametrize("m,gamma", [(1, 1.0), (64, 1.0), (700, 1.25), (1025, 1.0)])
def test_exp_kernel_on_unsymmetric_nodes(m, gamma, rng):
    # Theta-path Gauss-Legendre panels split at a segment's seams are not
    # symmetric about x = 0. Their 3 x 768 points keep M = 1 and 64 within
    # the cap and put M = 700 and 1025 over it, where B = isqrt(M) does
    # not divide M.
    cfg = ArrayConfig(m, gamma)
    theta, _ = theta_quadrature_points(768, Uniform(-0.6, 0.2, 1.4).seams_theta())
    x = np.sin(theta)
    table = core._exp_table(cfg, x)
    assert isinstance(table, core._SplitTable) == (m >= 700)
    dense = np.exp(1j * np.multiply.outer(cfg.kappas(m), x))
    b = rng.uniform(-1.0, 1.0, cfg.n_coeffs)
    even, odd = core._exp_samples(table, b)
    for part, expected in ((even, (b[:m] @ dense).real), (odd, (b[m:] @ dense[1:]).imag)):
        assert np.max(np.abs(part - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1.0)
    a, c = rng.uniform(-1.0, 1.0, (2, x.size))
    lags = core._exp_lags(table, a, c, m)
    expected = (dense @ a).real + 1j * (dense @ c).imag
    assert lags.shape == (m,)
    assert np.max(np.abs(lags - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("m", [1, 64, 1024])
def test_exp_lags_of_one_vector_is_one_product(m, rng):
    # Synthesis and projection pass one vector as both parts; on a whole
    # table its lags are the single product table @ v, equal to the
    # two-product form.
    cfg = ArrayConfig(m, 1.13)
    x = np.sort(rng.uniform(-1.0, 1.0, 256))
    table = core._exp_table(cfg, x)
    assert isinstance(table, np.ndarray)
    v = rng.uniform(-1.0, 1.0, x.size)
    lags = core._exp_lags(table, v, v, m)
    assert np.array_equal(lags, (table @ v).real + 1j * (table @ v.copy()).imag)


def test_exp_kernel_cap_counts_one_weight_row():
    # A table is built whole exactly when its M complex rows and one real
    # row of weights fit the cap, the size the Gram's workspace keeps.
    cfg = ArrayConfig(1024, 1.0)
    fits = core._MAX_KEPT_TABLE_BYTES // (8 * (2 * cfg.M + 1))
    assert isinstance(core._exp_table(cfg, np.zeros(fits)), np.ndarray)
    assert isinstance(core._exp_table(cfg, np.zeros(fits + 1)), core._SplitTable)


class TestSampledFunction:
    def test_valid(self):
        sampled = SampledFunction(np.array([0.0, 0.5]), np.array([1.0, 2.0]), Domain.X)
        assert len(sampled) == 2
        assert sampled.domain is Domain.X

    def test_domain_coercion_from_string(self):
        sampled = SampledFunction(np.array([0.0, 0.5]), np.array([1.0, 2.0]), "theta")
        assert sampled.domain is Domain.THETA

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 1.0]), np.array([1.0]))
