import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
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
    trig_basis,
)
from apsrec import core
from apsrec.errors import ModelError, StructureError
from apsrec.quad import theta_quadrature_points, weighted_quadrature_points
from quad_helpers import transformed_density

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
        assert np.array_equal(TrigCoeffs(np.zeros(5)).b, np.zeros(5))


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
        # on 1000 and on 20000 points (the ids name the two table forms
        # the kernel once took at these sizes; it now has one). With
        # kappa_m x up to 3214, each of the two evaluations is about
        # 7e-12 off an extended-precision sum on these points.
        cfg = ArrayConfig(1024, 1.0)
        x = np.sort(rng.uniform(-1.0, 1.0, points))
        b = rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)

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


def hermitian_toeplitz(r):
    r = np.asarray(r, dtype=np.complex128)
    return scipy.linalg.toeplitz(r, r.conj())


class TestToeplitz:
    def test_zero_off_diagonal(self):
        lags = lags_from_toeplitz(np.eye(2, dtype=complex), tol=0.0)
        assert np.array_equal(lags.r, np.array([1.0, 0.0]))

    def test_uniform_spectrum_matrix(self):
        matrix = hermitian_toeplitz([np.pi, PI_J0_PI])
        assert np.array_equal(lags_from_toeplitz(matrix, tol=0.0).r, [np.pi, PI_J0_PI])

    def test_hermitian_completion(self):
        # The lags are read from the first column; the conjugate first row
        # passes and the unconjugated one is rejected.
        lags = lags_from_toeplitz(np.array([[2.0, -1.0j], [1.0j, 2.0]]), tol=0.0)
        assert np.array_equal(lags.r, np.array([2.0, 1.0j]))
        with pytest.raises(StructureError):
            lags_from_toeplitz(np.array([[2.0, 1.0j], [1.0j, 2.0]]))

    def test_raw_vectors_taken_as_lags(self):
        # Nested lists are taken as the matrix they spell.
        matrix = hermitian_toeplitz([2.0, 0.5 - 0.25j])
        for raw in (matrix.tolist(), matrix):
            assert np.array_equal(lags_from_toeplitz(raw, tol=0.0).r, [2.0, 0.5 - 0.25j])

    @pytest.mark.parametrize("raw,match", [([2.0, np.nan], "finite"),
                                           ([2.0 + 1e-3j, 0.5], "Hermitian Toeplitz")],
                             ids=["nan", "complex_r0"])
    def test_raw_vector_checked_as_lags(self, raw, match):
        # A non-finite entry raises StructureError, and so does a diagonal
        # with an imaginary part, which no covariance has.
        with pytest.raises(StructureError, match=match):
            lags_from_toeplitz(scipy.linalg.toeplitz(np.asarray(raw, dtype=complex)))

    def test_identity_extraction(self):
        lags = lags_from_toeplitz(np.eye(3, dtype=complex), tol=0.0)
        assert np.array_equal(lags.r, np.array([1.0, 0.0, 0.0]))

    def test_round_trip_bit_exact(self, rng):
        for m in (1, 2, 5, 9):
            r = rng.normal(size=m) + 1j * rng.normal(size=m)
            r[0] = r[0].real
            lags = CovarianceLags(r)
            back = lags_from_toeplitz(hermitian_toeplitz(lags.r), tol=0.0)
            assert np.array_equal(back.r, lags.r)

    def test_structure_error(self):
        with pytest.raises(StructureError):
            lags_from_toeplitz(np.diag([1.0, 2.0]).astype(complex), tol=1e-12)
        # A 0x0 matrix raised IndexError from its empty first column.
        for shape in ((2, 3), (0, 0)):
            with pytest.raises(StructureError):
                lags_from_toeplitz(np.ones(shape, dtype=complex))

    def test_tolerance_accepts_small_noise(self):
        matrix = hermitian_toeplitz([1.0, 0.3 + 0.1j])
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
        exact = hermitian_toeplitz([2.0, 0.5])
        for matrix in (exact, np.array([[2.0, 5.0], [0.5, 2.0]], dtype=complex)):
            with pytest.raises(ValueError, match="tol must be finite"):
                lags_from_toeplitz(matrix, tol=tol)


class TestModels:
    def test_uniform_constant_in_both_domains(self):
        model = Uniform(-np.pi / 2, np.pi / 2, 1.0)
        g = transformed_density(model)
        assert g(0.5) == 1.0
        assert model.rho(0.3) == 1.0

    def test_trig_polynomial_constant(self):
        cfg = ArrayConfig(3, 1.0)
        model = TrigPolynomial(cfg, TrigCoeffs(np.array([1.0, 0, 0, 0, 0])))
        g = transformed_density(model)
        assert g(-0.2) == pytest.approx(1.0, abs=0)

    def test_gaussian_transform_matches_direct_composition(self):
        model = GaussianMixture(components=((0.0, 0.1, 1.0),))
        g = transformed_density(model)
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
            g = transformed_density(model)
            assert np.allclose(g(np.sin(theta)), model.rho(theta), rtol=1e-13, atol=1e-13)

    def test_point_sources_have_no_transform(self):
        model = PointSources(sources=((0.1, 1.0),))
        assert not model.in_l2
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
    # symmetric about x = 0. Their 2304 points leave the table budget
    # fewer rows than isqrt(M), so B = isqrt(M); at M = 700 and 1025 it
    # does not divide M, so the zero-padded top giant power is partial.
    cfg = ArrayConfig(m, gamma)
    theta, _ = theta_quadrature_points(768, Uniform(-0.6, 0.2, 1.4).seams_theta())
    x = np.sin(theta)
    table = core._exp_table(cfg, x)
    assert_one_form(table, m, x.size)
    dense = np.exp(1j * np.multiply.outer(cfg.kappas(m), x))
    b = rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)
    even, odd = core._exp_samples(table, b)
    for part, expected in ((even, (b[:m] @ dense).real), (odd, (b[m:] @ dense[1:]).imag)):
        assert np.max(np.abs(part - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1.0)
    a, c = rng.uniform(-1.0, 1.0, (2, x.size))
    lags = core._exp_lags(table, a, c, m)
    expected = (dense @ a).real + 1j * (dense @ c).imag
    assert lags.shape == (m,)
    assert np.max(np.abs(lags - expected)) <= 1e-12 * np.max(np.abs(expected))


def assert_one_form(table, m, points):
    # B read-only baby rows, a read-only giant step and ceil(M / B) giant
    # powers, at every size. B is isqrt(M) unless more rows of 16 bytes a
    # point fit the table budget; then it is as many as fit, up to M.
    rows = max(math.isqrt(m), min(m, core._TABLE_BYTES // (16 * max(points, 1))))
    assert table.baby.shape == (rows, points)
    assert table.giant.shape == (points,)
    assert table.count == -(-m // rows)
    for array in (table.baby, table.giant):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


@pytest.mark.parametrize("m,points,rows", [
    (64, 1024, 16), (64, 181, 64), (1024, 2080, 32), (64, 0, 64), (1, 0, 1)])
def test_exp_table_rows_fill_the_byte_budget(m, points, rows):
    # At M = 64 the rule's 1024 half-rule nodes take 16 baby rows (four
    # giant powers, three Horner steps) and the CLI's 181 angles all 64
    # (one power, no Horner step); the rule at (1024, 1) keeps isqrt(M).
    # An empty grid takes M rows of no points, and its sums are empty.
    cfg = ArrayConfig(m, 1.0)
    table = core._exp_table(cfg, np.linspace(0.0, 1.0, points))
    assert_one_form(table, m, points)
    assert len(table.baby) == rows
    even, odd = core._exp_samples(table, np.ones(2 * m - 1))
    assert even.shape == odd.shape == (points,)
    assert core._exp_lags(table, np.ones(points), np.ones(points), m).shape == (m,)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 63, 65, 1025])
def test_exp_kernel_matches_direct_sums_at_every_order(m, rng):
    # On 301 points the budget holds 54 baby rows: B = M at M <= 5 (one
    # giant power, no Horner step), and B = 54 between isqrt(M) and M at
    # M = 63, 65 and 1025, where it does not divide M (the unsymmetric
    # nodes above keep B = isqrt(M)). Samples of a positive density
    # against the dense basis, and lags and moments of positive weights
    # against the direct np.exp sums, as the package's sums of
    # quadrature weights and densities are. At M = 1025, kappa_m x
    # reaches 3635, and its rounding alone moves the kernel and the
    # references apart by up to about 1e-13 of the largest sample (6e-14
    # on this data); random-sign coefficients read about 2e-13.
    cfg = ArrayConfig(m, 1.13)
    x = np.sort(rng.uniform(-1.0, 1.0, 301))
    table = core._exp_table(cfg, x)
    assert_one_form(table, m, x.size)

    def close(got, expected):
        scale = 1.0 + np.max(np.abs(expected))
        return np.max(np.abs(got - expected)) <= 1e-13 * scale

    b = rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)
    basis = trig_basis(cfg, x)
    b[0] += max(0.0, -np.min(basis @ b)) + 0.1
    even, odd = core._exp_samples(table, b)
    assert close(even + odd, basis @ b)
    dense = np.exp(1j * np.multiply.outer(cfg.kappas(m), x))
    a, c = rng.uniform(0.0, 1.0, (2, x.size))
    assert close(core._exp_lags(table, a, c, m), (dense @ a).real + 1j * (dense @ c).imag)
    assert close(core._giant_lags(table, a, m), (dense @ a).real)


def test_giant_lags_streams_work_rows_through_one_block():
    # Lags of positive weights at (1024, 1.25) on 2079 half-rule nodes, a
    # table of M powers in 32 baby rows: the 32 work rows of its 1024
    # sums would take 1.1 MB at once. Streamed, the kernel's peak beyond
    # its inputs is one block, numpy's buffer for a product broadcast
    # over half its work rows, the (count, B) sums and one panel product
    # of that size, with 4 KiB for the arrays' headers. The sums match
    # the dense sum in long double.
    cfg = ArrayConfig(1024, 1.25)
    nodes = 4158
    points, weights = weighted_quadrature_points(nodes)
    x, w = points[nodes // 2:], weights[nodes // 2:]
    table = core._exp_table(cfg, x)
    assert (table.baby.shape, table.count) == ((32, 2079), 32)
    tracemalloc.start()
    try:
        lags = core._giant_lags(table, w, cfg.M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sums = table.count * len(table.baby) * 8
    assert peak <= core._BLOCK_BYTES * 3 // 2 + 2 * sums + 4096
    kappas = np.longdouble(cfg.gamma) * np.pi * np.arange(cfg.M, dtype=np.longdouble)
    expected = np.concatenate([np.cos(np.multiply.outer(rows, x.astype(np.longdouble))) @ w
                               for rows in np.array_split(kappas, 16)])
    scale = 1.0 + np.max(np.abs(expected))
    assert np.max(np.abs(lags - expected)) <= 1e-13 * scale


# Array sizes up to 32768 and spacings 0.5 to 32, log-spaced.
CUT_SIZES = np.unique(np.geomspace(1, 32768, 120).round().astype(int))
CUT_GAMMAS = np.geomspace(0.5, 32.0, 40)


def test_bessel_cut_clears_the_bessel_transition():
    # Past the cut of kappa = gamma pi (M - 1) the first omitted order's
    # J_n(kappa), from scipy's jv, is below 1e-20 (3.0e-21 at worst, at
    # M = 32768, gamma = 32). The former cut kappa + 6 kappa^(1/3) + 40
    # left 5.3e-10 on this grid.
    kappas = np.multiply.outer(CUT_GAMMAS, np.pi * (CUT_SIZES - 1)).ravel()
    cuts = np.array([core._bessel_cut(kappa) for kappa in kappas])
    assert np.max(np.abs(scipy.special.jv(cuts + 1, kappas))) <= 1e-20
    former = (kappas + 6.0 * np.cbrt(kappas)).astype(int) + 40
    assert np.max(np.abs(scipy.special.jv(former + 1, kappas))) > 1e-10


def test_bessel_cut_kapteyn_bound():
    # Kapteyn's bound on |J_n(kappa)| at the first order past the cut,
    # exp(n (s - artanh s)) with s = sqrt(1 - (kappa/n)^2), written with
    # d = n - kappa so that it keeps its digits at large kappa: under its
    # large-kappa limit exp(-24^(3/2) / 3) < 9.6e-18 from kappa = 0 to 1e13.
    for kappa in np.concatenate([[0.0], np.geomspace(1e-3, 1e13, 2000)]):
        n = core._bessel_cut(kappa) + 1
        d = n - kappa
        s = np.sqrt(d * (n + kappa)) / n
        exponent = n * (np.log1p(-d / n) + s - np.log1p(s)) if kappa else -np.inf
        assert exponent < -24.0**1.5 / 3.0 < np.log(9.6e-18)


@pytest.mark.parametrize("m", [1, 64, 1024])
def test_exp_lags_of_one_vector_is_one_product(m, rng):
    # Synthesis and projection pass one vector as both parts; its lags are
    # the one complex sum sum_j v_j exp(i kappa_m x_j), bit for bit
    # whether or not the two parts are the same array.
    cfg = ArrayConfig(m, 1.13)
    x = np.sort(rng.uniform(-1.0, 1.0, 256))
    table = core._exp_table(cfg, x)
    v = rng.uniform(-1.0, 1.0, x.size)
    lags = core._exp_lags(table, v, v, m)
    assert np.array_equal(lags, core._exp_lags(table, v, v.copy(), m))
    expected = np.exp(1j * np.multiply.outer(cfg.kappas(m), x)) @ v
    assert np.max(np.abs(lags - expected)) <= 1e-12 * np.max(np.abs(expected))


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
