import numpy as np
import pytest

from apsrec.core import ArrayConfig
from apsrec.errors import QuadratureError
from apsrec.quad import theta_quadrature_points, weighted_quadrature_points
from quad_helpers import (
    integrate_theta,
    integrate_theta_complex,
    weighted_inner,
    weighted_inner_complex,
    weighted_integral,
)

# Frozen through the Bessel quadrature oracle (see test_specfun).
PI_J0_PI = -0.9558049901987985
COS_COS_SELF = 1.9168064856071338   # (pi/2)(1 + J0(2pi))
SIN_SIN_SELF = 1.2247861679826595   # (pi/2)(1 - J0(2pi))


def one(x):
    return np.ones_like(x)


def test_chebyshev_gauss_tables():
    points, weights = weighted_quadrature_points(5)
    k = np.arange(5, 0, -1)
    assert np.allclose(points, np.cos((2 * k - 1) * np.pi / 10), atol=0)
    assert np.all(weights == np.pi / 5)
    assert np.all(np.diff(points) > 0)
    assert np.all(np.abs(points) < 1)


def test_constant_inner_product_is_pi():
    for n in (1, 2, 16, 64):
        assert weighted_inner(one, one, weighted_quadrature_points(n)) == pytest.approx(np.pi, abs=1e-14)


def test_odd_integrand_vanishes():
    kappa = np.pi
    value = weighted_inner(
        lambda x: np.cos(kappa * x), lambda x: np.sin(kappa * x), weighted_quadrature_points(64)
    )
    assert abs(value) <= 1e-13


def test_cosine_self_inner_product():
    value = weighted_inner(
        lambda x: np.cos(np.pi * x), lambda x: np.cos(np.pi * x), weighted_quadrature_points(64)
    )
    assert value == pytest.approx(COS_COS_SELF, abs=1e-12)


def _double_factorial(n):
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


@pytest.mark.parametrize("p,q", [(0, 0), (1, 1), (2, 0), (3, 1), (2, 2), (5, 3), (0, 7), (6, 6)])
def test_monomial_moments(p, q):
    n = 32
    value = weighted_inner(lambda x: x**p, lambda x: x**q, weighted_quadrature_points(n))
    total = p + q
    assert total < 2 * n
    if total % 2 == 1:
        expected = 0.0
    else:
        expected = np.pi * _double_factorial(total - 1) / _double_factorial(total)
    assert value == pytest.approx(expected, abs=1e-13)


def test_weighted_inner_rejects_legendre_rule():
    with pytest.raises(ValueError):
        weighted_inner(one, one, np.polynomial.legendre.leggauss(16))
    with pytest.raises(ValueError):
        weighted_inner_complex(one, 0, ArrayConfig(2, 1.0), np.polynomial.legendre.leggauss(16))


def test_complex_measurement_of_constant():
    cfg = ArrayConfig(4, 1.0)
    value = weighted_inner_complex(one, 0, cfg, weighted_quadrature_points(64))
    assert value == pytest.approx(np.pi + 0j, abs=1e-14)
    value = weighted_inner_complex(one, 1, cfg, weighted_quadrature_points(128))
    assert value.real == pytest.approx(PI_J0_PI, abs=1e-12)
    assert value.imag == pytest.approx(0.0, abs=1e-13)


def test_complex_measurement_of_sine():
    # <sin(kappa_1 x), e^{i kappa_1 x}>_w: the real part vanishes by parity
    # and the imaginary part is +(pi/2)(1 - J0(2 kappa_1)), the sine-block
    # Gram entry, with the positive sign that makes the measurement equal
    # the covariance lag of the density.
    cfg = ArrayConfig(2, 1.0)
    value = weighted_inner_complex(
        lambda x: np.sin(np.pi * x), 1, cfg, weighted_quadrature_points(128)
    )
    assert value.real == pytest.approx(0.0, abs=1e-13)
    assert value.imag == pytest.approx(SIN_SIN_SELF, abs=1e-12)


def test_negative_index_conjugates():
    cfg = ArrayConfig(3, 0.7)
    table = weighted_quadrature_points(128)
    f = lambda x: 1.0 + 0.3 * np.sin(cfg.kappa(1) * x)
    plus = weighted_inner_complex(f, 2, cfg, table)
    minus = weighted_inner_complex(f, -2, cfg, table)
    assert minus == pytest.approx(np.conj(plus), abs=1e-14)


def test_integrate_theta_interval_length():
    assert integrate_theta(one, 64) == pytest.approx(np.pi, abs=1e-13)


def test_theta_path_matches_bessel_identity():
    # Unit density: lag integral over theta equals pi*J0(kappa).
    value = integrate_theta_complex(lambda t: np.exp(1j * np.pi * np.sin(t)), 256)
    assert value.real == pytest.approx(PI_J0_PI, abs=1e-12)
    assert value.imag == pytest.approx(0.0, abs=1e-13)


def test_indicator_moment_with_seams():
    # integral of 1[|x| <= a] w dx = 2 asin(a); seam-aware panels make the
    # piecewise-constant integrand exact.
    a = 0.6
    f = lambda x: (np.abs(x) <= a).astype(float)
    value = weighted_integral(f, 64, seams=(-a, a))
    assert value == pytest.approx(2 * np.arcsin(a), abs=1e-13)
    # without seams the single rule converges only like 1/n
    plain = weighted_integral(f, 64)
    assert abs(plain - 2 * np.arcsin(a)) > 1e-6


def test_weighted_integral_complex_support():
    value = weighted_integral(lambda x: np.exp(1j * np.pi * x), 128)
    assert isinstance(value, complex)
    assert value.real == pytest.approx(PI_J0_PI, abs=1e-12)


def test_node_doubling_on_smooth_integrands():
    smooth = [
        lambda x: np.exp(-8.0 * (x - 0.3) ** 2),
        lambda x: np.cos(2 * np.pi * x) ** 2,
        lambda x: 1.0 / (2.0 + x),
    ]
    for f in smooth:
        coarse = weighted_integral(f, 256)
        fine = weighted_integral(f, 512)
        assert abs(fine - coarse) < 1e-10


def test_seam_points_cover_interval():
    points, weights = weighted_quadrature_points(32, seams=(0.0,))
    assert points.size == 64
    assert np.all(weights > 0)
    assert np.sum(weights) == pytest.approx(np.pi, abs=1e-12)


def _panels_by_piece(nodes, pieces):
    # One panel per (lo, hi) piece, built piece by piece in Python.
    abscissae, unit_weights = np.polynomial.legendre.leggauss(nodes)
    points, weights = [], []
    for lo, hi in pieces:
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        points.append(mid + half * abscissae)
        weights.append(half * unit_weights)
    return np.concatenate(points), np.concatenate(weights)


@pytest.mark.parametrize("seams", [
    (0.0,),
    (0.3, -0.5, 0.3, -0.0, 1.0, -1.0, 2.0),
    tuple(np.sin(np.linspace(-1.5, 1.5, 401))),
    tuple(np.random.default_rng(5).uniform(-1.0, 1.0, 9)),
], ids=["one", "duplicates-and-outside", "dense", "random"])
@pytest.mark.parametrize("nodes", [1, 7, 32])
def test_panel_tables_match_piecewise_construction(seams, nodes):
    # The broadcast panels are bit for bit those of one panel per piece,
    # in theta and in t = arccos(x), with seams deduplicated, sorted and
    # those outside the open interval dropped.
    def bounds(lo, hi, cuts):
        inner = sorted({float(c) for c in cuts if lo < c < hi})
        return list(zip([lo, *inner], [*inner, hi]))

    angles = tuple(np.arcsin(np.clip(seams, -1.0, 1.0)))
    expected = _panels_by_piece(nodes, bounds(-np.pi / 2, np.pi / 2, angles))
    for got, want in zip(theta_quadrature_points(nodes, angles), expected):
        assert np.array_equal(got, want)
    t, weights = _panels_by_piece(
        nodes, [(np.arccos(hi), np.arccos(lo)) for lo, hi in bounds(-1.0, 1.0, seams)])
    points, got_weights = weighted_quadrature_points(nodes, seams)
    assert np.array_equal(points, np.cos(t))
    assert np.array_equal(got_weights, weights)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate_theta(lambda t: np.full_like(t, np.inf), 16)
    with pytest.raises(QuadratureError):
        weighted_integral(lambda x: np.full_like(x, np.nan), 16)


def test_rule_validation():
    for nodes in (0, 100.5, True):
        with pytest.raises(ValueError, match="node count"):
            weighted_quadrature_points(nodes)
        with pytest.raises(ValueError, match="node count"):
            theta_quadrature_points(nodes)
    # The Chebyshev-Gauss table is cached and shared, so it is read-only.
    points, weights = weighted_quadrature_points(8)
    assert not points.flags.writeable and not weights.flags.writeable
