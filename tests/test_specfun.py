import numpy as np
import pytest
from hypothesis import given, strategies as st

from apsrec.gram import bessel_j0
from quad_helpers import bessel_j0_quadrature_oracle

# Frozen through the quadrature oracle (400-node Gauss-Legendre of the
# cosine integral); the oracle itself is accurate to ~2e-14 here.
J0_PI = -0.30424217764407874
J0_2PI = 0.2202769085399171
J0_50 = 0.055812327669231603


def test_zero_argument_is_one():
    assert bessel_j0(0.0) == 1.0


def test_frozen_oracle_values():
    assert bessel_j0(np.pi) == pytest.approx(J0_PI, abs=1e-12)
    assert bessel_j0(2 * np.pi) == pytest.approx(J0_2PI, abs=1e-12)
    assert bessel_j0(50.0) == pytest.approx(J0_50, abs=1e-10)


def test_oracle_trivial_at_zero():
    # Integrand is identically 1, so any node count is exact.
    assert bessel_j0_quadrature_oracle(0.0, 2) == pytest.approx(1.0, abs=1e-15)
    assert bessel_j0_quadrature_oracle(0.0, 200) == pytest.approx(1.0, abs=1e-15)


def test_oracle_agreement_at_pi():
    assert bessel_j0(np.pi) == pytest.approx(
        bessel_j0_quadrature_oracle(np.pi, 200), abs=1e-12
    )


def test_oracle_agreement_oscillatory():
    assert bessel_j0(50.0) == pytest.approx(
        bessel_j0_quadrature_oracle(50.0, 400), abs=1e-10
    )


def test_oracle_agreement_sweep():
    z = np.arange(0.0, 100.0 + 1e-9, 0.1)
    errors = np.abs(bessel_j0(z) - bessel_j0_quadrature_oracle(z, 400))
    assert np.max(errors) <= 1e-10


def test_trapezoid_agreement_over_gram_range():
    # Second, independent route over the whole argument range of the Gram,
    # up to gamma pi (2M-2) at M = 1024 and gamma = 1.25. The integrand of
    # pi J0(z) = integral_0^pi cos(z cos t) dt is even and 2 pi-periodic in
    # t, so the trapezoid rule on n intervals errs only by about J_2n(z),
    # which is negligible while 2n exceeds z.
    n = 4200
    t = np.linspace(0.0, np.pi, n + 1)
    weights = np.full(n + 1, np.pi / n)
    weights[[0, -1]] /= 2.0
    z = np.linspace(0.0, 1.25 * np.pi * 2046, 2001)
    assert 2 * n > z[-1]
    trapezoid = np.concatenate([
        np.cos(np.multiply.outer(chunk, np.cos(t))) @ weights
        for chunk in np.array_split(z, 8)
    ]) / np.pi
    assert np.max(np.abs(bessel_j0(z) - trapezoid)) <= 5e-13


@given(st.floats(min_value=-150.0, max_value=150.0, allow_nan=False))
def test_even_symmetry_exact(z):
    assert bessel_j0(z) == bessel_j0(-z)


def test_bounded_by_one():
    z = np.linspace(-100.0, 100.0, 40001)
    assert np.max(np.abs(bessel_j0(z))) <= 1.0


def test_array_shape_and_scalar_type():
    values = bessel_j0(np.array([[0.0, np.pi], [2 * np.pi, 10.0]]))
    assert values.shape == (2, 2)
    assert isinstance(bessel_j0(1.5), float)
    assert isinstance(bessel_j0_quadrature_oracle(1.5), float)


def test_oracle_rejects_degenerate_rule():
    with pytest.raises(ValueError):
        bessel_j0_quadrature_oracle(1.0, 1)
