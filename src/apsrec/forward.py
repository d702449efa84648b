"""Forward model: exact covariance lags of a ground-truth spectrum model.

The m-th lag is r_m = integral of rho(theta) e^{i kappa_m sin(theta)} over
[-pi/2, pi/2]. By Jacobi-Anger, e^{i kappa sin(theta)} = sum_n J_n(kappa)
e^{i n theta}, so r_m = sum_n J_n(kappa_m) c_n, with c_n the half-range
Fourier coefficients of the density, which ``Uniform`` and both mixtures
give in closed form. The sum is cut at |n| <= N = floor(kappa_max +
12 kappa_max^(1/3)) + 40, past which |J_n(kappa)| < 1e-17 for every
kappa <= kappa_max = gamma pi (M-1), by Kapteyn's inequality
(``core._bessel_cut``). The trapezoid rule on L > 2N angles
phi_j of the whole circle then reproduces the cut sum, with aliases only
from past the cut (Trefethen and Weideman, SIAM Rev. 2014): r_m =
sum_j s_j e^{i kappa_m sin(phi_j)} with s = FFT(c)/L. That is one FFT and
one call of the exponential-sum kernel, and the node count follows from
the array alone. Point sources are exact phasor sums, and a trigonometric
polynomial's lags are closed-form J0 sums, its cross-Gram with the array.
"""

import numpy as np
from scipy.special import j0 as bessel_j0

from .core import (
    HALF_PI,
    ApsModel,
    CovarianceLags,
    PointSources,
    TrigPolynomial,
    Uniform,
    _bessel_cut,
    _exp_lags,
    _exp_table,
    _leaves,
    _Mixture,
)
from .errors import ModelError
# Not called here: perfbench's tracer wraps both names as its quadrature
# layer, so they stay module attributes.
from .quad import theta_quadrature_points, weighted_quadrature_points  # noqa: F401


def _trig_lags(model, kappas):
    """Lags of a TrigPolynomial at any (M', gamma'): pi J0(kappa_m) for the
    constant, (pi/2)(J0(kappa_m - kappa'_k) + J0(kappa_m + kappa'_k)) per
    cosine and i (pi/2)(J0(kappa_m - kappa'_k) - J0(kappa_m + kappa'_k))
    per sine."""
    coeffs, own = model.coeffs, model.config.kappas(model.config.M)[1:]
    minus = bessel_j0(np.subtract.outer(kappas, own))
    plus = bessel_j0(np.add.outer(kappas, own))
    return np.pi * (bessel_j0(kappas) * coeffs.constant + 0.5 * (
        (minus + plus) @ coeffs.cos_block + 1j * ((minus - plus) @ coeffs.sin_block)))


def _density_lags(densities, cfg):
    """Jacobi-Anger lags of a sum of closed-form densities.

    With L = 4K the angles phi_j = pi j / (2K) and pi - phi_j share
    x_j = sin(phi_j), and -phi_j and pi + phi_j share -x_j, so the kernel
    runs on the K + 1 nodes x_j >= 0 with the even and odd parts of the
    folded weights; the two ends, each one angle, were counted twice.
    """
    cut = _bessel_cut(cfg.kappa(cfg.M - 1))
    quarter = cut // 2 + 1
    n = np.arange(cut + 1)
    c = sum(density._fourier(n) for density in densities)
    # s_j = sum_n c_n e^{-2 pi i n j / L} / L, real as c_{-n} = conj(c_n).
    s = np.fft.irfft(c.conj(), 4 * quarter)
    j = np.arange(quarter + 1)
    upper, lower = s[j] + s[2 * quarter - j], s[-j] + s[2 * quarter + j]
    upper[[0, quarter]] *= 0.5
    lower[[0, quarter]] *= 0.5
    table = _exp_table(cfg, np.sin((HALF_PI / quarter) * j))
    return _exp_lags(table, upper + lower, upper - lower, cfg.M)


def synthesize_lags(model, cfg):
    """Covariance lags r_m, m = 0..M-1, of ``model`` under ``cfg``.

    Exact to rounding for every built-in model and sums of them: phasor
    sums for point sources, J0 sums for trigonometric polynomials, and
    one Jacobi-Anger pass (see the module docstring) for all uniform and
    mixture terms together. The imaginary part of r_0 is forced to exact
    zero (it vanishes analytically). Results are deterministic and linear
    in the model.

    Raises:
        TypeError: Unless ``model`` is a spectrum model.
        ModelError: For a term of any other ``ApsModel`` subclass, whose
            lags have no closed form here.
    """
    if not isinstance(model, ApsModel):
        raise TypeError("model must be a spectrum model")
    kappas = cfg.kappas(cfg.M)
    r = np.zeros(cfg.M, dtype=np.complex128)
    densities = []
    for leaf in _leaves(model):
        if isinstance(leaf, PointSources):
            for angle, power in leaf.sources:
                r += power * np.exp(1j * kappas * np.sin(angle))
        elif isinstance(leaf, TrigPolynomial):
            r += _trig_lags(leaf, kappas)
        elif isinstance(leaf, (Uniform, _Mixture)):
            densities.append(leaf)
        else:
            raise ModelError(f"no exact lags for model type {type(leaf).__name__}")
    if densities:
        r += _density_lags(densities, cfg)
    r[0] = r[0].real
    return CovarianceLags(r)
