import gc
import os
import subprocess
import sys
import textwrap
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from apsrec import core, plv
from apsrec import gram as gram_module
from apsrec.core import ArrayConfig, CovarianceLags, TrigCoeffs, TrigPolynomial, trig_basis
from apsrec.errors import ConditioningError
from apsrec.gram import (
    GramMatrix,
    assemble_gram,
    bessel_j0,
    gram_blocks,
    measurement_vector,
    solve,
)
from apsrec.plv import DEFAULT_RESIDUAL_TOL, evaluate_solution, negativity_summary, recover
from apsrec.quad import weighted_quadrature_points

# Frozen via the Bessel quadrature oracle.
PI_J0_PI = -0.9558049901987985
COS1_COS1 = 1.9168064856071338   # (pi/2)(1 + J0(2pi))
SIN1_SIN1 = 1.2247861679826595   # (pi/2)(1 - J0(2pi))

TOEPLITZ_MIN_M = gram_module._TOEPLITZ_MIN_M
PCG_MAX_GAMMA = gram_module._PCG_MAX_GAMMA


def full_matrix(cfg):
    """The dense (2M-1)-by-(2M-1) block-diagonal Gram."""
    return scipy.linalg.block_diag(*gram_blocks(cfg))


# Configurations whose condition estimate stays well under the ceiling;
# tightly spaced arrays (gamma = 0.5) degrade fast with M.
WELL_CONDITIONED = [
    *[(m, 1.0) for m in (1, 2, 3, 5, 8, 12, 16)],
    *[(m, 2.0) for m in (2, 4, 9, 16)],
    *[(m, 0.5) for m in (1, 2, 4, 6, 8)],
]

# Subset where the absolute residual bound for arbitrary right-hand sides
# is attainable: the backward-stable floor scales with the condition
# number, so past cond ~ 1e5 no solver can promise 1e-10 for random y
# (synthesized measurement vectors, which live in the well-scaled range
# of G, stay accurate far beyond this; see the recovery tests).
RESIDUAL_BOUND_CONFIGS = [
    *[(m, 1.0) for m in (1, 2, 3, 5, 8, 12, 16)],
    *[(m, 2.0) for m in (2, 4, 9, 16)],
    *[(m, 0.5) for m in (1, 2, 4)],
]


def quadrature_gram(cfg, nodes=512):
    """Independent route to every Gram entry: one dense basis evaluation
    against the Chebyshev-Gauss rule."""
    points, weights = weighted_quadrature_points(nodes)
    basis = trig_basis(cfg, points)
    full = basis.T @ (weights[:, None] * basis)
    m = cfg.M
    return full[:m, :m], full[m:, m:], full[:m, m:]


def test_single_antenna_block():
    gram = assemble_gram(ArrayConfig(1, 1.0))
    assert gram.g_re.shape == (1, 1)
    assert gram.g_re[0, 0] == pytest.approx(np.pi, abs=1e-14)
    assert gram.g_im.shape == (0, 0)
    assert gram.size == 1


def test_two_antenna_entries_frozen():
    gram = assemble_gram(ArrayConfig(2, 1.0))
    expected_re = np.array([[np.pi, PI_J0_PI], [PI_J0_PI, COS1_COS1]])
    assert np.allclose(gram.g_re, expected_re, atol=1e-12)
    assert gram.g_im[0, 0] == pytest.approx(SIN1_SIN1, abs=1e-12)


def test_entries_match_quadrature_small():
    cfg = ArrayConfig(3, 0.5)
    g_re, g_im = gram_blocks(cfg)
    q_re, q_im, _ = quadrature_gram(cfg)
    assert np.max(np.abs(g_re - q_re)) <= 1e-10
    assert np.max(np.abs(g_im - q_im)) <= 1e-10


@pytest.mark.parametrize("m,gamma", [(8, 0.5), (8, 1.0), (8, 2.0), (12, 1.3)])
def test_entries_match_quadrature(m, gamma):
    cfg = ArrayConfig(m, gamma)
    g_re, g_im = gram_blocks(cfg)
    q_re, q_im, cross = quadrature_gram(cfg)
    assert np.max(np.abs(g_re - q_re)) <= 1e-10
    assert np.max(np.abs(g_im - q_im)) <= 1e-10
    # cosine/sine cross moments vanish by parity: the reason the matrix
    # is block diagonal at all
    assert np.max(np.abs(cross)) <= 1e-12


@pytest.mark.parametrize("m,gamma", [(1, 1.0), (2, 1.0), (64, 1.0), (1024, 1.0), (1024, 1.21)])
def test_blocks_bit_identical_to_elementwise_j0(m, gamma):
    # One J0 vector gathered by |m-n| and m+n must reproduce the
    # entrywise M^2 evaluation exactly, not merely within a tolerance.
    idx = np.arange(m)
    diff = gamma * np.pi * np.abs(idx[:, None] - idx[None, :])
    total = gamma * np.pi * (idx[:, None] + idx[None, :])
    ref_re = (np.pi / 2.0) * (bessel_j0(diff) + bessel_j0(total))
    ref_im = (np.pi / 2.0) * (bessel_j0(diff[1:, 1:]) - bessel_j0(total[1:, 1:]))
    g_re, g_im = gram_blocks(ArrayConfig(m, gamma))
    assert np.array_equal(g_re, ref_re)
    assert np.array_equal(g_im, ref_im)
    assert g_im.shape == (m - 1, m - 1)


def test_blocks_exactly_symmetric():
    for m, gamma in WELL_CONDITIONED:
        g_re, g_im = gram_blocks(ArrayConfig(m, gamma))
        assert np.array_equal(g_re, g_re.T)
        assert np.array_equal(g_im, g_im.T)


@pytest.mark.parametrize("m,gamma", WELL_CONDITIONED)
def test_positive_definite_factorization(m, gamma):
    gram = assemble_gram(ArrayConfig(m, gamma))
    assert np.all(np.diag(gram.chol_re) > 0)
    if m > 1:
        assert np.all(np.diag(gram.chol_im) > 0)
    assert gram.cond_estimate >= 1.0


def exact_one_norm_cond(gram):
    def pair(block):
        if block.shape[0] == 0:
            return 1.0, 1.0
        return np.linalg.norm(block, 1), np.linalg.norm(np.linalg.inv(block), 1)

    g_re, g_im = gram_blocks(gram.cfg)
    norm_re, inv_re = pair(g_re)
    norm_im, inv_im = pair(g_im)
    return max(norm_re, norm_im) * max(inv_re, inv_im)


@pytest.mark.parametrize("m,gamma", [
    *WELL_CONDITIONED, (64, 1.0), (64, 2.0), (100, 1.25), (257, 1.13), (300, 1.13),
    (1024, 1.13),
])
def test_cond_estimate_brackets_exact(m, gamma):
    # The 1-norm estimator never overshoots and stays within a factor 2 of
    # the explicit-inverse value, on the Cholesky path and from
    # TOEPLITZ_MIN_M up on the Toeplitz path. That reference itself
    # carries a relative rounding error of order cond * eps, which the
    # upper bound allows.
    gram = assemble_gram(ArrayConfig(m, gamma))
    exact = exact_one_norm_cond(gram)
    rounding = 64 * np.finfo(float).eps * exact
    assert 0.5 * exact <= gram.cond_estimate <= exact * (1.0 + rounding)


def _ceiling_message(m, gamma, estimate, ceiling):
    return (f"Gram condition estimate {estimate:.3e} exceeds ceiling {ceiling:.3e} "
            f"for M={m}, gamma={gamma:g}")


def test_default_ceiling_boundary():
    # cond is 8.1e11 at M = 9 and 2.8e13 at M = 10 for gamma = 0.5; the
    # estimate must land on the right side of 1e12 for both, and is exact
    # there up to the explicit inverse's own rounding (cond * eps ~ 2e-4).
    gram = assemble_gram(ArrayConfig(9, 0.5))
    assert gram.cond_estimate == pytest.approx(exact_one_norm_cond(gram), rel=1e-3)
    with pytest.raises(ConditioningError) as excinfo:
        assemble_gram(ArrayConfig(10, 0.5))
    assert excinfo.value.cond_estimate > 1e12
    assert str(excinfo.value) == _ceiling_message(10, 0.5, excinfo.value.cond_estimate, 1e12)


@pytest.mark.parametrize("m", [1, 2, 5, TOEPLITZ_MIN_M])
def test_gram_arrays_read_only(m):
    gram = assemble_gram(ArrayConfig(m, 1.0))
    names = ("spectrum", "generators") if m >= TOEPLITZ_MIN_M else (
        "g_re", "g_im", "chol_re", "chol_im")
    for name in names:
        with pytest.raises(ValueError):
            getattr(gram, name)[...] = 0.0


@pytest.mark.parametrize("m", [8, 256, 1024])
@pytest.mark.parametrize("extra", [-2, 2], ids=["2M-3", "2M+1"])
def test_quadratic_form_rejects_wrong_length(m, extra):
    # The Toeplitz path returned a number for 2M - 3 entries (510.74 for
    # ones(509) at M = 256), and the dense path raised numpy's matmul
    # error; both now check the length as solve does.
    gram = assemble_gram(ArrayConfig(m, 1.0))
    b = np.ones(2 * m - 1 + extra)
    message = f"coefficient length {b.size} does not match Gram size {2 * m - 1}"
    for coeffs in (b, TrigCoeffs(b)):
        with pytest.raises(ValueError, match=message):
            gram.quadratic_form(coeffs)


def test_quadratic_form_matches_norm(rng):
    cfg = ArrayConfig(6, 1.0)
    gram = assemble_gram(cfg)
    points, weights = weighted_quadrature_points(512)
    for _ in range(5):
        b = rng.uniform(-1, 1, 2 * cfg.M - 1)
        form = gram.quadratic_form(b)
        samples = trig_basis(cfg, points) @ b
        norm_sq = float(weights @ (samples * samples))
        assert form == pytest.approx(norm_sq, rel=1e-9)


def test_conditioning_error_for_tiny_gamma():
    with pytest.raises(ConditioningError):
        assemble_gram(ArrayConfig(8, 1e-6))


def test_indefinite_factorization_names_configuration():
    with pytest.raises(ConditioningError) as excinfo:
        assemble_gram(ArrayConfig(8, 1e-6))
    message = str(excinfo.value)
    assert "M=8" in message
    assert "gamma=1e-06" in message
    assert "numerically indefinite" in message


@pytest.mark.parametrize("m", [1, 2, 3, 64, 191, 192, TOEPLITZ_MIN_M - 1])
def test_factors_match_scipy_cholesky(m):
    # Below TOEPLITZ_MIN_M LAPACK factorizes the symmetric blocks in
    # column-major order, and the factors are those of scipy's row-major
    # cholesky, bit for bit.
    gram = assemble_gram(ArrayConfig(m, 1.13))
    assert np.array_equal(gram.chol_re, scipy.linalg.cholesky(gram.g_re, lower=True))
    assert gram.chol_re.flags.f_contiguous
    assert not np.triu(gram.chol_re, 1).any()
    if m > 1:
        assert np.array_equal(gram.chol_im, scipy.linalg.cholesky(gram.g_im, lower=True))
        assert gram.chol_im.flags.f_contiguous
        assert not np.triu(gram.chol_im, 1).any()
    else:
        assert gram.chol_im.shape == (0, 0)


def scipy_one_norm_cond(gram):
    """The condition estimate through numpy's 1-norm and scipy's checked
    ``dpocon`` wrapper on the same factors."""
    def pair(block, factor):
        if block.shape[0] == 0:
            return 1.0, 1.0
        anorm = np.linalg.norm(block, 1)
        rcond, _ = scipy.linalg.lapack.dpocon(factor, anorm, uplo="L")
        return anorm, (np.inf if rcond == 0.0 else 1.0 / (rcond * anorm))

    norm_re, inv_re = pair(gram.g_re, gram.chol_re)
    norm_im, inv_im = pair(gram.g_im, gram.chol_im)
    return max(norm_re, norm_im) * max(inv_re, inv_im)


@pytest.mark.parametrize("m", [1, 2, 3, 64, 192, TOEPLITZ_MIN_M - 1])
def test_cond_estimate_matches_scipy_wrappers(m):
    # Not equality: the last bit of dpocon's estimate at large M can vary
    # between runs on the same factor.
    gram = assemble_gram(ArrayConfig(m, 1.13))
    assert gram.cond_estimate == pytest.approx(scipy_one_norm_cond(gram), rel=1e-15, abs=0)


@pytest.mark.parametrize("m,gamma", [(TOEPLITZ_MIN_M, 1.0), (300, 1.13), (1024, 1.13)])
def test_toeplitz_cond_estimate_matches_dpocon(m, gamma):
    # A Toeplitz Gram's estimate is dpocon's on the dense Cholesky factors,
    # up to the last bit, which can vary between two runs of dpocon.
    cfg = ArrayConfig(m, gamma)
    g_re, g_im = gram_blocks(cfg)
    chol_re = scipy.linalg.cholesky(g_re, lower=True)
    chol_im = scipy.linalg.cholesky(g_im, lower=True)
    dense = GramMatrix(cfg, g_re=g_re, g_im=g_im, chol_re=chol_re, chol_im=chol_im)
    gram = assemble_gram(cfg)
    assert gram.chol_re is None
    assert gram.cond_estimate == pytest.approx(scipy_one_norm_cond(dense), rel=1e-15, abs=0)


def test_cond_estimate_is_deterministic(monkeypatch):
    # Two assemblies of one configuration give the same estimate up to
    # dpocon's last bit, one Gram gives the same bits on every read, and
    # neither touches numpy's global random state.
    cfg = ArrayConfig(512, 1.07)
    state = np.random.get_state()
    estimates = []
    for _ in range(2):
        monkeypatch.setattr(gram_module, "_cached", None)
        gram = assemble_gram(cfg)
        estimates.append(gram.cond_estimate)
        assert np.float64(gram.cond_estimate).tobytes() == np.float64(estimates[-1]).tobytes()
    assert estimates[0] == pytest.approx(estimates[1], rel=1e-15, abs=0)
    after = np.random.get_state()
    assert after[0] == state[0] and np.array_equal(after[1], state[1])
    assert after[2:] == state[2:]


def _indefinite_message(m, gamma, minor):
    return (f"Gram factorization failed for M={m}, gamma={gamma:g}: matrix is "
            f"numerically indefinite (leading minor {minor} is not positive definite)")


def _assemble_on_a_thread(cfg):
    """``assemble_gram(cfg)`` run on a worker thread; its exception is
    re-raised on the caller's."""
    raised = []

    def run():
        try:
            assemble_gram(cfg)
        except BaseException as exc:
            raised.append(exc)

    worker = threading.Thread(target=run, name="apsrec-gram")
    worker.start()
    worker.join()
    if raised:
        raise raised[0]


@pytest.mark.parametrize("on_thread", [True, False], ids=["split", "inline"])
@pytest.mark.parametrize("m,gamma,failing,minor", [
    (10, 0.4, "cosine", 10),
    (2, 1e-9, "sine", 1),
    (8, 1e-6, "both", 3),
], ids=["cosine", "sine", "both"])
def test_indefinite_block_errors_on_both_paths(monkeypatch, m, gamma, failing, minor,
                                               on_thread):
    # Assembly is serial; "split" runs it on a worker thread, "inline" on
    # the calling thread, and both raise the same error.
    cfg = ArrayConfig(m, gamma)
    outcomes = []
    for block in gram_blocks(cfg):
        try:
            scipy.linalg.cholesky(block, lower=True)
            outcomes.append(False)
        except np.linalg.LinAlgError:
            outcomes.append(True)
    assert outcomes == {"cosine": [True, False], "sine": [False, True],
                        "both": [True, True]}[failing]
    monkeypatch.setattr(gram_module, "_cached", None)
    with pytest.raises(ConditioningError) as excinfo:
        (_assemble_on_a_thread if on_thread else assemble_gram)(cfg)
    # The cosine block's error wins when both fail: it is factorized first.
    assert str(excinfo.value) == _indefinite_message(m, gamma, minor)
    # The worker was joined, and a new configuration still assembles to
    # scipy's factors.
    assert not [t for t in threading.enumerate() if t.name == "apsrec-gram"]
    gram = assemble_gram(ArrayConfig(16, 1.07))
    assert np.array_equal(gram.chol_re, scipy.linalg.cholesky(gram.g_re, lower=True))
    assert np.array_equal(gram.chol_im, scipy.linalg.cholesky(gram.g_im, lower=True))


@pytest.mark.parametrize("m,gamma,levinson", [
    (512, 0.9, True),
    (512, 0.95, False),
    (256, 0.8, True),
    (512, 1e-6, True),
])
def test_toeplitz_conditioning_fails_loudly(m, gamma, levinson):
    # Levinson recursion is only weakly stable: at (512, 0.9) and
    # (256, 0.8) it returns T^-1 e_1 with a non-positive first entry, and
    # at (512, 1e-6) it breaks down. Each is raised as an indefinite
    # matrix, as the Cholesky path raises them. (512, 0.95) passes
    # Levinson, its bound exceeds the ceiling, and the dense Cholesky
    # behind its estimate finds the matrix indefinite.
    with pytest.raises(ConditioningError) as excinfo:
        assemble_gram(ArrayConfig(m, gamma))
    message = str(excinfo.value)
    assert f"M={m}, gamma={gamma:g}" in message
    assert "numerically indefinite" in message
    assert excinfo.value.cond_estimate is None
    if levinson:
        assert message.startswith(f"Gram factorization failed for M={m}, gamma={gamma:g}: "
                                  "matrix is numerically indefinite (Levinson recursion ")
    else:
        assert gram_module._factor(ArrayConfig(m, gamma))._cond_bound > 1e12
        assert message == _indefinite_message(m, gamma, 122)
    assert gram_module._cached is None


def test_toeplitz_estimate_trips_ceiling():
    # At (1024, 0.995) Levinson and the dense Cholesky both pass, and the
    # error carries the dpocon estimate, not the O(M) bound.
    cfg = ArrayConfig(1024, 0.995)
    gram = gram_module._factor(cfg)
    estimate = gram.cond_estimate
    assert 1e12 < estimate < gram._cond_bound
    with pytest.raises(ConditioningError) as excinfo:
        assemble_gram(cfg)
    assert excinfo.value.cond_estimate == pytest.approx(estimate, rel=1e-15, abs=0)
    assert str(excinfo.value) == _ceiling_message(1024, 0.995, excinfo.value.cond_estimate, 1e12)
    assert gram_module._cached is None


@pytest.mark.parametrize("m,gamma", [(512, 3e-6), (512, 1e-5), (1024, 0.01), (1024, 0.02)])
def test_singular_toeplitz_gram_raises(m, gamma):
    # Levinson returns a finite x with x_0 > 0 here, but the bound
    # overflows to inf (without a warning) and the dense Cholesky behind
    # the estimate fails. Assembly and recovery raise ConditioningError
    # rather than accept the Gram with a NaN estimate.
    cfg = ArrayConfig(m, gamma)
    lags = np.ones(m, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gram_module._toeplitz(cfg)._cond_bound == np.inf
        with pytest.raises(ConditioningError, match="numerically indefinite"):
            assemble_gram(cfg)
        with pytest.raises(ConditioningError, match="numerically indefinite"):
            recover(lags, cfg)
    assert gram_module._cached is None


@pytest.mark.parametrize("m,ceiling", [(8, 1e12), (TOEPLITZ_MIN_M, 100.0)])
def test_ceiling_fails_closed_on_nan_estimate(monkeypatch, m, ceiling):
    # A NaN estimate is not under any ceiling. The dense Gram has no
    # bound; the Toeplitz one's (854) is over the ceiling here, and its
    # real estimate (49) under it.
    cfg = ArrayConfig(m, 1.0)
    monkeypatch.setattr(gram_module, "_cached", None)
    monkeypatch.setattr(gram_module, "DEFAULT_COND_CEILING", ceiling)
    assert assemble_gram(cfg).cond_estimate < ceiling
    monkeypatch.setattr(gram_module, "_cached", None)
    monkeypatch.setattr(GramMatrix, "cond_estimate", property(lambda self: np.nan))
    with pytest.raises(ConditioningError, match="exceeds ceiling") as excinfo:
        assemble_gram(cfg)
    assert np.isnan(excinfo.value.cond_estimate)
    assert gram_module._cached is None


@pytest.mark.parametrize("m", [TOEPLITZ_MIN_M, 300, 513, 1024])
def test_toeplitz_cond_bound_covers_estimate(m):
    # The O(M) bound from the column and T^-1 e_1 never undercuts the
    # estimate, so a ceiling it clears is one the estimate clears too; up
    # to M = 513 it also covers the explicit-inverse condition number. At
    # (1024, 0.99) the dense Cholesky behind the estimate fails, and
    # reading it raises.
    for gamma in np.linspace(0.99, 1.3, 8):
        gram = gram_module._factor(ArrayConfig(m, float(gamma)))
        if (m, gamma) == (1024, 0.99):
            with pytest.raises(ConditioningError, match="numerically indefinite"):
                gram.cond_estimate
            continue
        assert gram._cond_bound >= gram.cond_estimate
        if m <= 513:
            assert gram._cond_bound >= exact_one_norm_cond(gram)


@pytest.mark.parametrize("m,gamma", [(TOEPLITZ_MIN_M, 1.0), (1024, 1.13)])
def test_ceiling_between_estimate_and_bound(monkeypatch, m, gamma):
    # Past the bound the estimate decides: a ceiling above it passes, one
    # below it raises with the estimate, fresh or cached. The cached Gram
    # raises with its own estimate bit for bit; a fresh one's may differ
    # from another Gram's in dpocon's last bit.
    cfg = ArrayConfig(m, gamma)
    estimate = gram_module._factor(cfg).cond_estimate
    monkeypatch.setattr(gram_module, "_cached", None)
    monkeypatch.setattr(gram_module, "DEFAULT_COND_CEILING", 1.5 * estimate)
    gram = assemble_gram(cfg)
    assert gram._cond_bound > 1.5 * estimate
    assert gram.cond_estimate == pytest.approx(estimate, rel=1e-15, abs=0)
    for cached in (True, False):
        if not cached:
            monkeypatch.setattr(gram_module, "_cached", None)
        monkeypatch.setattr(gram_module, "DEFAULT_COND_CEILING", estimate / 1.5)
        with pytest.raises(ConditioningError) as excinfo:
            assemble_gram(cfg)
        raised = excinfo.value.cond_estimate
        if cached:
            assert np.float64(raised).tobytes() == np.float64(gram.cond_estimate).tobytes()
        assert raised == pytest.approx(estimate, rel=1e-15, abs=0)
        assert str(excinfo.value) == _ceiling_message(m, gamma, raised, estimate / 1.5)


def _toeplitz_column(m, gamma):
    return np.pi * bessel_j0(gamma * np.pi * np.arange(2 * m - 1))


def _levinson(column):
    return scipy.linalg.solve_toeplitz(column, np.eye(1, column.size)[0])


@pytest.mark.parametrize("gamma", [1.0, 1.0001, 1.13, 1.25, 2.0])
@pytest.mark.parametrize("m", [TOEPLITZ_MIN_M, 608, 768, 1024, 1025, 2048])
def test_pcg_matches_levinson(m, gamma):
    # Preconditioned CG gives Levinson's T^-1 e_1 to rounding.
    column = _toeplitz_column(m, gamma)
    x = gram_module._pcg(column, gram_module._spectrum(column), gamma)
    expected = _levinson(column)
    assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("gamma", [1.0, 1.0001, 1.13, 1.25, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("m", [512, 1024, 1025, 2048, 4096, 8192])
def test_pcg_stops_within_twenty_steps(monkeypatch, m, gamma):
    # With its parity-split recurrences the symbol-averaged preconditioner
    # stops every run on this grid within 7-13 steps (8-19 with one
    # recurrence on the whole vector); the cap is that maximum plus 2.
    monkeypatch.setattr(gram_module, "_PCG_MAX_STEPS", 15)
    column = _toeplitz_column(m, gamma)
    assert gram_module._pcg(column, gram_module._spectrum(column), gamma) is not None


@pytest.mark.parametrize("gamma", [1.0, 1.25, 3.0, 32.0])
@pytest.mark.parametrize("m", [TOEPLITZ_MIN_M, 608, 1024, 4096])
def test_pcg_raises_no_floating_point_error(m, gamma):
    # No step of either parity divides by zero, overflows or makes a NaN,
    # from the Toeplitz crossover to 4096 and up to the gamma cap, and
    # every run returns x.
    column = _toeplitz_column(m, gamma)
    with np.errstate(all="raise"):
        x = gram_module._pcg(column, gram_module._spectrum(column), gamma)
    assert x is not None and np.all(np.isfinite(x))


def _large_array_lags(rng, cfg):
    """Lags shaped as the benchmark's large-array inputs: a few sources
    plus noise, with a raised zero lag."""
    count = int(rng.integers(3, 8))
    angles, powers = rng.uniform(-1.3, 1.3, count), rng.uniform(0.5, 2.0, count)
    kappas = cfg.gamma * np.pi * np.arange(cfg.M)
    lags = np.exp(1j * np.multiply.outer(kappas, np.sin(angles))) @ powers
    lags += 0.01 * (rng.standard_normal(cfg.M) + 1j * rng.standard_normal(cfg.M))
    lags[0] = lags[0].real + 0.3
    return lags


def test_pcg_recovery_matches_levinson(monkeypatch, rng):
    # A recovery through the CG generators gives the Levinson build's
    # coefficients to rounding, and meets the same feasibility tolerance.
    for _ in range(20):
        cfg = ArrayConfig(1024, float(rng.uniform(1.0, 1.25)))
        lags = _large_array_lags(rng, cfg)
        monkeypatch.setattr(gram_module, "_cached", None)
        solution = recover(lags, cfg)
        with monkeypatch.context() as levinson:
            levinson.setattr(gram_module, "_pcg", lambda column, spectrum, gamma: None)
            levinson.setattr(gram_module, "_cached", None)
            expected = recover(lags, cfg).coeffs.b
        b = solution.coeffs.b
        assert np.max(np.abs(b - expected)) <= 1e-13 * np.max(np.abs(expected))
        tolerance = DEFAULT_RESIDUAL_TOL * (1.0 + np.max(np.abs(lags)))
        assert solution.constraint_residual <= tolerance


@pytest.mark.parametrize("gamma", [1.0, 1.13, 1.25, 1.5, 2.0])
@pytest.mark.parametrize("m", [8, 64, 128, 256])
def test_symbol_bounds_toeplitz_spectrum(m, gamma):
    # For gamma >= 1 the symbol of T is at least 1 on [-pi, pi], so every
    # eigenvalue exceeds 2/gamma, and so does every cell average behind
    # CG's preconditioner. Over the full circle the averages integrate f,
    # whose mean is t_0 = pi, and on cells clear of its singularities at
    # |w + 2 pi j| = gamma pi they match f at the cell centre to O(1/N^2).
    column = _toeplitz_column(m, gamma)
    assert scipy.linalg.eigvalsh(scipy.linalg.toeplitz(column))[0] >= (2.0 / gamma) * (1.0 - 1e-12)
    size = gram_module._fft_size(column.size)
    means = gram_module._symbol_means(gamma, size)
    assert means.shape == (size // 2 + 1,)
    assert np.min(means) >= (2.0 / gamma) * (1.0 - 1e-12)
    assert means[0] + 2.0 * means[1:-1].sum() + means[-1] == pytest.approx(size * np.pi, rel=1e-12)
    omega = 2.0 * np.pi * np.arange(size // 2 + 1) / size
    x = np.add.outer(omega, 2.0 * np.pi * np.arange(-2, 3)) / (gamma * np.pi)
    inside = np.abs(x) < 1.0
    symbol = (2.0 / gamma) * np.sum(inside / np.sqrt(1.0 - np.where(inside, x, 0.0)**2), axis=1)
    clear = np.all(np.abs(np.abs(x) - 1.0) > 0.25, axis=1)
    assert np.all(np.abs(means - symbol)[clear] <= 50.0 / size**2 * symbol[clear])


def test_symbol_bound_fails_below_unit_spacing():
    # Below gamma = 1 the symbol vanishes on part of the circle, and the
    # smallest eigenvalue falls far below 2/gamma (0.12 at (128, 0.99)),
    # which is why those arrays stay on Levinson recursion. Some cell
    # averages there are zero, and CG declines such gamma before dividing.
    full = scipy.linalg.toeplitz(_toeplitz_column(128, 0.99))
    assert scipy.linalg.eigvalsh(full)[0] < 2.0 / 0.99 / 10.0
    for m, gamma in [(512, 0.9), (1024, 0.99)]:
        column = _toeplitz_column(m, gamma)
        assert np.min(gram_module._symbol_means(gamma, gram_module._fft_size(column.size))) == 0.0
        with np.errstate(all="raise"):
            assert gram_module._pcg(column, gram_module._spectrum(column), gamma) is None


def _levinson_gram(cfg):
    """The Toeplitz Gram's generators and condition bound, built from
    Levinson recursion alone."""
    column = _toeplitz_column(cfg.M, cfg.gamma)
    n = column.size
    x = _levinson(column)
    x_norm = np.abs(x).sum()
    bound = 2.0 * 1.5 * np.abs(column).sum() * 4.0 * (x_norm**2 + (x_norm - x[0])**2) / x[0]
    generators = np.zeros((2, gram_module._fft_size(n)))
    generators[0, :n], generators[1, 1:n] = x, x[:0:-1]
    return np.fft.rfft(generators / np.sqrt(x[0])), float(bound)


@pytest.mark.parametrize("failure", ["reported", "step cap"])
def test_failed_pcg_falls_back_to_levinson(monkeypatch, failure):
    # A CG run that fails, whether reported so or cut off by its step
    # cap, leaves the Gram to Levinson recursion, bit for bit.
    cfg = ArrayConfig(1024, 1.13)
    if failure == "reported":
        monkeypatch.setattr(gram_module, "_pcg", lambda column, spectrum, gamma: None)
    else:
        monkeypatch.setattr(gram_module, "_PCG_MAX_STEPS", 3)
    gram = gram_module._factor(cfg)
    generators, bound = _levinson_gram(cfg)
    assert np.array_equal(gram.generators, generators)
    assert gram._cond_bound == bound


@pytest.mark.parametrize("m,gamma,levinson", [
    (TOEPLITZ_MIN_M, 1.13, False), (TOEPLITZ_MIN_M, 0.999, True), (TOEPLITZ_MIN_M, 1.0, False),
    (TOEPLITZ_MIN_M, PCG_MAX_GAMMA, False), (TOEPLITZ_MIN_M, 2.0 * PCG_MAX_GAMMA, True),
], ids=["cg-from-toeplitz-min", "below-unit-spacing", "at-crossover", "at-gamma-cap",
        "above-gamma-cap"])
def test_pcg_runs_only_from_crossover_at_unit_spacing(monkeypatch, m, gamma, levinson):
    # Every Toeplitz Gram tries CG; Levinson recursion builds x below
    # gamma = 1 and above the gamma cap, where the symbol's aliases grow
    # costly.
    runs = []
    pcg = gram_module._pcg
    monkeypatch.setattr(gram_module, "_pcg", lambda *args: runs.append(pcg(*args)) or runs[-1])
    gram = gram_module._factor(ArrayConfig(m, gamma))
    ran = [x is not None for x in runs]
    assert ran == [not levinson]
    if levinson:
        assert np.array_equal(gram.generators, _levinson_gram(gram.cfg)[0])


def test_pcg_generators_independent_of_alignment(monkeypatch):
    # The CG generators do not depend on where the J0 column lies in
    # memory: the same bytes from eight 8-byte offsets.
    j0 = gram_module.bessel_j0
    digests = set()
    for offset in range(8):
        def shifted(values, offset=offset):
            out = j0(values)
            buffer = np.empty(out.size + 8)[offset:offset + out.size]
            buffer[...] = out
            return buffer

        monkeypatch.setattr(gram_module, "bessel_j0", shifted)
        for m in (1024, 2048):
            gram = gram_module._factor(ArrayConfig(m, 1.13))
            digests.add((m, gram.generators.tobytes(), gram._cond_bound))
    assert len(digests) == 2


def test_pcg_generators_independent_of_blas_threads():
    # One and two BLAS threads build the same CG generators, bit for bit.
    script = textwrap.dedent("""
        import hashlib
        from apsrec.core import ArrayConfig
        from apsrec.gram import _factor

        digest = hashlib.sha256()
        for m in (1024, 2048):
            for gamma in (1.0, 1.13):
                digest.update(_factor(ArrayConfig(m, gamma)).generators.tobytes())
        print(digest.hexdigest())
    """)
    package_root = str(Path(gram_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("gamma", [1.0, 1.13, 1.25])
def test_pcg_keeps_condition_bound(gamma):
    # The ceiling bound from CG's x is Levinson's to rounding, and so is
    # every generator.
    cfg = ArrayConfig(1024, gamma)
    gram = gram_module._factor(cfg)
    generators, bound = _levinson_gram(cfg)
    assert gram._cond_bound == pytest.approx(bound, rel=1e-13, abs=0)
    assert np.max(np.abs(gram.generators - generators)) <= 1e-13 * np.max(np.abs(generators))


def test_recover_runs_no_condition_estimate(monkeypatch, rng):
    # Under the default ceiling the bound settles a large Gram, so a
    # recovery never builds the dense factors behind the estimate; read
    # afterwards, the estimate is dpocon's.
    cfg = ArrayConfig(1024, 1.13)
    dense_gram = gram_module._dense

    def refuse(cfg):
        raise RuntimeError("condition estimate run during recover")

    monkeypatch.setattr(gram_module, "_cached", None)
    monkeypatch.setattr(gram_module, "_dense", refuse)
    lags = rng.normal(size=cfg.M) + 1j * rng.normal(size=cfg.M)
    lags[0] = abs(lags[0]) + cfg.M
    solution = recover(lags, cfg)
    gram = assemble_gram(cfg)
    assert "cond_estimate" not in vars(gram)
    monkeypatch.setattr(gram_module, "_dense", dense_gram)
    assert np.all(np.isfinite(solution.coeffs.b))
    g_re, g_im = gram_blocks(cfg)
    dense = GramMatrix(cfg, g_re=g_re, g_im=g_im, chol_re=scipy.linalg.cholesky(g_re, lower=True),
                       chol_im=scipy.linalg.cholesky(g_im, lower=True))
    assert gram.cond_estimate == pytest.approx(scipy_one_norm_cond(dense), rel=1e-15, abs=0)


def test_cond_estimate_read_from_threads_matches_serial(monkeypatch):
    # Four threads read the estimate of one freshly assembled Gram at
    # once; each sees the same bits, which are the Gram's own, and match
    # a separately built Gram's up to dpocon's last bit.
    cfg = ArrayConfig(1024, 1.13)
    serial = gram_module._factor(cfg).cond_estimate
    monkeypatch.setattr(gram_module, "_cached", None)
    gram = assemble_gram(cfg)
    assert "cond_estimate" not in vars(gram)
    barrier = threading.Barrier(4)
    values = [None] * 4

    def read(i):
        barrier.wait()
        values[i] = gram.cond_estimate

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    own = np.float64(gram.cond_estimate).tobytes()
    assert [np.float64(v).tobytes() for v in values] == [own] * 4
    assert gram.cond_estimate == pytest.approx(serial, rel=1e-15, abs=0)


def test_assembly_starts_no_thread(monkeypatch):
    # Assembly starts no thread on either path, so it works where none
    # can be started.
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for m in (TOEPLITZ_MIN_M - 1, TOEPLITZ_MIN_M):
        monkeypatch.setattr(gram_module, "_cached", None)
        gram = assemble_gram(ArrayConfig(m, 1.0))
        y = np.ones(gram.size)
        assert np.max(np.abs(full_matrix(gram.cfg) @ solve(gram, y).b - y)) <= 1e-10


@pytest.mark.parametrize("affinity,cpu_count", [
    ({0}, 2),
    ({0, 1}, 1),
    (None, 1),
    (None, None),
    (None, 2),
], ids=["affinity-1", "affinity-2", "cpu_count-1", "cpu_count-unknown", "cpu_count-2"])
def test_assembly_ignores_cpu_count_and_affinity(monkeypatch, affinity, cpu_count):
    # Assembly depends on neither the affinity mask nor the CPU count: it
    # starts no thread and gives the same Gram on either path, whose
    # estimates may differ only in dpocon's last bit.
    expected = {}
    for m in (TOEPLITZ_MIN_M - 1, TOEPLITZ_MIN_M):
        monkeypatch.setattr(gram_module, "_cached", None)
        expected[m] = assemble_gram(ArrayConfig(m, 1.0)).cond_estimate
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    started = []
    start = threading.Thread.start

    def record(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", record)
    for m in (TOEPLITZ_MIN_M - 1, TOEPLITZ_MIN_M):
        monkeypatch.setattr(gram_module, "_cached", None)
        estimate = assemble_gram(ArrayConfig(m, 1.0)).cond_estimate
        assert estimate == pytest.approx(expected[m], rel=1e-15, abs=0)
    assert started == []


def test_assembly_after_main_thread_returns():
    # A non-daemon thread may still assemble a new Gram after the main
    # thread has returned, while the interpreter waits to join it; by
    # then concurrent.futures executors refuse new work.
    script = textwrap.dedent(f"""
        import os, threading, time, traceback
        from apsrec.core import ArrayConfig
        from apsrec.gram import assemble_gram

        def late():
            threading.main_thread().join()
            time.sleep(0.2)
            try:
                assemble_gram(ArrayConfig({TOEPLITZ_MIN_M}, 1.0))
            except BaseException:
                traceback.print_exc()
                os._exit(1)

        threading.Thread(target=late).start()
    """)
    package_root = str(Path(gram_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr


def test_conditioning_ceiling_reported():
    # gamma = 0.5 at M = 12 is numerically near-singular (cond ~ 1e16):
    # either the factorization fails or the ceiling trips; both must
    # surface as ConditioningError.
    with pytest.raises(ConditioningError) as excinfo:
        assemble_gram(ArrayConfig(12, 0.5))
    assert "M=12" in str(excinfo.value)


def test_custom_ceiling(monkeypatch):
    monkeypatch.setattr(gram_module, "DEFAULT_COND_CEILING", 5.0)
    with pytest.raises(ConditioningError) as excinfo:
        assemble_gram(ArrayConfig(8, 1.0))
    assert excinfo.value.cond_estimate is not None
    assert excinfo.value.cond_estimate > 5.0


def test_cache_returns_same_object_for_equal_configs():
    assert assemble_gram(ArrayConfig(64, 1)) is assemble_gram(ArrayConfig(64, 1.0))


def test_cache_drops_previous_gram_before_assembly(monkeypatch):
    # At most one cached Gram may be alive: the old entry must be gone
    # by the time the next configuration's blocks are built.
    gram = assemble_gram(ArrayConfig(7, 1.0))
    ref = weakref.ref(gram)
    del gram
    alive_during_assembly = []
    blocks = gram_module.gram_blocks

    def recording_blocks(cfg):
        alive_during_assembly.append(ref() is not None)
        return blocks(cfg)

    monkeypatch.setattr(gram_module, "gram_blocks", recording_blocks)
    assemble_gram(ArrayConfig(8, 1.0))
    gc.collect()
    assert ref() is None
    assert alive_during_assembly == [False]


def test_cache_checks_ceiling_on_every_call(monkeypatch):
    cfg = ArrayConfig(8, 1.0)
    gram = assemble_gram(cfg)
    with monkeypatch.context() as ceiling, pytest.raises(ConditioningError) as excinfo:
        ceiling.setattr(gram_module, "DEFAULT_COND_CEILING", 5.0)
        assemble_gram(cfg)
    assert excinfo.value.cond_estimate > 5.0
    assert assemble_gram(cfg) is gram


def test_cache_never_holds_a_failing_config():
    for _ in range(2):
        with pytest.raises(ConditioningError):
            assemble_gram(ArrayConfig(12, 0.5))


def _filled_workspace(cfg, rng):
    """recover, evaluate and summarize at ``cfg``, so the cached Gram
    keeps the rule (its nodes, weights and kernel table, and the audit's
    Q as two dense blocks), and a grid and its kernel table."""
    lags = rng.normal(size=cfg.M) + 1j * rng.normal(size=cfg.M)
    lags[0] = abs(lags[0]) + cfg.M
    solution = recover(lags, cfg)
    evaluate_solution(solution, np.linspace(-np.pi / 2, np.pi / 2, 31))
    negativity_summary(solution)
    return gram_module._cached


def _kept_arrays(entry):
    """Every array kept with ``entry``: the entries' arrays and those of
    the tuples in them (kernel tables' baby rows and giant steps, the
    rule record and its Q)."""

    def arrays(item):
        if isinstance(item, np.ndarray):
            return [item]
        return [array for part in item for array in arrays(part)] if isinstance(item, tuple) else []

    return arrays(tuple(entry._kept.values()))


def test_workspace_drops_gram_and_tables_before_assembly(monkeypatch, rng):
    # One slot: the old Gram and every table kept with it must be gone
    # by the time the next configuration's blocks are built.
    entry = _filled_workspace(ArrayConfig(7, 1.0), rng)
    assert entry.cfg == ArrayConfig(7, 1.0)
    assert sorted(map(str, entry._kept)) == ["grid", "rule"]
    refs = [weakref.ref(entry)]
    refs += [weakref.ref(array) for array in _kept_arrays(entry)]
    del entry
    alive_during_assembly = []
    blocks = gram_module.gram_blocks

    def recording_blocks(cfg):
        alive_during_assembly.append([ref() is not None for ref in refs])
        return blocks(cfg)

    monkeypatch.setattr(gram_module, "gram_blocks", recording_blocks)
    assemble_gram(ArrayConfig(8, 1.0))
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert alive_during_assembly == [[False] * len(refs)]


def test_cache_miss_stream_keeps_no_earlier_rule_or_table(monkeypatch, rng):
    # After a stream of fresh-gamma misses at M = 1024, only the last
    # configuration's rule and tables are alive: no quadrature table,
    # kernel table or Q of an earlier one outlives its Gram.
    refs, current = [], [None]
    points, exp_table = plv.weighted_quadrature_points, core._exp_table

    def recording_points(nodes):
        table = points(nodes)
        refs.extend((current[0], weakref.ref(array)) for array in table)
        return table

    def recording_table(cfg, x):
        table = exp_table(cfg, x)
        refs.extend((current[0], weakref.ref(array)) for array in (table.baby, table.giant))
        return table

    monkeypatch.setattr(plv, "weighted_quadrature_points", recording_points)
    monkeypatch.setattr(core, "_exp_table", recording_table)
    monkeypatch.setattr(plv, "_exp_table", recording_table)
    stream = [ArrayConfig(1024, gamma) for gamma in np.linspace(1.0, 1.25, 6)]
    for cfg in stream:
        current[0] = cfg
        lags = rng.normal(size=cfg.M) + 1j * rng.normal(size=cfg.M)
        lags[0] = abs(lags[0]) + cfg.M
        recover(lags, cfg)
        refs.extend((cfg, weakref.ref(array)) for array in _kept_arrays(gram_module._cached))
    gc.collect()
    assert {cfg for cfg, ref in refs} == set(stream)
    assert {cfg for cfg, ref in refs if ref() is not None} == {stream[-1]}


@pytest.mark.parametrize("failing", [ArrayConfig(12, 0.5), ArrayConfig(8, 1e-6)],
                         ids=["ceiling", "cholesky"])
def test_failing_config_leaves_no_workspace(failing, rng):
    _filled_workspace(ArrayConfig(7, 1.0), rng)
    with pytest.raises(ConditioningError):
        assemble_gram(failing)
    assert gram_module._cached is None


def test_workspace_tables_read_only(rng):
    entry = _filled_workspace(ArrayConfig(9, 1.0), rng)
    arrays = _kept_arrays(entry)
    assert len(arrays) == 9
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_workspace_keeps_only_default_counts_and_small_tables(rng):
    # recover and the summary keep one rule: its 2048-node floor, its
    # kernel table and Q.
    cfg = ArrayConfig(10, 1.0)
    assemble_gram(ArrayConfig(5, 1.0))  # start from an empty slot
    solution = recover(np.ones(cfg.M, dtype=complex), cfg)
    negativity_summary(solution)
    assert gram_module._cached.cfg == cfg
    assert sorted(map(str, gram_module._cached._kept)) == ["rule"]
    rule = gram_module._cached._kept["rule"]
    assert rule.x.shape == rule.w.shape == rule.table.giant.shape == (1024,)
    assert [block.shape for block in rule.audit] == [(10, 10), (9, 9)]
    # At M = 1024 the rule's table is 32 baby rows and a giant step of
    # its 2080 nodes x >= 0, about 1.1 MB, and Q is one FFT row of the
    # 4096-point circulant.
    big = ArrayConfig(1024, 1.0)
    negativity_summary(recover(np.ones(big.M, dtype=complex), big))
    assert gram_module._cached.cfg == big
    assert sorted(map(str, gram_module._cached._kept)) == ["rule"]
    rule = gram_module._cached._kept["rule"]
    assert rule.table.baby.shape == (32, 2080)
    assert [row.shape for row in rule.audit] == [(2049,)]


def test_cache_grid_table_over_kept_size_is_not_kept():
    # At M = 64 the 8 baby rows and the giant step of 120,000 points take
    # 17.3 MB, past the 16 MiB cap: that table serves the call only, and
    # the earlier grid's table stays kept.
    cfg = ArrayConfig(64, 1.0)
    solution = recover(np.ones(cfg.M, dtype=complex), cfg)
    small, large = np.linspace(-1.0, 1.0, 11), np.linspace(-1.0, 1.0, 120_000)
    solution.g(small)
    values = solution.g(large)
    assert np.array_equal(values, TrigPolynomial(cfg, solution.coeffs).g(large))
    dense = np.concatenate([trig_basis(cfg, part) @ solution.coeffs.b
                            for part in np.split(large, 10)])
    assert np.max(np.abs(values - dense)) <= 1e-13 * (1.0 + np.max(np.abs(values)))
    assert np.array_equal(gram_module._cached._kept["grid"][0], small)


@pytest.mark.parametrize("m", [1, 2, 64, TOEPLITZ_MIN_M - 1])
def test_solve_bit_identical_to_checked_cho_solve(m, rng):
    cfg = ArrayConfig(m, 1.0)
    gram = assemble_gram(cfg)
    assert assemble_gram(cfg) is gram
    y = rng.uniform(-1, 1, gram.size)

    def checked(block, factor, rhs):
        if rhs.size == 0:
            return rhs.copy()
        sol = scipy.linalg.cho_solve((factor, True), rhs, check_finite=True)
        sol += scipy.linalg.cho_solve((factor, True), rhs - block @ sol, check_finite=True)
        return sol

    expected = np.concatenate([
        checked(gram.g_re, gram.chol_re, y[:m]),
        checked(gram.g_im, gram.chol_im, y[m:]),
    ])
    assert np.array_equal(solve(gram, y).b, expected)


def _cholesky_solve(cfg, y):
    """Reference solve: scipy's Cholesky of each dense block, refined once."""
    M = cfg.M
    parts = []
    for block, rhs in zip(gram_blocks(cfg), (y[:M], y[M:])):
        factor = scipy.linalg.cho_factor(block, lower=True)
        sol = scipy.linalg.cho_solve(factor, rhs)
        parts.append(sol + scipy.linalg.cho_solve(factor, rhs - block @ sol))
    return np.concatenate(parts)


def _lag_measurements(rng, m):
    lags = rng.normal(size=m) + 1j * rng.normal(size=m)
    lags[0] = abs(lags[0]) + m
    return measurement_vector(lags)


@pytest.mark.parametrize("m,gamma", [(TOEPLITZ_MIN_M, 1.0), (513, 1.13), (1024, 1.25)])
def test_toeplitz_solve_matches_cholesky(m, gamma, rng):
    cfg = ArrayConfig(m, gamma)
    gram = assemble_gram(cfg)
    assert gram.g_re is None and gram.chol_re is None
    for y in (_lag_measurements(rng, m), rng.uniform(-1, 1, gram.size)):
        expected = _cholesky_solve(cfg, y)
        b = solve(gram, y).b
        assert np.max(np.abs(b - expected)) <= 1e-12 * np.max(np.abs(expected))
        form = float(b @ full_matrix(gram.cfg) @ b)
        assert gram.quadratic_form(b) == pytest.approx(form, rel=1e-13)


def test_toeplitz_solve_residual_near_ceiling(rng):
    # cond ~ 9e8 at (512, 0.993). On lag-shaped right-hand sides the
    # Gohberg-Semencul solve's residual stays within 4x of refined
    # Cholesky's.
    cfg = ArrayConfig(512, 0.993)
    gram = assemble_gram(cfg)
    full = full_matrix(gram.cfg)
    for _ in range(3):
        y = _lag_measurements(rng, cfg.M)
        reference = np.linalg.norm(full @ _cholesky_solve(cfg, y) - y)
        residual = np.linalg.norm(full @ solve(gram, y).b - y)
        assert residual <= 4.0 * reference


@pytest.mark.parametrize("gamma", [0.993, 0.995])
@pytest.mark.parametrize("rhs", ["image", "uniform"])
def test_refined_toeplitz_solve_residual_near_ceiling(gamma, rhs, rng):
    # One refinement step with an FFT residual brings the Gohberg-Semencul
    # solve to refined Cholesky's residual near the ceiling, for y = G b
    # and for uniform y; unrefined it was up to 1e7x and 200x worse.
    cfg = ArrayConfig(512, gamma)
    gram = assemble_gram(cfg)
    full = full_matrix(gram.cfg)
    for _ in range(4):
        y = rng.uniform(-1, 1, gram.size)
        if rhs == "image":
            y = full @ y
        reference = np.linalg.norm(full @ _cholesky_solve(cfg, y) - y)
        residual = np.linalg.norm(full @ solve(gram, y).b - y)
        assert residual <= 2.0 * reference


def _two_rows(y):
    """Re s and Im s as two rows, the layout the folded row replaced."""
    m = (y.size + 1) // 2
    parts = np.stack([y[:m], np.concatenate([[0.0], y[m:]])])
    return np.concatenate([parts[:, :0:-1], parts * [[1.0], [-1.0]]], axis=1)


def _two_row_product(spectrum, b):
    n, m, size = b.size, (b.size + 1) // 2, gram_module._fft_size(b.size)
    s = _two_rows(np.concatenate([b[:1], 0.5 * b[1:]]))
    t = np.fft.irfft(spectrum * np.fft.rfft(s, size), size)
    return np.concatenate([t[0, m - 1:n], -t[1, m:n]])


def _two_row_solve(generators, y):
    n, m, size = y.size, (y.size + 1) // 2, gram_module._fft_size(y.size)
    spectrum = np.fft.rfft(_two_rows(y), size)
    upper = np.fft.irfft(generators.conj()[:, None] * spectrum, size)[..., :n]
    lower = generators[:, None] * np.fft.rfft(upper, size)
    c = np.fft.irfft(lower[0] - lower[1], size)
    return np.concatenate([c[0, m - 1:m], 2.0 * c[0, m:n], -2.0 * c[1, m:n]])


@pytest.mark.parametrize("m,gamma", [(TOEPLITZ_MIN_M, 1.0), (513, 1.13), (1024, 1.25),
                                     (2048, 2.0)])
def test_folded_row_matches_two_rows(m, gamma, rng):
    # Re s + Im s through T or the Gohberg-Semencul products, split back
    # by parity, gives what Re s and Im s give as separate rows.
    gram = gram_module._factor(ArrayConfig(m, gamma))
    for y in (_lag_measurements(rng, m), rng.uniform(-1, 1, gram.size)):
        expected = _two_row_solve(gram.generators, y)
        b = gram_module._toeplitz_solve(gram.generators, y)
        assert np.max(np.abs(b - expected)) <= 1e-14 * np.max(np.abs(expected))
        expected = _two_row_product(gram.spectrum, y)
        product = gram_module._toeplitz_product(gram.spectrum, y)
        assert np.max(np.abs(product - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("m,gamma", [(512, 0.993), (1024, 0.996)])
def test_folded_solve_residual_near_ceiling(m, gamma, rng):
    # Near the ceiling the refined solve through the folded row leaves a
    # residual within 1.5x of the same solve through two rows (1.18x at
    # most over 40 lag-shaped and uniform right-hand sides).
    cfg = ArrayConfig(m, gamma)
    gram = assemble_gram(cfg)
    full = full_matrix(gram.cfg)
    for _ in range(3):
        y = _lag_measurements(rng, m)
        b = _two_row_solve(gram.generators, y)
        b += _two_row_solve(gram.generators, y - _two_row_product(gram.spectrum, b))
        reference = np.linalg.norm(full @ b - y)
        residual = np.linalg.norm(full @ solve(gram, y).b - y)
        assert residual <= 1.5 * reference


class TestMeasurementVector:
    def test_uniform_spectrum_layout(self):
        lags = CovarianceLags(np.array([np.pi, PI_J0_PI], dtype=complex))
        assert np.allclose(measurement_vector(lags), [np.pi, PI_J0_PI, 0.0], atol=0)

    def test_layout_orders_real_then_imag(self):
        assert np.array_equal(measurement_vector(np.array([1.0, 1.0j])), [1.0, 0.0, 1.0])

    def test_zero(self):
        assert np.array_equal(measurement_vector(np.zeros(3, dtype=complex)), np.zeros(5))

    def test_single_antenna(self):
        assert np.array_equal(measurement_vector(np.array([2.5 + 0j])), [2.5])

    def test_validation(self):
        # solve checks the stacked layout: length 2M-1 and finite entries.
        gram = assemble_gram(ArrayConfig(2, 1.0))
        with pytest.raises(ValueError, match="does not match Gram size"):
            solve(gram, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="measurements must be finite"):
            solve(gram, np.array([1.0, np.inf, 0.0]))


class TestSolve:
    def test_zero_rhs(self):
        gram = assemble_gram(ArrayConfig(4, 1.0))
        coeffs = solve(gram, np.zeros(7))
        assert np.array_equal(coeffs.b, np.zeros(7))

    def test_uniform_spectrum_coefficients(self):
        gram = assemble_gram(ArrayConfig(2, 1.0))
        coeffs = solve(gram, np.array([np.pi, PI_J0_PI, 0.0]))
        assert np.allclose(coeffs.b, [1.0, 0.0, 0.0], atol=1e-13)

    def test_single_antenna(self):
        gram = assemble_gram(ArrayConfig(1, 1.0))
        coeffs = solve(gram, np.array([np.pi]))
        assert coeffs.b[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("m,gamma", RESIDUAL_BOUND_CONFIGS)
    def test_residual_bound_random_rhs(self, m, gamma, rng):
        gram = assemble_gram(ArrayConfig(m, gamma))
        full = full_matrix(gram.cfg)
        for _ in range(3):
            y = rng.uniform(-1, 1, gram.size)
            b = solve(gram, y).b
            residual = np.max(np.abs(full @ b - y))
            assert residual <= 1e-10 * (1.0 + np.max(np.abs(y)))

    def test_length_mismatch(self):
        gram = assemble_gram(ArrayConfig(3, 1.0))
        with pytest.raises(ValueError):
            solve(gram, np.zeros(7))

    def test_returns_trig_coeffs(self):
        gram = assemble_gram(ArrayConfig(2, 1.0))
        assert isinstance(solve(gram, np.zeros(3)), TrigCoeffs)


def test_full_matrix_block_structure():
    gram = assemble_gram(ArrayConfig(3, 1.0))
    full = full_matrix(gram.cfg)
    assert np.array_equal(full[:3, :3], gram.g_re)
    assert np.array_equal(full[3:, 3:], gram.g_im)
    assert np.all(full[:3, 3:] == 0)
    assert np.all(full[3:, :3] == 0)
