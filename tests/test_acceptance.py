"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is calibrated at runtime. The
shared scenario bank (100 random in-subspace ground truths plus the
narrow Gaussian cluster) is built once and reused across criteria.
"""

import contextlib
import functools
import json
import time

import numpy as np
import pytest

from apsrec.cli import main
from apsrec.core import (
    ArrayConfig,
    GaussianMixture,
    TrigCoeffs,
    TrigPolynomial,
    Uniform,
    trig_basis,
)
from apsrec.forward import synthesize_lags
from apsrec.gram import assemble_gram, bessel_j0, gram_blocks, measurement_vector, solve
from apsrec.plv import recover
from apsrec.quad import theta_quadrature_points, weighted_quadrature_points
from quad_helpers import bessel_j0_quadrature_oracle

GAUSS_CLUSTER = GaussianMixture(components=((0.3, 0.05, 1.0),))
GAUSS_CFG = ArrayConfig(4, 1.0)


@contextlib.contextmanager
def criterion(number, name, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def positive_random_trig(m, rng):
    cfg = ArrayConfig(m, 1.0)
    b = rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)
    grid = np.linspace(-1.0, 1.0, 2001)
    b[0] += max(0.0, -np.min(trig_basis(cfg, grid) @ b)) + 0.1
    return TrigPolynomial(cfg, TrigCoeffs(b))


@functools.lru_cache(maxsize=1)
def trig_scenarios():
    """100 in-subspace ground truths with M in {2..12}, synthesized and
    recovered end to end."""
    rng = np.random.default_rng(20250809)
    scenarios = []
    for _ in range(100):
        model = positive_random_trig(int(rng.integers(2, 13)), rng)
        cfg = model.config
        lags = synthesize_lags(model, cfg)
        scenarios.append((model, cfg, lags, recover(lags, cfg)))
    return scenarios


@functools.lru_cache(maxsize=1)
def gauss_scenario():
    lags = synthesize_lags(GAUSS_CLUSTER, GAUSS_CFG)
    return GAUSS_CLUSTER, GAUSS_CFG, lags, recover(lags, GAUSS_CFG)


def weighted_norm_sq(values, weights):
    return float(weights @ (values * values))


def test_criterion_1_gram_oracle_equivalence():
    with criterion(1, "Gram entries match quadrature inner products", budget_s=10.0):
        for m in range(1, 17):
            for gamma in (0.5, 1.0, 2.0):
                cfg = ArrayConfig(m, gamma)
                g_re, g_im = gram_blocks(cfg)
                points, weights = weighted_quadrature_points(512)
                basis = trig_basis(cfg, points)
                reference = basis.T @ (weights[:, None] * basis)
                assert np.max(np.abs(g_re - reference[:m, :m])) <= 1e-10
                if m > 1:
                    assert np.max(np.abs(g_im - reference[m:, m:])) <= 1e-10


def test_criterion_2_bessel_against_oracle():
    with criterion(2, "Bessel J0 matches the integral oracle on [0, 100]", budget_s=5.0):
        z = np.linspace(0.0, 100.0, 1001)
        errors = np.abs(bessel_j0(z) - bessel_j0_quadrature_oracle(z, 400))
        assert np.max(errors) <= 1e-10


def test_criterion_3_exact_recovery_of_subspace_truths():
    with criterion(3, "100 in-subspace truths round-trip exactly", budget_s=30.0):
        scenarios = trig_scenarios()
        assert len(scenarios) == 100
        worst = 0.0
        for model, cfg, lags, solution in scenarios:
            error = np.max(np.abs(solution.coeffs.b - model.coeffs.b))
            worst = max(worst, error)
        assert worst <= 1e-8


def test_criterion_4_non_identifiable_cluster():
    with criterion(4, "narrow cluster is non-identifiable with exact error"):
        model, cfg, lags, solution = gauss_scenario()
        from apsrec.analysis import certify
        certificate = certify(model, cfg)
        assert certificate.reconstruction_error_sq > 1e-3 * certificate.energy_truth
        assert certificate.identifiable is False
        points, weights = theta_quadrature_points(512, model.seams_theta())
        direct = weighted_norm_sq(model.rho(points) - solution.g(np.sin(points)), weights)
        assert certificate.reconstruction_error_sq == pytest.approx(direct, rel=1e-8)


def test_criterion_5_energy_identity():
    with criterion(5, "b^T G b equals y^T G^{-1} y on every scenario"):
        for model, cfg, lags, solution in [*trig_scenarios(), gauss_scenario()]:
            gram = assemble_gram(cfg)
            y = measurement_vector(lags)
            quad_form = gram.quadratic_form(solution.coeffs)
            cross = float(y @ solution.coeffs.b)
            assert abs(quad_form - cross) <= 1e-10 * (1.0 + quad_form)


def test_criterion_6_pythagoras_decomposition():
    with criterion(6, "energy splits orthogonally for every L2 scenario"):
        for model, cfg, lags, solution in [*trig_scenarios(), gauss_scenario()]:
            points, weights = theta_quadrature_points(512, model.seams_theta())
            truth = model.rho(points)
            rec = solution.g(np.sin(points))
            energy_truth = weighted_norm_sq(truth, weights)
            energy_rec = weighted_norm_sq(rec, weights)
            energy_diff = weighted_norm_sq(truth - rec, weights)
            assert abs(energy_truth - energy_rec - energy_diff) <= 1e-8 * energy_truth


def test_criterion_7_minimum_norm_orthogonality():
    with criterion(7, "reconstruction is orthogonal to its residual"):
        model, cfg, lags, solution = gauss_scenario()
        points, weights = theta_quadrature_points(512, model.seams_theta())
        rec = solution.g(np.sin(points))
        residual = model.rho(points) - rec
        inner = float(weights @ (rec * residual))
        scale = np.sqrt(weighted_norm_sq(rec, weights)) * np.sqrt(weighted_norm_sq(residual, weights))
        assert abs(inner) <= 1e-8 * scale


def test_criterion_8_resolution_sweep():
    with criterion(8, "sweep is monotone and crosses at the truth's order"):
        from apsrec.analysis import certify, resolution_sweep
        sweep = resolution_sweep(GAUSS_CLUSTER, 1.0, [2, 4, 6, 8, 12, 16])
        errors = [error for _, error in sweep]
        for previous, current in zip(errors, errors[1:]):
            assert current <= previous + 1e-10
        order = 3
        truth = positive_random_trig(order, np.random.default_rng(7))
        energy = certify(truth, ArrayConfig(order, 1.0)).energy_truth
        for m, error in resolution_sweep(truth, 1.0, [1, 2, 3, 4, 5, 6]):
            if m < order:
                assert error > 1e-8 * energy
            else:
                assert error <= 1e-8 * energy


def test_criterion_9_constraint_feasibility():
    with criterion(9, "every recovery satisfies all lag constraints"):
        for model, cfg, lags, solution in [*trig_scenarios(), gauss_scenario()]:
            bound = 1e-8 * (1.0 + np.max(np.abs(lags.r)))
            assert solution.constraint_residual <= bound


def test_criterion_10_cli_golden_round_trip(tmp_path):
    with criterion(10, "CLI is byte-deterministic and round-trips"):
        config_path = tmp_path / "uniform.json"
        config_path.write_text(json.dumps({
            "schema": "apsrec-scenario/1",
            "array": {"M": 4, "gamma": 1.0},
            "aps": {
                "kind": "uniform",
                "lo": -1.5707963267948966,
                "hi": 1.5707963267948966,
                "height": 1.0,
            },
            "quadrature": {"nodes": 512},
            "output": {"grid_points": 16, "domain": "theta"},
        }), encoding="utf-8")

        runs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["synthesize", "--config", str(config_path), "--out", str(out)]) == 0
            assert main(["recover", "--config", str(config_path),
                         "--lags", str(out / "lags.csv"), "--out", str(out)]) == 0
            assert main(["certify", "--config", str(config_path), "--out", str(out)]) == 0
            assert main(["gram", "--config", str(config_path), "--out", str(out)]) == 0
            runs.append(out)

        files = ["lags.csv", "coefficients.csv", "aps.csv", "recovery.json",
                 "certificate.json", "gram_re.csv", "gram_im.csv", "gram.json"]
        for name in files:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

        printed = (runs[0] / "coefficients.csv").read_text().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in printed]
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v) <= 1e-12 for v in values[1:])
