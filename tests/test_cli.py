import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import apsrec
from apsrec import analysis, gram
from apsrec.cli import main, read_lags_csv

PI_J0_PI = -0.9558049901987985  # frozen via the Bessel quadrature oracle

UNIFORM_CONFIG = {
    "schema": "apsrec-scenario/1",
    "array": {"M": 2, "gamma": 1.0},
    "aps": {
        "kind": "uniform",
        "lo": -1.5707963267948966,
        "hi": 1.5707963267948966,
        "height": 1.0,
    },
    "output": {"grid_points": 9, "domain": "theta"},
}

TRIG_CONFIG = {
    "schema": "apsrec-scenario/1",
    "array": {"M": 4, "gamma": 1.0},
    "aps": {
        "kind": "trig_polynomial",
        "coeffs": [1.2, 0.3, -0.25, 0.1, 0.4, -0.15, 0.05],
    },
    "output": {"grid_points": 33, "domain": "x"},
}

GAUSS_CONFIG = {
    "schema": "apsrec-scenario/1",
    "array": {"M": 4, "gamma": 1.0},
    "aps": {
        "kind": "gaussian_mixture",
        "components": [{"mean": 0.3, "std": 0.05, "weight": 1.0}],
    },
}


NARROW_GAUSSIAN = {"kind": "gaussian_mixture",
                   "components": [{"mean": 0.2, "std": 3e-3, "weight": 1.0}]}


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestSynthesize:
    def test_uniform_lag_values(self, tmp_path):
        config = write_config(tmp_path, UNIFORM_CONFIG)
        assert main(["synthesize", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        header, rows = read_rows(tmp_path / "out" / "lags.csv")
        assert header == "m,re,im"
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(np.pi, abs=1e-12)
        assert float(rows[0][2]) == 0.0
        assert float(rows[1][1]) == pytest.approx(PI_J0_PI, abs=1e-12)

    def test_zero_model_gives_zero_file(self, tmp_path):
        payload = dict(UNIFORM_CONFIG, aps={"kind": "uniform", "lo": -0.5, "hi": 0.5, "height": 0.0})
        config = write_config(tmp_path, payload)
        assert main(["synthesize", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "lags.csv")
        assert all(float(row[1]) == 0.0 and float(row[2]) == 0.0 for row in rows)

    def test_gamma_zero_exits_2_and_names_field(self, tmp_path, capsys):
        payload = dict(UNIFORM_CONFIG, array={"M": 2, "gamma": 0.0})
        config = write_config(tmp_path, payload)
        assert main(["synthesize", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "gamma" in err

    def test_determinism_byte_identical(self, tmp_path):
        config = write_config(tmp_path, UNIFORM_CONFIG)
        main(["synthesize", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["synthesize", "--config", str(config), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "lags.csv").read_bytes() == (tmp_path / "b" / "lags.csv").read_bytes()

    def test_quadrature_block_leaves_lags_alone(self, tmp_path):
        # Synthesis is exact and the certificate's rule follows from the
        # array and the model, so both ignore a quadrature block: older
        # scenario files load, with node counts once rejected (7,
        # Infinity) or once too large to build (16384), and the former
        # "path" key.
        files = set()
        for name, quadrature in (("none", None), ("nodes", {"nodes": 2048}),
                                 ("path", {"nodes": 64, "path": "x"}), ("few", {"nodes": 7}),
                                 ("inf", {"nodes": float("inf")}), ("many", {"nodes": 16384})):
            payload = dict(GAUSS_CONFIG, quadrature=quadrature) if quadrature else GAUSS_CONFIG
            config, out = write_config(tmp_path, payload, f"{name}.json"), tmp_path / name
            assert main(["synthesize", "--config", str(config), "--out", str(out)]) == 0
            assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
            files.add(((out / "lags.csv").read_bytes(), (out / "certificate.json").read_bytes()))
        assert len(files) == 1


class TestRecover:
    def run_pipeline(self, tmp_path, payload):
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(config), "--out", str(out)]) == 0
        code = main(["recover", "--config", str(config), "--lags", str(out / "lags.csv"), "--out", str(out)])
        return config, out, code

    def test_uniform_recovery_outputs(self, tmp_path):
        _, out, code = self.run_pipeline(tmp_path, UNIFORM_CONFIG)
        assert code == 0
        _, coeff_rows = read_rows(out / "coefficients.csv")
        coeffs = [float(row[1]) for row in coeff_rows]
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(c) <= 1e-12 for c in coeffs[1:])
        header, aps_rows = read_rows(out / "aps.csv")
        assert header == "theta,value"
        assert len(aps_rows) == 9
        assert all(float(row[1]) == pytest.approx(1.0, abs=1e-10) for row in aps_rows)
        report = json.loads((out / "recovery.json").read_text())
        assert report["constraint_residual"] <= 1e-10
        assert report["negative_fraction"] == 0.0

    def test_round_trip_reproduces_coefficients(self, tmp_path):
        _, out, code = self.run_pipeline(tmp_path, TRIG_CONFIG)
        assert code == 0
        _, coeff_rows = read_rows(out / "coefficients.csv")
        coeffs = np.array([float(row[1]) for row in coeff_rows])
        expected = np.array(TRIG_CONFIG["aps"]["coeffs"])
        assert np.max(np.abs(coeffs - expected)) <= 1e-8

    def test_zero_lags_give_zero_outputs(self, tmp_path):
        config = write_config(tmp_path, UNIFORM_CONFIG)
        lags = tmp_path / "zero.csv"
        lags.write_text("m,re,im\n0,0,0\n1,0,0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["recover", "--config", str(config), "--lags", str(lags), "--out", str(out)]) == 0
        _, coeff_rows = read_rows(out / "coefficients.csv")
        assert all(float(row[1]) == 0.0 for row in coeff_rows)

    def test_imaginary_r0_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, UNIFORM_CONFIG)
        lags = tmp_path / "bad.csv"
        lags.write_text("m,re,im\n0,3.14,0.1\n1,0,0\n", encoding="utf-8")
        assert main(["recover", "--config", str(config), "--lags", str(lags), "--out", str(tmp_path / "out")]) == 2
        assert "r_0" in capsys.readouterr().err

    @pytest.mark.parametrize("content,reason", [
        ("re,im\n0,0\n", "header"),
        ("m,re,im\n0,0,0\n", "row count"),
        ("m,re,im\n1,0,0\n0,0,0\n", "index order"),
        ("m,re,im\n0,abc,0\n1,0,0\n", "parse"),
    ])
    def test_malformed_lags_exit_2(self, tmp_path, content, reason, capsys):
        config = write_config(tmp_path, UNIFORM_CONFIG)
        lags = tmp_path / "bad.csv"
        lags.write_text(content, encoding="utf-8")
        assert main(["recover", "--config", str(config), "--lags", str(lags), "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("row", ["1,nan,0", "1,0,inf", "1,-Infinity,0"])
    def test_non_finite_lag_exit_2(self, tmp_path, capsys, row):
        config = write_config(tmp_path, UNIFORM_CONFIG)
        lags = tmp_path / "bad.csv"
        lags.write_text(f"m,re,im\n0,3.14,0\n{row}\n", encoding="utf-8")
        assert main(["recover", "--config", str(config), "--lags", str(lags), "--out", str(tmp_path / "out")]) == 2
        assert "lags row 1: expected finite values" in capsys.readouterr().err


class TestCertify:
    def test_trig_certificate(self, tmp_path):
        config = write_config(tmp_path, TRIG_CONFIG)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "certificate.json").read_text())
        assert report["identifiable"] is True
        assert report["reconstruction_error_sq"] <= 1e-8 * report["energy_truth"]

    def test_gaussian_certificate(self, tmp_path):
        config = write_config(tmp_path, GAUSS_CONFIG)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "certificate.json").read_text())
        assert report["identifiable"] is False
        assert report["reconstruction_error_sq"] > 0
        assert report["pythagoras_gap"] <= 1e-8 * report["energy_truth"]

    def test_point_sources_exit_5(self, tmp_path, capsys):
        payload = dict(GAUSS_CONFIG, aps={"kind": "point_sources", "sources": [{"angle": 0.0, "power": 1.0}]})
        config = write_config(tmp_path, payload)
        assert main(["certify", "--config", str(config), "--out", str(tmp_path / "out")]) == 5
        assert "square-integrable" in capsys.readouterr().err

    def test_sweep_table(self, tmp_path):
        config = write_config(tmp_path, GAUSS_CONFIG)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(config), "--out", str(out), "--sweep", "2,4,8"]) == 0
        header, rows = read_rows(out / "sweep.csv")
        assert header == "M,reconstruction_error_sq"
        errors = [float(row[1]) for row in rows]
        assert [int(row[0]) for row in rows] == [2, 4, 8]
        assert errors[0] >= errors[1] >= errors[2]

    def test_unresolved_certificate_exit_3(self, tmp_path, capsys, monkeypatch):
        # Energy panels of pi/8 whatever the array under-resolve the gap
        # integrand at M = 256: the certificate's self-checks fail, so no
        # verdict is written.
        monkeypatch.setattr(analysis, "_PANEL_PERIODS", 1e4)
        payload = dict(GAUSS_CONFIG, array={"M": 256, "gamma": 1.0}, aps=NARROW_GAUSSIAN)
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 3
        assert "pythagoras_gap" in capsys.readouterr().err
        assert not (out / "certificate.json").exists()

    def test_unsettled_refinement_exit_3(self, tmp_path, capsys, monkeypatch):
        # Peak panels of 20 std leave a narrow peak's energy moving by
        # 6.9e-5 E when every panel is halved: exit 3, no certificate.
        monkeypatch.setattr(analysis, "_PEAK_PANEL_STDS", 20.0)
        payload = dict(GAUSS_CONFIG, array={"M": 8, "gamma": 1.0}, aps=NARROW_GAUSSIAN)
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 3
        assert "energy_truth_refinement" in capsys.readouterr().err
        assert not (out / "certificate.json").exists()

    def test_narrow_certificate_and_sweep(self, tmp_path):
        # A std of 3e-3 exited 3 under the former fixed 512-node energy
        # rule; the rule that follows from each M certifies it and its
        # sweep to rounding.
        payload = dict(GAUSS_CONFIG, array={"M": 256, "gamma": 1.0}, aps=NARROW_GAUSSIAN)
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(config), "--out", str(out),
                     "--sweep", "64,128,256"]) == 0
        report = json.loads((out / "certificate.json").read_text())
        floor = 1e-10 * report["energy_truth"]
        assert report["reconstruction_error_sq"] >= -floor
        assert report["pythagoras_gap"] <= floor
        assert abs(report["energy_truth_refinement"]) <= floor
        _, rows = read_rows(out / "sweep.csv")
        assert float(rows[-1][1]) == pytest.approx(report["reconstruction_error_sq"], rel=1e-11)
        errors = [float(row[1]) for row in rows]
        assert all(b <= a + floor for a, b in zip(errors, errors[1:]))

    def test_two_gaussian_certificate_at_256(self, tmp_path):
        # Exact lags: the scenario that exited 3 under the former 512-node
        # synthesis rule certifies to rounding with the default energy rule.
        payload = dict(GAUSS_CONFIG, array={"M": 256, "gamma": 1.0})
        payload["aps"] = {"kind": "gaussian_mixture", "components": [
            {"mean": 0.3, "std": 0.05, "weight": 1.0},
            {"mean": -0.4, "std": 0.1, "weight": 0.7}]}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "certificate.json").read_text())
        floor = 1e-10 * report["energy_truth"]
        assert abs(report["reconstruction_error_sq"]) <= floor
        assert report["pythagoras_gap"] <= floor

    def test_bad_sweep_exit_2(self, tmp_path, capsys):
        # A sweep that does not parse or does not increase fails the
        # command before any file is written: no certificate is left.
        config = write_config(tmp_path, GAUSS_CONFIG)
        for sweep in ("4,x", "8,4"):
            out = tmp_path / sweep
            assert main(["certify", "--config", str(config), "--out", str(out), "--sweep", sweep]) == 2
            assert not (out / "certificate.json").exists()
        capsys.readouterr()


class TestGram:
    def test_single_antenna_cell(self, tmp_path):
        payload = dict(UNIFORM_CONFIG, array={"M": 1, "gamma": 1.0})
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["gram", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "gram_re.csv").read_text().splitlines()
        assert len(rows) == 1
        assert float(rows[0]) == pytest.approx(np.pi, abs=1e-14)
        assert (out / "gram_im.csv").read_text() == ""

    def test_two_antenna_blocks(self, tmp_path):
        config = write_config(tmp_path, UNIFORM_CONFIG)
        out = tmp_path / "out"
        assert main(["gram", "--config", str(config), "--out", str(out)]) == 0
        re_rows = [[float(v) for v in line.split(",")]
                   for line in (out / "gram_re.csv").read_text().splitlines()]
        assert re_rows[0][0] == pytest.approx(np.pi, abs=1e-14)
        assert re_rows[0][1] == pytest.approx(PI_J0_PI, abs=1e-12)
        im_rows = (out / "gram_im.csv").read_text().splitlines()
        assert float(im_rows[0]) == pytest.approx(1.2247861679826595, abs=1e-12)
        report = json.loads((out / "gram.json").read_text())
        assert report["cond_estimate"] > 1.0

    def test_toeplitz_size_writes_dense_blocks_and_pivots(self, tmp_path):
        # From the Toeplitz crossover up the Gram keeps no dense blocks; the
        # CLI writes them, and their Cholesky pivots, all the same.
        m = gram._TOEPLITZ_MIN_M
        payload = dict(UNIFORM_CONFIG, array={"M": m, "gamma": 1.13})
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["gram", "--config", str(config), "--out", str(out)]) == 0
        g_re, g_im = gram.gram_blocks(apsrec.ArrayConfig(m, 1.13))
        for name, block in (("gram_re.csv", g_re), ("gram_im.csv", g_im)):
            rows = [[float(v) for v in line.split(",")]
                    for line in (out / name).read_text().splitlines()]
            assert np.array_equal(np.array(rows), block)
        report = json.loads((out / "gram.json").read_text())
        for key, block in (("chol_re_min_pivot", g_re), ("chol_im_min_pivot", g_im)):
            pivot = np.min(np.diag(scipy.linalg.cholesky(block, lower=True)))
            assert report[key] == float(f"{pivot:.12g}")
        cond = gram.assemble_gram(apsrec.ArrayConfig(m, 1.13)).cond_estimate
        assert report["cond_estimate"] == float(f"{cond:.12g}")

    def test_factorizes_once(self, tmp_path, monkeypatch):
        # Past the Toeplitz crossover, below gamma = 1, the blocks of one
        # dense factorization give the file, the pivots and the ceiling's
        # estimate: two dpotrf calls.
        calls = []
        dpotrf = scipy.linalg.lapack.dpotrf

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counting)
        payload = dict(UNIFORM_CONFIG, array={"M": 512, "gamma": 0.992})
        config = write_config(tmp_path, payload)
        assert main(["gram", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert calls == [(512, 512), (511, 511)]

    def test_degenerate_spacing_exit_4(self, tmp_path, capsys):
        payload = dict(UNIFORM_CONFIG, array={"M": 8, "gamma": 1e-6})
        config = write_config(tmp_path, payload)
        assert main(["gram", "--config", str(config), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "conditioning" in err

    def test_singular_toeplitz_size_exit_4(self, tmp_path, capsys):
        # Below gamma = 1 a Toeplitz-sized Gram is dense, and at
        # (1024, 0.01) its Cholesky factorization finds it numerically
        # indefinite: exit 4 with a conditioning message, no traceback and
        # no files.
        payload = dict(UNIFORM_CONFIG, array={"M": 1024, "gamma": 0.01})
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["gram", "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("apsrec: error: conditioning: ")
        assert "numerically indefinite" in err
        assert not out.exists()

    def test_toeplitz_size_factorizes_once(self, tmp_path, monkeypatch):
        # One dense factorization gives the blocks, the pivots and the
        # condition estimate: one dpotrf per block, and no scipy cholesky.
        m = gram._TOEPLITZ_MIN_M
        config = write_config(tmp_path, dict(UNIFORM_CONFIG, array={"M": m, "gamma": 1.13}))
        calls = []
        dpotrf = scipy.linalg.lapack.dpotrf

        def counting(block, *args, **kwargs):
            calls.append(block.shape)
            return dpotrf(block, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.cholesky called")

        monkeypatch.setattr(gram, "_cached", None)
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counting)
        monkeypatch.setattr(scipy.linalg, "cholesky", refuse)
        assert main(["gram", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert calls == [(m, m), (m - 1, m - 1)]


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["synthesize", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{", encoding="utf-8")
        assert main(["synthesize", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_wrong_schema(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(UNIFORM_CONFIG, schema="other/9"))
        assert main(["synthesize", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_unknown_model_kind(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(UNIFORM_CONFIG, aps={"kind": "fractal"}))
        assert main(["synthesize", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "aps.kind" in capsys.readouterr().err

    def test_component_field_is_named(self, tmp_path, capsys):
        payload = dict(UNIFORM_CONFIG, aps={
            "kind": "gaussian_mixture",
            "components": [{"mean": 0.0, "std": 0.1}],
        })
        config = write_config(tmp_path, payload)
        assert main(["synthesize", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "components[0].weight" in capsys.readouterr().err

    FINITE = "expected a finite number"
    GRID_RANGE = "expected an integer from 2 to 1000000"

    @pytest.mark.parametrize("section,entry,field,message", [
        pytest.param(*row, id=f"{row[0]}-entry{k}-{row[2]}") for k, row in enumerate([
            ("aps", {"kind": "gaussian_mixture",
                     "components": [{"mean": 0.0, "std": float("inf"), "weight": 1.0}]},
             "aps.components[0].std", FINITE),
            ("aps", {"kind": "laplacian_mixture",
                     "components": [{"mean": 0.0, "std": 0.1, "weight": float("inf")}]},
             "aps.components[0].weight", FINITE),
            ("aps", {"kind": "uniform", "lo": -0.5, "hi": 0.5, "height": float("-inf")},
             "aps.height", FINITE),
            ("tolerances", {"constraint": float("inf")}, "tolerances.constraint", FINITE),
            ("output", {"grid_points": float("inf")}, "output.grid_points", FINITE),
            ("output", {"grid_points": 10**400}, "output.grid_points", FINITE),
            ("tolerances", {"constraint": float("nan")}, "tolerances.constraint", FINITE),
            ("tolerances", {"identifiability": float("nan")}, "tolerances.identifiability",
             FINITE),
            # Finite but past the maximum: recover failed in np.linspace
            # (1e300) after writing coefficients.csv.
            ("output", {"grid_points": 1e300}, "output.grid_points", GRID_RANGE),
            ("output", {"grid_points": 10**6 + 1}, "output.grid_points", GRID_RANGE),
        ])
    ])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, section, entry, field, message):
        # The ids are those of the table's rows without their messages.
        config = write_config(tmp_path, dict(UNIFORM_CONFIG, **{section: entry}))
        out = str(tmp_path / "out")
        for command in (["synthesize"], ["recover", "--lags", str(tmp_path / "lags.csv")]):
            assert main([*command, "--config", str(config), "--out", out]) == 2
            assert f"{field}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf"), 10**400])
    def test_non_finite_trig_coefficient_exit_2(self, tmp_path, capsys, coeff):
        payload = dict(TRIG_CONFIG, aps={"kind": "trig_polynomial", "coeffs": [1.0, coeff, 0.0]})
        config = write_config(tmp_path, payload)
        assert main(["synthesize", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "config: aps: " in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    config = write_config(tmp_path, UNIFORM_CONFIG)
    # The child must import the same apsrec as this process, which may
    # come from pytest's pythonpath setting rather than the environment.
    package_root = str(Path(apsrec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "apsrec.cli", "synthesize",
         "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert (tmp_path / "out" / "lags.csv").exists()


def test_read_lags_round_trip(tmp_path):
    from apsrec.cli import write_lags_csv
    from apsrec.core import CovarianceLags
    lags = CovarianceLags(np.array([2.0, 0.3 - 0.7j, -0.1 + 0.05j]))
    path = tmp_path / "lags.csv"
    write_lags_csv(path, lags)
    back = read_lags_csv(path, 3)
    assert np.array_equal(back.r, lags.r)
