"""Batch command line front end.

Scenario configurations come in as versioned JSON; covariance lags,
recovery coefficients, sampled spectra, Gram matrices, and certificates
go out as CSV and JSON under an output directory. Outputs are
deterministic: fixed number formatting, no timestamps, LF line endings,
so golden-file comparisons are byte-exact.

Exit codes: 0 success, 2 configuration or input error, 3 quadrature
failure, 4 conditioning failure, 5 certificate inapplicable.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_ENERGY_NODES,
    DEFAULT_IDENTIFIABILITY_TOL,
    certify,
    resolution_sweep,
)
from .core import (
    ApsModel,
    ArrayConfig,
    CovarianceLags,
    Domain,
    GaussianMixture,
    LaplacianMixture,
    PointSources,
    SpectrumSum,
    TrigCoeffs,
    TrigPolynomial,
    Uniform,
)
from .errors import (
    ConditioningError,
    ConfigError,
    ModelError,
    QuadratureError,
)
from .forward import synthesize_lags
# assemble_gram is not called here; perfbench's tracer wraps it as a module
# attribute.
from .gram import _check_ceiling, _dense, assemble_gram  # noqa: F401
from .plv import DEFAULT_RESIDUAL_TOL, evaluate_solution, negativity_summary, recover

SCHEMA = "apsrec-scenario/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_CONDITIONING = 4
EXIT_CERTIFICATE = 5


def _full(x):
    """Lossless float formatting for data files."""
    return f"{float(x):.17g}"


def _report(x):
    """Fixed 12-significant-digit value for human-facing reports."""
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: array geometry, ground-truth model, the node
    count of the certificate's energy rule, output grid, and tolerances."""

    array: ArrayConfig
    aps: ApsModel
    energy_nodes: int
    grid_points: int
    output_domain: Domain
    constraint_tol: float
    identifiability_tol: float


def _require(table, field, key, expected=None):
    if key not in table:
        raise ConfigError(f"{field}.{key}", "missing required field")
    value = table[key]
    if expected is not None and not isinstance(value, expected):
        raise ConfigError(f"{field}.{key}", f"expected {expected[0].__name__}")
    return value


def _number(table, field, key, default=None):
    if key not in table:
        if default is None:
            raise ConfigError(f"{field}.{key}", "missing required field")
        return default
    value = table[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}.{key}", "expected a number")
    # JSON admits NaN, Infinity and integers past the float range.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{field}.{key}", "expected a finite number")
    return number


_MIXTURES = {"gaussian_mixture": GaussianMixture, "laplacian_mixture": LaplacianMixture}


def _parse_model(table, field, array):
    if not isinstance(table, dict):
        raise ConfigError(field, "expected an object")
    kind = _require(table, field, "kind", (str,))
    try:
        if kind == "uniform":
            return Uniform(
                lo=_number(table, field, "lo"),
                hi=_number(table, field, "hi"),
                height=_number(table, field, "height"),
            )
        if kind in _MIXTURES:
            components = []
            for i, entry in enumerate(_require(table, field, "components", (list,))):
                sub = f"{field}.components[{i}]"
                if not isinstance(entry, dict):
                    raise ConfigError(sub, "expected an object with mean/std/weight")
                components.append(tuple(_number(entry, sub, key) for key in ("mean", "std", "weight")))
            return _MIXTURES[kind](tuple(components))
        if kind == "trig_polynomial":
            coeffs = _require(table, field, "coeffs", (list,))
            gamma = _number(table, field, "gamma", default=array.gamma)
            order = (len(coeffs) + 1) // 2
            return TrigPolynomial(ArrayConfig(order, gamma), TrigCoeffs(np.asarray(coeffs)))
        if kind == "point_sources":
            sources = []
            for i, entry in enumerate(_require(table, field, "sources", (list,))):
                sub = f"{field}.sources[{i}]"
                if not isinstance(entry, dict):
                    raise ConfigError(sub, "expected an object with angle/power")
                sources.append((_number(entry, sub, "angle"), _number(entry, sub, "power")))
            return PointSources(tuple(sources))
        if kind == "sum":
            terms = _require(table, field, "terms", (list,))
            return SpectrumSum(tuple(
                _parse_model(term, f"{field}.terms[{i}]", array)
                for i, term in enumerate(terms)
            ))
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(field, str(exc)) from exc
    raise ConfigError(f"{field}.kind", f"unknown model kind {kind!r}")


def load_config(path):
    """Parse and validate a scenario configuration file.

    Raises:
        ConfigError: Naming the offending field, or the parse position for
            malformed JSON.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc.strerror or exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")

    schema = _require(raw, "<root>", "schema", (str,))
    if schema != SCHEMA:
        raise ConfigError("schema", f"unsupported schema {schema!r}, expected {SCHEMA!r}")

    array_table = _require(raw, "<root>", "array", (dict,))
    m_value = _require(array_table, "array", "M", (int,))
    if isinstance(m_value, bool):
        raise ConfigError("array.M", "expected an integer")
    try:
        array = ArrayConfig(m_value, _number(array_table, "array", "gamma", default=1.0))
    except ValueError as exc:
        raise ConfigError("array.gamma" if "gamma" in str(exc) else "array.M", str(exc)) from exc

    aps = _parse_model(_require(raw, "<root>", "aps", (dict,)), "aps", array)

    quad_table = raw.get("quadrature", {})
    if not isinstance(quad_table, dict):
        raise ConfigError("quadrature", "expected an object")
    nodes = _number(quad_table, "quadrature", "nodes", default=float(DEFAULT_ENERGY_NODES))
    if nodes != int(nodes) or int(nodes) < 16:
        raise ConfigError("quadrature.nodes", "expected an integer of at least 16")

    out_table = raw.get("output", {})
    if not isinstance(out_table, dict):
        raise ConfigError("output", "expected an object")
    grid_points = _number(out_table, "output", "grid_points", default=181.0)
    if grid_points != int(grid_points) or int(grid_points) < 2:
        raise ConfigError("output.grid_points", "expected an integer of at least 2")
    domain_name = out_table.get("domain", "theta")
    if domain_name not in ("theta", "x"):
        raise ConfigError("output.domain", "expected 'theta' or 'x'")

    tol_table = raw.get("tolerances", {})
    if not isinstance(tol_table, dict):
        raise ConfigError("tolerances", "expected an object")
    constraint_tol = _number(tol_table, "tolerances", "constraint", default=DEFAULT_RESIDUAL_TOL)
    identifiability_tol = _number(
        tol_table, "tolerances", "identifiability", default=DEFAULT_IDENTIFIABILITY_TOL
    )
    if constraint_tol <= 0:
        raise ConfigError("tolerances.constraint", "must be positive")
    if identifiability_tol <= 0:
        raise ConfigError("tolerances.identifiability", "must be positive")

    return ScenarioConfig(
        array=array,
        aps=aps,
        energy_nodes=int(nodes),
        grid_points=int(grid_points),
        output_domain=Domain(domain_name),
        constraint_tol=constraint_tol,
        identifiability_tol=identifiability_tol,
    )


def _out_dir(args):
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_lags_csv(path, lags):
    rows = [f"{m},{_full(v.real)},{_full(v.imag)}" for m, v in enumerate(lags.r)]
    _write_lines(path, ["m,re,im", *rows])


def read_lags_csv(path, expected_m, im0_tol=1e-12):
    """Parse a lags CSV back into CovarianceLags, enforcing the header,
    contiguous indices, the configured length, and a real r_0."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read lags: {exc.strerror or exc}") from exc
    if not lines or lines[0] != "m,re,im":
        raise ConfigError("lags", "expected header 'm,re,im'")
    values = []
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"lags row {i}", "expected three comma-separated fields")
        try:
            m, re, im = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"lags row {i}", str(exc)) from exc
        if m != i:
            raise ConfigError(f"lags row {i}", f"expected index {i}, found {m}")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ConfigError(f"lags row {i}", "expected finite values")
        values.append(complex(re, im))
    if len(values) != expected_m:
        raise ConfigError("lags", f"expected {expected_m} rows, found {len(values)}")
    if abs(values[0].imag) > im0_tol:
        raise ConfigError("lags row 0", f"imaginary part of r_0 is {values[0].imag:.3e}, must vanish")
    values[0] = complex(values[0].real, 0.0)
    return CovarianceLags(np.asarray(values))


def cmd_synthesize(args):
    config = load_config(args.config)
    lags = synthesize_lags(config.aps, config.array)
    out = _out_dir(args)
    write_lags_csv(out / "lags.csv", lags)
    return EXIT_OK


def _output_grid(config):
    if config.output_domain is Domain.THETA:
        return np.linspace(-np.pi / 2, np.pi / 2, config.grid_points)
    return np.linspace(-1.0, 1.0, config.grid_points)


def cmd_recover(args):
    config = load_config(args.config)
    lags = read_lags_csv(args.lags, config.array.M)
    solution = recover(lags, config.array, residual_tol=config.constraint_tol)
    out = _out_dir(args)

    coeff_rows = [f"{k},{_full(b)}" for k, b in enumerate(solution.coeffs.b)]
    _write_lines(out / "coefficients.csv", ["k,b", *coeff_rows])

    grid = _output_grid(config)
    sampled = evaluate_solution(solution, grid, config.output_domain)
    column = "theta" if config.output_domain is Domain.THETA else "x"
    aps_rows = [f"{_full(g)},{_full(v)}" for g, v in zip(sampled.grid, sampled.values)]
    _write_lines(out / "aps.csv", [f"{column},value", *aps_rows])

    negativity = negativity_summary(solution)
    _write_json(out / "recovery.json", {
        "schema": "apsrec-recovery/1",
        "M": config.array.M,
        "gamma": _report(config.array.gamma),
        "constraint_residual": _report(solution.constraint_residual),
        "min_value": _report(negativity.min_value),
        "negative_fraction": _report(negativity.negative_fraction),
    })
    return EXIT_OK


def cmd_certify(args):
    config = load_config(args.config)
    options = {"nodes": config.energy_nodes, "identifiability_tol": config.identifiability_tol}
    certificate = certify(config.aps, config.array, **options)
    out = _out_dir(args)
    payload = {
        "schema": "apsrec-certificate/1",
        "M": config.array.M,
        "gamma": _report(config.array.gamma),
        "energy_truth": _report(certificate.energy_truth),
        "energy_plv": _report(certificate.energy_plv),
        "quadratic_form": _report(certificate.quadratic_form),
        "reconstruction_error_sq": _report(certificate.reconstruction_error_sq),
        "pythagoras_gap": _report(certificate.pythagoras_gap),
        "energy_truth_refinement": _report(certificate.energy_truth_refinement),
        "identifiable": certificate.identifiable,
        "margin": _report(certificate.margin),
    }
    _write_json(out / "certificate.json", payload)

    if args.sweep:
        try:
            m_values = [int(part) for part in args.sweep.split(",") if part]
        except ValueError as exc:
            raise ConfigError("--sweep", "expected comma-separated integers") from exc
        try:
            sweep = resolution_sweep(config.aps, config.array.gamma, m_values, **options)
        except ValueError as exc:
            raise ConfigError("--sweep", str(exc)) from exc
        rows = [f"{m},{_full(err)}" for m, err in sweep]
        _write_lines(out / "sweep.csv", ["M,reconstruction_error_sq", *rows])
    return EXIT_OK


def cmd_gram(args):
    config = load_config(args.config)
    # The dense blocks and their factors at every M, checked against the
    # ceiling as assemble_gram checks its own Gram.
    gram = _check_ceiling(_dense(config.array))
    out = _out_dir(args)
    _write_lines(out / "gram_re.csv", [",".join(_full(v) for v in row) for row in gram.g_re])
    _write_lines(out / "gram_im.csv", [",".join(_full(v) for v in row) for row in gram.g_im])
    payload = {
        "schema": "apsrec-gram/1",
        "M": config.array.M,
        "gamma": _report(config.array.gamma),
        "cond_estimate": _report(gram.cond_estimate),
        "chol_re_min_pivot": _report(np.min(np.diag(gram.chol_re))),
    }
    if config.array.M > 1:
        payload["chol_im_min_pivot"] = _report(np.min(np.diag(gram.chol_im)))
    _write_json(out / "gram.json", payload)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="apsrec",
        description="Angular power spectrum synthesis, recovery, and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synthesize", help="write covariance lags for a scenario")
    synth.add_argument("--config", required=True, help="scenario JSON path")
    synth.add_argument("--out", required=True, help="output directory")
    synth.set_defaults(func=cmd_synthesize)

    rec = sub.add_parser("recover", help="recover a spectrum from a lags file")
    rec.add_argument("--config", required=True, help="scenario JSON path")
    rec.add_argument("--lags", required=True, help="lags CSV path")
    rec.add_argument("--out", required=True, help="output directory")
    rec.set_defaults(func=cmd_recover)

    cert = sub.add_parser("certify", help="certify recovery of the configured model")
    cert.add_argument("--config", required=True, help="scenario JSON path")
    cert.add_argument("--out", required=True, help="output directory")
    cert.add_argument("--sweep", default=None, help="comma-separated antenna counts")
    cert.set_defaults(func=cmd_certify)

    gram = sub.add_parser("gram", help="write the Gram matrix and diagnostics")
    gram.add_argument("--config", required=True, help="scenario JSON path")
    gram.add_argument("--out", required=True, help="output directory")
    gram.set_defaults(func=cmd_gram)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"apsrec: error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"apsrec: error: quadrature: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except ConditioningError as exc:
        print(f"apsrec: error: conditioning: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except ModelError as exc:
        print(f"apsrec: error: certificate: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
