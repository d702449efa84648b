"""The benchmark's three workloads: seeded inputs, the timed op, and an
independent check of every op's output.

Each workload is a closed loop with one client: the next input is made
only after the previous op and its check have finished. Inputs come from
``numpy.random.default_rng(seed)``; the library sees only the generated
lags or scenario files. The checks recompute what they compare against
with numpy and scipy directly, never with apsrec's own helpers.
"""

import functools
import json
import shutil
from pathlib import Path

import numpy as np
import scipy.special

from apsrec import cli, plv
from apsrec.core import ArrayConfig

# The CLI's default output grid: 181 angles across [-pi/2, pi/2].
THETA_GRID = np.linspace(-np.pi / 2, np.pi / 2, 181)
ENERGY_REL_TOL = 1e-10
VALUE_REL_TOL = 1e-9
LAG_TOL = 1e-8
REFERENCE_NODES = 2048


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _lags_from_sources(cfg, angles, powers):
    kappas = cfg.gamma * np.pi * np.arange(cfg.M)
    return np.exp(1j * np.multiply.outer(kappas, np.sin(angles))) @ powers


class _IndependentGram:
    """Closed-form Gram blocks from scipy's J0, indexed by |m-n| and m+n."""

    def __init__(self, M):
        idx = np.arange(M)
        self.M = M
        self.diff = np.abs(idx[:, None] - idx[None, :])
        self.total = idx[:, None] + idx[None, :]

    def quadratic_form(self, gamma, b):
        j0 = scipy.special.j0(gamma * np.pi * np.arange(2 * self.M - 1))
        M = self.M
        g_re = (np.pi / 2) * (j0[self.diff] + j0[self.total])
        g_im = (np.pi / 2) * (j0[self.diff[1:, 1:]] - j0[self.total[1:, 1:]])
        return float(b[:M] @ g_re @ b[:M] + b[M:] @ g_im @ b[M:])


def _trig_values(cfg, b, x):
    freqs = cfg.gamma * np.pi * np.arange(1, cfg.M)
    arg = np.multiply.outer(x, freqs)
    return b[0] + np.cos(arg) @ b[1:cfg.M] + np.sin(arg) @ b[cfg.M:]


def _check_solution(solution, r, cfg, gram):
    """The library's own feasibility bound, then the energy identity
    y.b = b^T G b against an independently assembled Gram."""
    bound = plv.DEFAULT_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(r))))
    if not solution.constraint_residual <= bound:
        raise CheckFailed(
            f"constraint residual {solution.constraint_residual:.3e} above {bound:.3e}")
    b = solution.coeffs.b
    y = np.concatenate([r.real, r[1:].imag])
    yb = float(y @ b)
    bgb = gram.quadratic_form(cfg.gamma, b)
    if not abs(yb - bgb) <= ENERGY_REL_TOL * abs(yb):
        raise CheckFailed(f"energy identity: y.b = {yb!r}, b^T G b = {bgb!r}")


class SnapshotStream:
    """M = 64, gamma = 1: the library path of ``apsrec recover`` on a
    stream of sample-covariance lags (recover, evaluate on the CLI grid,
    negativity summary). The Gram is the same on every op."""

    name = "snapshot_stream"
    warmup_ops = 5
    ref_repeats = 1
    ref_after = False
    snapshots = 128

    def __init__(self, rng):
        self.rng = rng
        self.cfg = ArrayConfig(64, 1.0)
        count = int(rng.integers(3, 6))
        self.angles = rng.uniform(-1.2, 1.2, count)
        self.powers = rng.uniform(0.5, 2.0, count)
        self.noise = 0.3
        kappas = self.cfg.gamma * np.pi * np.arange(self.cfg.M)
        self.steering = np.exp(1j * np.multiply.outer(kappas, np.sin(self.angles)))
        self.gram = _IndependentGram(self.cfg.M)
        nodes = 2048
        k = np.arange(nodes, 0, -1)
        self.cheb_x = np.cos((2 * k - 1) * np.pi / (2 * nodes))
        self.cheb_w = np.pi / nodes

    def next_input(self):
        rng, n = self.rng, self.snapshots
        shape = (len(self.angles), n)
        sources = np.sqrt(self.powers / 2)[:, None] * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        noise = np.sqrt(self.noise / 2) * (
            rng.standard_normal((self.cfg.M, n)) + 1j * rng.standard_normal((self.cfg.M, n)))
        x = self.steering @ sources + noise
        cov = x @ x.conj().T / n
        r = np.array([cov.diagonal(-m).mean() for m in range(self.cfg.M)])
        r[0] = r[0].real
        return r

    def op(self, r):
        solution = plv.recover(r, self.cfg)
        sampled = plv.evaluate_solution(solution, THETA_GRID)
        return solution, sampled, plv.negativity_summary(solution)

    def check(self, r, result):
        solution, sampled, negativity = result
        _check_solution(solution, r, self.cfg, self.gram)
        b = solution.coeffs.b
        expect = _trig_values(self.cfg, b, np.sin(THETA_GRID))
        scale = VALUE_REL_TOL * (1.0 + float(np.max(np.abs(expect))))
        if not np.max(np.abs(sampled.values - expect)) <= scale:
            raise CheckFailed("grid values differ from the trigonometric polynomial")
        values = _trig_values(self.cfg, b, self.cheb_x)
        abs_mass = self.cheb_w * float(np.sum(np.abs(values)))
        fraction = self.cheb_w * float(np.sum(np.maximum(-values, 0.0))) / abs_mass
        if not (abs(negativity.min_value - values.min()) <= scale
                and abs(negativity.negative_fraction - fraction) <= VALUE_REL_TOL):
            raise CheckFailed(
                f"negativity {tuple(negativity)} differs from ({values.min()}, {fraction})")


class LargeArray:
    """M = 1024 at a fresh gamma in [1.0, 1.25] on every op, so every op
    needs a new Gram and no cache keyed on (M, gamma) can help."""

    name = "large_array"
    warmup_ops = 1
    # A 1.4 s op spans many swings of the host's speed; sample the kernel
    # long enough on both sides of it to match.
    ref_repeats = 10
    ref_after = True

    def __init__(self, rng):
        self.rng = rng
        self.M = 1024
        count = int(rng.integers(3, 8))
        self.angles = rng.uniform(-1.3, 1.3, count)
        self.powers = rng.uniform(0.5, 2.0, count)
        self.gram = _IndependentGram(self.M)

    def next_input(self):
        cfg = ArrayConfig(self.M, float(self.rng.uniform(1.0, 1.25)))
        r = _lags_from_sources(cfg, self.angles, self.powers)
        r += 0.01 * (self.rng.standard_normal(self.M) + 1j * self.rng.standard_normal(self.M))
        r[0] = r[0].real + 0.3
        return cfg, r

    def op(self, item):
        cfg, r = item
        return plv.recover(r, cfg)

    def check(self, item, solution):
        cfg, r = item
        _check_solution(solution, r, cfg, self.gram)


def _mixture_rho(kind, components, theta):
    """Truncated, unnormalised mixture density, written out from the model
    definitions in the README."""
    total = np.zeros_like(theta)
    for c in components:
        mean, std, weight = c["mean"], c["std"], c["weight"]
        if kind == "gaussian_mixture":
            z = (theta - mean) / std
            total += weight * np.exp(-0.5 * z * z) / (std * np.sqrt(2 * np.pi))
        else:
            scale = std / np.sqrt(2)
            total += weight * np.exp(-np.abs(theta - mean) / scale) / (2 * scale)
    return total


@functools.cache
def _legendre_rule(nodes):
    return scipy.special.roots_legendre(nodes)


def reference_lags(scenario):
    """Lags by Gauss-Legendre quadrature in theta with REFERENCE_NODES per
    panel, split at every component mean (the Laplacian kinks)."""
    M, gamma = scenario["array"]["M"], scenario["array"]["gamma"]
    kind, components = scenario["aps"]["kind"], scenario["aps"]["components"]
    seams = sorted(c["mean"] for c in components if abs(c["mean"]) < np.pi / 2)
    bounds = [-np.pi / 2, *seams, np.pi / 2]
    t, w = _legendre_rule(REFERENCE_NODES)
    kappas = gamma * np.pi * np.arange(M)
    r = np.zeros(M, dtype=np.complex128)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        theta = 0.5 * (hi + lo) + 0.5 * (hi - lo) * t
        weights = 0.5 * (hi - lo) * w * _mixture_rho(kind, components, theta)
        r += np.exp(1j * np.multiply.outer(kappas, np.sin(theta))) @ weights
    return r


class CliPipeline:
    """In-process ``apsrec synthesize``, ``recover`` and ``certify --sweep
    2,4,..,M`` on a fresh mixture truth per op, cycling M through 8, 64
    and 256 with the library's default quadrature."""

    name = "cli_pipeline"
    warmup_ops = 1
    ref_repeats = 1
    ref_after = True
    sizes = (8, 64, 256)

    def __init__(self, rng, workdir):
        self.rng = rng
        self.workdir = Path(workdir)
        self.count = 0

    def next_input(self):
        rng = self.rng
        M = self.sizes[self.count % len(self.sizes)]
        self.count += 1
        components = [
            {"mean": float(rng.uniform(-1.0, 1.0)), "std": float(rng.uniform(0.05, 0.2)),
             "weight": float(rng.uniform(0.5, 1.5))}
            for _ in range(int(rng.integers(1, 4)))
        ]
        kind = ("gaussian_mixture", "laplacian_mixture")[int(rng.integers(2))]
        scenario = {
            "schema": "apsrec-scenario/1",
            "array": {"M": M, "gamma": 1.0},
            "aps": {"kind": kind, "components": components},
        }
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        config = self.workdir / "scenario.json"
        config.write_text(json.dumps(scenario), encoding="utf-8")
        return scenario, config

    def label(self, item):
        return f"M={item[0]['array']['M']}"

    def op(self, item):
        _, config = item
        out, sweep = str(self.workdir / "out"), ",".join(
            str(m) for m in range(2, item[0]["array"]["M"] + 1, 2))
        return (
            cli.main(["synthesize", "--config", str(config), "--out", out]),
            cli.main(["recover", "--config", str(config),
                      "--lags", f"{out}/lags.csv", "--out", out]),
            cli.main(["certify", "--config", str(config), "--out", out, "--sweep", sweep]),
        )

    def bytes_written(self):
        return sum(p.stat().st_size for p in (self.workdir / "out").iterdir())

    def check(self, item, codes):
        scenario, _ = item
        if codes != (0, 0, 0):
            raise CheckFailed(f"exit codes {codes}")
        out = self.workdir / "out"
        table = np.loadtxt(out / "lags.csv", delimiter=",", skiprows=1, ndmin=2)
        lags = table[:, 1] + 1j * table[:, 2]
        error = float(np.max(np.abs(lags - reference_lags(scenario))))
        if not error <= LAG_TOL:
            raise CheckFailed(f"lags.csv off by {error:.3e}")
        cert = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
        floor = ENERGY_REL_TOL * cert["energy_truth"]
        if not cert["reconstruction_error_sq"] >= -floor:
            raise CheckFailed(f"err_sq {cert['reconstruction_error_sq']} below -{floor:.1e}")
        if not cert["pythagoras_gap"] <= floor:
            raise CheckFailed(f"pythagoras_gap {cert['pythagoras_gap']} above {floor:.1e}")
        sweep = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        if not np.all(np.diff(sweep) <= floor):
            raise CheckFailed("resolution sweep increases")


def make(name, rng, workdir):
    if name == SnapshotStream.name:
        return SnapshotStream(rng)
    if name == LargeArray.name:
        return LargeArray(rng)
    if name == CliPipeline.name:
        return CliPipeline(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")

