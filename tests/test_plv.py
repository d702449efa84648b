import contextlib
import multiprocessing
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from quad_helpers import reference_lags, transformed_density

from apsrec.core import (
    ArrayConfig,
    CovarianceLags,
    Domain,
    GaussianMixture,
    LaplacianMixture,
    PointSources,
    TrigCoeffs,
    TrigPolynomial,
    Uniform,
    _MAX_KEPT_TABLE_BYTES,
    lags_from_toeplitz,
    trig_basis,
)
from apsrec import core
from apsrec import gram as gram_module
from apsrec import plv
from apsrec.errors import (
    ConditioningError,
    DomainError,
    FeasibilityWarning,
    ModelError,
    StructureError,
)
from apsrec.forward import synthesize_lags
from apsrec.gram import assemble_gram, bessel_j0, measurement_vector, solve
from apsrec.plv import (
    DEFAULT_RESIDUAL_TOL,
    NegativitySummary,
    PlvSolution,
    evaluate_solution,
    negativity_summary,
    project_onto_nperp,
    recover,
)
from apsrec.quad import theta_quadrature_points, weighted_quadrature_points

FULL_RANGE = Uniform(-np.pi / 2, np.pi / 2, 1.0)
GAUSS_CLUSTER = GaussianMixture(components=((0.3, 0.05, 1.0),))


def test_zero_lags_give_zero_solution():
    cfg = ArrayConfig(5, 1.0)
    solution = recover(np.zeros(5, dtype=complex), cfg)
    assert np.array_equal(solution.coeffs.b, np.zeros(9))
    assert solution.constraint_residual == 0.0


@pytest.mark.parametrize("m", [1, 2, 4, 9])
def test_uniform_spectrum_recovers_constant(m):
    cfg = ArrayConfig(m, 1.0)
    lags = synthesize_lags(FULL_RANGE, cfg)
    solution = recover(lags, cfg)
    expected = np.zeros(2 * m - 1)
    expected[0] = 1.0
    assert np.max(np.abs(solution.coeffs.b - expected)) <= 1e-12
    theta = np.linspace(-1.2, 1.2, 7)
    assert np.allclose(solution.rho(theta), 1.0, atol=1e-11)


def test_trig_polynomial_round_trip(rng):
    cfg = ArrayConfig(6, 1.0)
    b_true = rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)
    model = TrigPolynomial(cfg, TrigCoeffs(b_true))
    lags = synthesize_lags(model, cfg)
    solution = recover(lags, cfg)
    assert np.max(np.abs(solution.coeffs.b - b_true)) <= 1e-8


def test_recovery_deterministic():
    cfg = ArrayConfig(4, 1.0)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    first = recover(lags, cfg)
    second = recover(lags, cfg)
    assert np.array_equal(first.coeffs.b, second.coeffs.b)
    assert first.constraint_residual == second.constraint_residual


def test_recovery_from_threads_matches_serial(rng):
    # Threads share one workspace (the Gram and its tables); each must get
    # the serial answer for the whole recover, evaluate, summarize op.
    cfg = ArrayConfig(64, 1.0)
    theta = np.linspace(-np.pi / 2, np.pi / 2, 181)
    stream = [rng.normal(size=cfg.M) + 1j * rng.normal(size=cfg.M) for _ in range(8)]
    for lags in stream:
        lags[0] = abs(lags[0])

    def op(lags):
        solution = recover(lags, cfg)
        values = evaluate_solution(solution, theta).values
        return solution.coeffs.b, solution.constraint_residual, values, negativity_summary(solution)

    serial = [op(lags) for lags in stream]
    assemble_gram(ArrayConfig(5, 1.0))  # start the threads on a cache miss
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(op, stream, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial, threaded):
        assert np.array_equal(got[0], expected[0])
        assert got[1] == expected[1]
        assert np.array_equal(got[2], expected[2])
        assert got[3] == expected[3]
    # Each op adds its tables after its own assemble_gram stores the Gram,
    # so a lost update is the only way one could be missing here: the
    # audit's Q with its table, the grid's table and the summary's rule.
    entry = gram_module._cached
    assert entry.cfg == cfg
    assert sorted(map(str, entry._kept)) == ["audit", "grid", "rule"]


def fresh_gamma_stream(rng, m, gammas):
    stream = []
    for gamma in gammas:
        lags = rng.normal(size=m) + 1j * rng.normal(size=m)
        lags[0] = abs(lags[0]) + m
        stream.append((lags, ArrayConfig(m, float(gamma))))
    return stream


def assert_threads_match_serial(stream):
    # Four threads each missing the cache on every op (a fresh gamma per
    # op) must get the serial answers.
    def op(case):
        solution = recover(*case)
        return solution.coeffs.b, solution.constraint_residual

    serial = [op(case) for case in stream]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(op, stream, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial, threaded):
        assert np.array_equal(got[0], expected[0])
        assert got[1] == expected[1]


def test_toeplitz_recovery_from_threads_matches_serial(rng):
    # At the size where each new Gram is a Toeplitz factorization, solved
    # through FFT products.
    m = gram_module._TOEPLITZ_MIN_M
    assert_threads_match_serial(fresh_gamma_stream(rng, m, np.linspace(1.0, 1.2, 8)))


def test_split_audit_from_threads_matches_serial(rng):
    # Every recover here misses, so each of the four threads factorizes
    # its Gram and then builds its own audit rule, with Q's 2M - 1 = 1407
    # moments from a nonuniform FFT of its own, in several panels of
    # spread points, while the others do the same.
    stream = fresh_gamma_stream(rng, 704, np.linspace(1.1, 1.25, 16))
    assert_threads_match_serial(stream)


@pytest.mark.parametrize("failing", [ArrayConfig(10, 0.5), ArrayConfig(300, 0.5)],
                         ids=["dense", "toeplitz"])
def test_cache_miss_conditioning_error_keeps_nothing(failing, rng):
    # The miss raises from the solve, before the rule and its Q are built;
    # no thread is left running, and neither the Gram nor the rule may be
    # kept.
    recover(rng.normal(size=7) + 7.0, ArrayConfig(7, 1.0))
    threads = threading.active_count()
    with pytest.raises(ConditioningError):
        recover(np.ones(failing.M, dtype=complex), failing)
    assert threading.active_count() == threads
    assert gram_module._cached is None
    assert gram_module._tables(failing) == {}


def test_cache_miss_audit_error_reaches_caller(monkeypatch):
    # An exception raised by the moment pass while Q is built is raised
    # by recover itself, the same object, and no audit is kept.
    cfg = ArrayConfig(300, 1.1)
    assemble_gram(ArrayConfig(5, 1.0))  # a miss
    error = RuntimeError("moments failed")

    def failing(*args):
        raise error

    monkeypatch.setattr(plv, "_moments", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        recover(np.ones(cfg.M, dtype=complex), cfg)
    assert excinfo.value is error
    assert threading.active_count() == threads
    assert "audit" not in gram_module._tables(cfg)


def test_recover_starts_no_thread(monkeypatch, rng):
    # A miss and then a hit, on either side of the Toeplitz threshold,
    # start no thread, so recover works where none can be started.
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for m in (gram_module._TOEPLITZ_MIN_M - 1, gram_module._TOEPLITZ_MIN_M):
        cfg = ArrayConfig(m, 1.1)
        lags = rng.normal(size=m) + 1j * rng.normal(size=m)
        lags[0] = abs(lags[0]) + m
        monkeypatch.setattr(gram_module, "_cached", None)
        miss = recover(lags, cfg)
        assert list(gram_module._tables(cfg)) == ["audit"]
        hit = recover(lags, cfg)
        assert np.array_equal(hit.coeffs.b, miss.coeffs.b)
        assert hit.constraint_residual == miss.constraint_residual <= DEFAULT_RESIDUAL_TOL


def _recover_in_child(pipe):
    cfg = ArrayConfig(320, 1.07)
    pipe.send(recover(np.ones(cfg.M, dtype=complex), cfg).constraint_residual)


def test_cache_miss_in_forked_child_after_parent_miss():
    # A child forked after the parent's Toeplitz miss misses the cache
    # itself and builds its own Q.
    recover(np.ones(300, dtype=complex), ArrayConfig(300, 1.2))
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_recover_in_child, args=(sender,))
    child.start()
    try:
        assert receiver.poll(120)
        assert receiver.recv() <= DEFAULT_RESIDUAL_TOL
    finally:
        child.join(30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


@pytest.mark.parametrize("m", [16, 300], ids=["dense", "toeplitz"])
def test_cache_miss_audit_independent_of_j0(m, monkeypatch):
    # A Gram built from a wrong J0 value solves consistently with itself;
    # the audit's Q comes from its rule's own moments, so it sees the
    # wrong lags. Were Q built from the same J0 column, nothing would warn.
    cfg = ArrayConfig(m, 1.0)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    assemble_gram(ArrayConfig(5, 1.0))  # a miss
    exact = gram_module.bessel_j0

    def perturbed(z):
        column = exact(z)
        column[3] *= 1.0 + 1e-6
        return column

    monkeypatch.setattr(gram_module, "bessel_j0", perturbed)
    with pytest.warns(FeasibilityWarning):
        solution = recover(lags, cfg)
    assert solution.constraint_residual > 1e-8


def assert_matches_trig_polynomial(solution, x):
    # Bit for bit the kernel's TrigPolynomial.g, and the dense basis to
    # rounding.
    values = solution.g(x)
    assert np.array_equal(values, TrigPolynomial(solution.cfg, solution.coeffs).g(x))
    dense = trig_basis(solution.cfg, x) @ solution.coeffs.b
    assert np.max(np.abs(values - dense)) <= 1e-13 * (1.0 + np.max(np.abs(values)))
    return values


def test_cache_grid_key_is_a_copy(rng):
    # Changing the caller's grid in place must not leave a stale table.
    cfg = ArrayConfig(16, 1.0)
    lags = rng.normal(size=cfg.M) + 1j * rng.normal(size=cfg.M)
    lags[0] = abs(lags[0]) + cfg.M
    solution = recover(lags, cfg)
    x = np.linspace(-1, 1, 41)
    first = evaluate_solution(solution, x, Domain.X).values
    assert np.array_equal(first, assert_matches_trig_polynomial(solution, x))
    x *= 0.5
    again = evaluate_solution(solution, x, Domain.X).values
    assert np.array_equal(again, assert_matches_trig_polynomial(solution, x))
    assert np.array_equal(gram_module._cached._kept["grid"][0], x)


def test_large_grid_table_from_threads_matches_serial(rng):
    # At M = 1024 the 32 baby rows and the giant step of 2001 angles take
    # 1.1 MB and are kept; four threads read that one table, each summing
    # on work rows of its own, and must get the serial samples bit for
    # bit.
    cfg = ArrayConfig(1024, 1.0)
    theta = np.linspace(-np.pi / 2, np.pi / 2, 2001)
    solutions = [PlvSolution(TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)), 0.0, cfg)
                 for _ in range(8)]

    def op(solution):
        return evaluate_solution(solution, theta).values

    assemble_gram(cfg)
    serial = [op(solution) for solution in solutions]
    kept = gram_module._cached._kept["grid"]
    assert kept[1].baby.shape == (32, theta.size)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(op, solutions * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial * 2, threaded):
        assert np.array_equal(got, expected)
    assert gram_module._cached._kept["grid"] is kept


def test_kept_table_cap_counts_baby_and_giant_rows():
    # A grid's table is kept exactly when its B baby rows and its giant
    # step fit the cap: 33 rows of 16 bytes a point at M = 1024.
    cfg = ArrayConfig(1024, 1.0)
    solution = PlvSolution(TrigCoeffs(np.zeros(2 * cfg.M - 1)), 0.0, cfg)
    assemble_gram(cfg)
    fits = _MAX_KEPT_TABLE_BYTES // (16 * 33)
    for points, kept in ((fits, True), (fits + 1, False)):
        x = np.zeros(points)
        solution.g(x)
        assert np.array_equal(gram_module._cached._kept["grid"][0], x) == kept


def test_grid_table_from_threads_matches_serial(rng):
    # Four threads alternate two grids, so the kept grid table is replaced
    # while others read it; each must get the serial samples.
    cfg = ArrayConfig(64, 1.0)
    coeffs = [TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)) for _ in range(4)]
    grids = [np.linspace(-np.pi / 2, np.pi / 2, 181), np.linspace(-1.5, 1.5, 97)]
    cases = [(PlvSolution(coeffs[k % 4], 0.0, cfg), grids[k % 2]) for k in range(16)]

    def op(case):
        return evaluate_solution(*case).values

    assemble_gram(cfg)
    serial = [op(case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(op, cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial, threaded):
        assert np.array_equal(got, expected)
    assert gram_module._cached.cfg == cfg


@pytest.mark.parametrize("shape,count", [((), 1), ((5,), 1), ((7, 3), 1), ((2, 5, 4), 1),
                                         ((181,), 1), ((3, 400), 5)],
                         ids=["0d", "1d", "2d", "3d", "cli-grid", "2d-horner"])
def test_solution_g_matches_trig_polynomial_on_any_shape(shape, count, rng):
    # The dense basis path took 1-d grids only: a 2-d one raised
    # ValueError from np.concatenate. Up to 256 points the table holds all
    # 64 baby rows, one giant power; 1200 points take 13 rows and five.
    cfg = ArrayConfig(64, 1.0)
    solution = PlvSolution(TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)), 0.0, cfg)
    x = rng.uniform(-1.0, 1.0, shape)
    assert plv._exp_table(cfg, x.ravel()).count == count
    values = solution.g(x)
    assert np.shape(values) == shape
    assert np.array_equal(values, TrigPolynomial(cfg, solution.coeffs).g(x))
    theta = np.arcsin(x)
    assert np.array_equal(solution.rho(theta), TrigPolynomial(cfg, solution.coeffs).rho(theta))
    if not shape:
        assert isinstance(values, float)


def test_solution_g_builds_no_dense_table(rng):
    # At (1024, 1) the dense basis of 20,000 points took 781 MB; the
    # kernel runs on about 2 sqrt(M) rows. A positive density, as in
    # TestEvaluateTrig::test_large_order_matches_basis.
    cfg = ArrayConfig(1024, 1.0)
    x = np.linspace(-1.0, 1.0, 20_000)
    b = rng.uniform(-1.0, 1.0, 2 * cfg.M - 1)

    def dense(b):
        return np.concatenate([trig_basis(cfg, part) @ b for part in np.split(x, 20)])

    b[0] += max(0.0, -np.min(dense(b))) + 0.1
    solution = PlvSolution(TrigCoeffs(b), 0.0, cfg)
    tracemalloc.start()
    try:
        values = solution.g(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    expected = dense(b)
    assert np.max(np.abs(values - expected)) <= 1e-13 * (1.0 + np.max(np.abs(values)))


def test_linearity_in_lags(rng):
    cfg = ArrayConfig(5, 1.0)
    r1 = rng.normal(size=5) + 1j * rng.normal(size=5)
    r2 = rng.normal(size=5) + 1j * rng.normal(size=5)
    r1[0] = r1[0].real
    r2[0] = r2[0].real
    alpha = 0.73
    combined = recover(CovarianceLags(alpha * r1 + r2), cfg).coeffs.b
    split = (
        alpha * recover(CovarianceLags(r1), cfg).coeffs.b
        + recover(CovarianceLags(r2), cfg).coeffs.b
    )
    assert np.max(np.abs(combined - split)) <= 1e-10


@pytest.mark.parametrize("model", [FULL_RANGE, GAUSS_CLUSTER,
                                   Uniform(-0.6, 0.2, 1.4)],
                         ids=["uniform", "gaussian", "segment"])
def test_feasibility_residual_within_tolerance(model):
    cfg = ArrayConfig(6, 1.0)
    lags = synthesize_lags(model, cfg)
    solution = recover(lags, cfg)
    assert solution.constraint_residual <= 1e-8 * (1.0 + np.max(np.abs(lags.r)))


def test_feasibility_warning_on_zero_tolerance():
    cfg = ArrayConfig(4, 1.0)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    with pytest.warns(FeasibilityWarning):
        recover(lags, cfg, residual_tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-8])
def test_recover_rejects_unusable_tolerance(tol):
    # A NaN tolerance never warned, whatever the residual.
    cfg = ArrayConfig(4, 1.0)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    with pytest.raises(ValueError, match="residual_tol"):
        recover(lags, cfg, residual_tol=tol)


def default_nodes(cfg):
    # The summary's rule's node count, restated: 4 gamma M + 64 with a
    # 2048 floor.
    return max(2048, int(4 * cfg.gamma * cfg.M) + 64)


def audit_nodes(cfg):
    # The audit rule's node count, restated: half the Bessel cut
    # kappa + 12 kappa^(1/3) + 40 of the top moment frequency
    # kappa = 2 gamma pi (M - 1), plus one, with no floor.
    kappa = cfg.kappa(2 * cfg.M - 2)
    return (int(kappa + 12.0 * np.cbrt(kappa)) + 40) // 2 + 1


def rule_nodes(rule):
    # The node count of a rule's whole Chebyshev-Gauss rule: only an odd
    # one has its middle node at x = 0.
    return 2 * rule.x.size - int(rule.x[0] == 0.0)


@pytest.mark.parametrize("nodes", [1, 2, 3, 2048, 2049, 4161, 5184])
def test_half_rule_is_upper_half_of_full_rule(nodes):
    # The half rule computes only its own nodes: the full rule's x >= 0 to
    # the rounding of one cosine, with the middle node of an odd rule at
    # x = 0 and half weight.
    points, weights = weighted_quadrature_points(nodes)
    x, w = plv._half_rule(nodes)
    expected_x, expected_w = points[nodes // 2:].copy(), weights[nodes // 2:].copy()
    if nodes % 2:
        expected_x[0], expected_w[0] = 0.0, 0.5 * expected_w[0]
    np.testing.assert_array_max_ulp(x, expected_x, maxulp=1)
    assert np.array_equal(w, expected_w)
    assert not x.flags.writeable and not w.flags.writeable


@contextlib.contextmanager
def rules_on(nodes, monkeypatch):
    # Within it, every rule is built on ``nodes`` points and none is kept.
    half_rule = plv._half_rule
    with monkeypatch.context() as patch:
        patch.setattr(plv, "_half_rule", lambda _: half_rule(nodes))
        patch.setattr(plv, "_tables", lambda cfg: {})
        yield


def audit_lags(q, coeffs):
    # The audit's lags Q b of the coefficients, formed as recover forms
    # them.
    y = gram_module._gram_product(q, coeffs.b)
    lags = y[:coeffs.M].astype(np.complex128)
    lags[1:] += 1j * y[coeffs.M:]
    return lags


@pytest.mark.parametrize("m,gamma", [(1, 1.0), (2, 1.0), (64, 1.0), (1024, 1.21),
                                     (700, 1.25), (1025, 1.0)])
@pytest.mark.parametrize("parity", [0, 1], ids=["even_nodes", "odd_nodes"])
def test_residual_audit_matches_direct_quadrature(m, gamma, parity, rng, monkeypatch):
    # Q b, the audit rule's own moments against the coefficients, must
    # reproduce the plain full-rule sum sum_j w_j g(x_j) exp(i kappa_m x_j)
    # over every node of that rule, of its count or one more: dense blocks
    # at M = 1, 2 and 64, the FFT product from the Toeplitz size up.
    cfg = ArrayConfig(m, gamma)
    nodes = audit_nodes(cfg) + parity
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * cfg.M - 1))
    points, weights = weighted_quadrature_points(nodes)
    samples = weights * (trig_basis(cfg, points) @ coeffs.b)
    direct = np.exp(1j * np.multiply.outer(cfg.kappas(m), points)) @ samples
    with rules_on(nodes, monkeypatch):
        audit = audit_lags(plv._audit(cfg), coeffs)
    assert audit.shape == (m,)
    assert np.max(np.abs(audit - direct)) <= 1e-11 * (1.0 + np.max(np.abs(direct)))


def whole_table_half_rule(cfg, b, nodes):
    # The half-rule kernel with the whole M-row power table built at once,
    # each product doubling the rows filled, as the kernel builds it.
    points, weights = weighted_quadrature_points(nodes)
    half = nodes // 2
    x = points[half:].copy()
    w = weights[half:].copy()
    if nodes % 2:
        x[0] = 0.0
        w[0] *= 0.5
    step = np.exp(1j * cfg.gamma * np.pi * x)
    powers = np.empty((cfg.M, x.size), dtype=np.complex128)
    powers[0] = 1.0
    done = 1
    while done < cfg.M:
        top = min(2 * done, cfg.M)
        powers[done:top] = powers[:top - done] * (powers[done - 1] * step)
        done = top
    even = (b[:cfg.M] @ powers).real
    odd = (b[cfg.M:] @ powers[1:]).imag
    lags = 2.0 * ((powers @ (w * even)).real + 1j * (powers @ (w * odd)).imag)
    upper, lower = even + odd, even - odd
    grid_min = float(min(upper.min(), lower.min()))
    abs_mass = float(w @ (np.abs(upper) + np.abs(lower)))
    neg_mass = float(w @ (np.maximum(-upper, 0.0) + np.maximum(-lower, 0.0)))
    return lags, NegativitySummary(grid_min, neg_mass / abs_mass)


def test_kept_table_kernel_bit_identical_to_fresh_table(rng):
    # At M = 64 the summary's rule's table is kept and gives the summary
    # of a table built for the call bit for bit; the audit keeps Q alone,
    # no table, and the kept Q gives the audit of a fresh one. The
    # summary keeps its rule alone, and recover adds Q beside it, leaving
    # the rule as it was. The summary's count is 2048, even, at gamma = 1
    # and 1.07, and 2049, odd, at 1985/256; the audit's is 262, 277 and
    # 1642. Q b, from the nonuniform FFT's moments, and the baby-row sums
    # regroup the whole-table sums, so they agree with them to rounding.
    for gamma, count, audit_count in ((1.0, 2048, 262), (1.07, 2048, 277),
                                      (1985 / 256, 2049, 1642)):
        cfg = ArrayConfig(64, gamma)
        assert (default_nodes(cfg), audit_nodes(cfg)) == (count, audit_count)
        coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * cfg.M - 1))
        solution = PlvSolution(coeffs, 0.0, cfg)
        assemble_gram(ArrayConfig(5, 1.0))  # a rule, Q and a summary of their own
        fresh = plv._audit(cfg)
        lags, _ = whole_table_half_rule(cfg, coeffs.b, audit_count)
        audit = audit_lags(fresh, coeffs)
        assert np.max(np.abs(audit - lags)) <= 1e-12 * (1.0 + np.max(np.abs(lags)))
        _, summary = whole_table_half_rule(cfg, coeffs.b, count)
        unkept = negativity_summary(solution)
        assert abs(unkept.min_value - summary.min_value) <= 1e-12 * (
            1.0 + abs(summary.min_value))
        assert abs(unkept.negative_fraction - summary.negative_fraction) <= 1e-12
        assemble_gram(cfg)
        for _ in range(2):  # built, then kept
            assert negativity_summary(solution) == unkept
        assert list(gram_module._cached._kept) == ["rule"]
        kept = gram_module._cached._kept["rule"]
        assert rule_nodes(kept) == count and kept.table is not None
        lags = synthesize_lags(GAUSS_CLUSTER, cfg)
        recovered = recover(lags, cfg)
        assert sorted(gram_module._cached._kept) == ["audit", "rule"]
        assert gram_module._cached._kept["rule"] is kept
        audited = gram_module._cached._kept["audit"]
        assert [block.shape for block in audited] == [(64, 64), (63, 63)]
        for coeffs in (recovered.coeffs, TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * cfg.M - 1))):
            assert np.array_equal(audit_lags(audited, coeffs), audit_lags(fresh, coeffs))
        audit = audit_lags(fresh, recovered.coeffs)
        assert recovered.constraint_residual == float(np.max(np.abs(audit - lags.r)))


@pytest.mark.parametrize("m,gamma,parity", [
    pytest.param(1024, 1.0, 0, id="1.0"),
    pytest.param(1024, 1.25, 0, id="1.25"),
    pytest.param(700, 1.25, 0, id="even_nodes-700-1.25"),
    pytest.param(700, 1.25, 1, id="odd_nodes-700-1.25"),
    pytest.param(1025, 1.0, 0, id="even_nodes-1025-1.0"),
    pytest.param(1025, 1.0, 1, id="odd_nodes-1025-1.0"),
])
def test_block_wise_kernel_matches_whole_table(m, gamma, parity, rng, monkeypatch):
    # The kernel runs on baby rows step**r and powers of the giant step
    # step**B, B = isqrt(M), which at M = 700 and 1025 do not tile the M
    # rows exactly; the sums regroup, so agreement is to rounding. The
    # audit, whose moments come from a nonuniform FFT, and the summary
    # run on one rule here.
    cfg = ArrayConfig(m, gamma)
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * cfg.M - 1))
    nodes = default_nodes(cfg) + parity
    lags, summary = whole_table_half_rule(cfg, coeffs.b, nodes)
    with rules_on(nodes, monkeypatch):
        audit = audit_lags(plv._audit(cfg), coeffs)
        blocked = negativity_summary(PlvSolution(coeffs, 0.0, cfg))
    assert np.max(np.abs(audit - lags)) <= 1e-12 * (1.0 + np.max(np.abs(lags)))
    assert abs(blocked.min_value - summary.min_value) <= 1e-12 * (
        1.0 + abs(summary.min_value))
    assert abs(blocked.negative_fraction - summary.negative_fraction) <= 1e-12


def test_block_wise_kernel_builds_no_whole_table(rng):
    # The whole (1024, 1.25) table of the summary's rule is 1024 x 2592
    # complex, about 42 MB, and Q's moments on the audit's rule would
    # take one of 2047 x 2079, about 68 MB. The audit's nonuniform FFT
    # spreads its 2079 points through 120 KiB blocks onto an 8192-point
    # grid; the summary holds its rule's 1.4 MB table. The peaks read
    # 0.52-0.54 MB for the audit (the higher with the kernel's transform
    # built), 2.71 MB for the summary, whose 1.3 MB of Horner rows are not
    # streamed, and 0.65 MB for recover; each limit adds 0.2-0.3 MB. The
    # kept audit is Q alone in its Toeplitz form, one spectrum row.
    cfg = ArrayConfig(1024, 1.25)
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * cfg.M - 1))
    solution = PlvSolution(coeffs, 0.0, cfg)
    assemble_gram(ArrayConfig(5, 1.0))  # recover misses
    size = gram_module._fft_size(2 * cfg.M - 1)  # scipy.fft is imported before tracing
    for run, limit in ((lambda: audit_lags(plv._audit(cfg), coeffs), 0.8),
                       (lambda: negativity_summary(solution), 3.0),
                       (lambda: recover(np.ones(cfg.M, dtype=complex), cfg), 0.9)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20
    (spectrum,) = gram_module._tables(cfg)["audit"]
    assert spectrum.shape == (size // 2 + 1,)


def test_fresh_configuration_builds_one_kernel_table(monkeypatch):
    # The negativity summary and a callable's projection share the
    # configuration's one rule and its one kernel table, of 1024 nodes
    # x >= 0; with a node count each, they built two. recover builds no
    # kernel table: one nonuniform FFT gives its audit's 2M - 1 moments
    # on the 139 nodes x >= 0 of its own rule.
    cfg = ArrayConfig(64, 1.07)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    built, moments = [], []
    exp_table, nufft = core._exp_table, plv._moments

    def counting(cfg, x):
        built.append(x.size)
        return exp_table(cfg, x)

    def counting_moments(cfg, x, w):
        moments.append(x.size)
        return nufft(cfg, x, w)

    monkeypatch.setattr(core, "_exp_table", counting)
    monkeypatch.setattr(plv, "_exp_table", counting)
    monkeypatch.setattr(plv, "_moments", counting_moments)
    assemble_gram(ArrayConfig(5, 1.0))  # recover misses
    solution = recover(lags, cfg)
    assert (built, moments) == ([], [139])
    negativity_summary(solution)
    project_onto_nperp(transformed_density(GAUSS_CLUSTER), cfg)
    assert (built, moments) == ([1024], [139])


@pytest.mark.parametrize("capped", [False, True], ids=["kept_table", "over_cap"])
def test_rule_builds_q_only_for_recover(monkeypatch, capped):
    # Only recover reads Q. A summary on a configuration that is not the
    # cached Gram's makes no moment pass, and a callable's projection
    # makes only its own lags' two kernel passes; then recover builds Q
    # by one nonuniform FFT on its own rule, and a repeat builds nothing.
    # The kept audit is Q alone; past the kept-table cap the rule is kept
    # without its table.
    if capped:
        monkeypatch.setattr(plv, "_MAX_KEPT_TABLE_BYTES", 1024)
    cfg = ArrayConfig(64, 1.07)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    solution = PlvSolution(TrigCoeffs(np.ones(2 * cfg.M - 1)), 0.0, cfg)
    moments = []
    giant_lags, nufft = core._giant_lags, plv._moments

    def counting(table, v, M):
        moments.append(M)
        return giant_lags(table, v, M)

    def counting_moments(cfg, x, w):
        moments.append("nufft")
        return nufft(cfg, x, w)

    monkeypatch.setattr(core, "_giant_lags", counting)
    monkeypatch.setattr(plv, "_moments", counting_moments)
    assemble_gram(ArrayConfig(5, 1.0))
    negativity_summary(solution)
    assert moments == []
    project_onto_nperp(transformed_density(GAUSS_CLUSTER), cfg)
    assert moments == [cfg.M, cfg.M]
    assert list(gram_module._tables(cfg)) == ["rule"]
    for _ in range(2):
        assert recover(lags, cfg).constraint_residual <= DEFAULT_RESIDUAL_TOL
        negativity_summary(solution)
    assert moments == [cfg.M, cfg.M, "nufft"]
    tables = gram_module._tables(cfg)
    assert (tables["rule"].table is None) == capped
    assert [block.shape for block in tables["audit"]] == [(64, 64), (63, 63)]


def test_rule_over_kept_size_keeps_q_without_table(monkeypatch, rng):
    # Past the cap the audit is kept as its Q, which has no table, and
    # the summary's rule without its table, which the summary and a
    # callable's projection then build per call, with the same results as
    # from the kept table.
    cfg = ArrayConfig(64, 1.0)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    g = transformed_density(GAUSS_CLUSTER)
    assemble_gram(ArrayConfig(5, 1.0))
    solution = recover(lags, cfg)
    expected = negativity_summary(solution), project_onto_nperp(g, cfg).b
    assemble_gram(ArrayConfig(5, 1.0))
    monkeypatch.setattr(plv, "_MAX_KEPT_TABLE_BYTES", 1024)
    assert np.array_equal(recover(lags, cfg).coeffs.b, solution.coeffs.b)
    audit = gram_module._tables(cfg)["audit"]
    assert len(audit) == 2
    for _ in range(2):
        assert negativity_summary(solution) == expected[0]
        assert np.array_equal(project_onto_nperp(g, cfg).b, expected[1])
    rule = gram_module._tables(cfg)["rule"]
    assert rule.table is None
    assert recover(lags, cfg).constraint_residual == solution.constraint_residual
    assert gram_module._tables(cfg)["rule"] is rule
    assert gram_module._tables(cfg)["audit"] is audit


@pytest.mark.parametrize("m,gamma", [(8, 1.0), (64, 1.0), (1024, 1.25)])
def test_audit_moments_match_pi_j0(m, gamma, monkeypatch):
    # The audit's rule clears the Bessel transition of its top frequency,
    # so its moments are pi J0(kappa_l) to rounding (1.7e-15, 1.5e-14 and
    # 9.3e-14 here), although Q never comes from J0.
    cfg = ArrayConfig(m, gamma)
    columns = []
    gram_form = plv._gram_form

    def recording(column):
        columns.append(column)
        return gram_form(column)

    monkeypatch.setattr(plv, "_gram_form", recording)
    assemble_gram(ArrayConfig(5, 1.0))  # a miss
    plv._audit(cfg)
    (moments,) = columns
    expected = np.pi * scipy.special.j0(cfg.gamma * np.pi * np.arange(2 * m - 1))
    assert np.max(np.abs(moments - expected)) <= 2e-13


@pytest.mark.parametrize("m", [1, 2, 3, 8, 24])
@pytest.mark.parametrize("gamma", [0.5, 1.13, 32.0])
@pytest.mark.parametrize("parity", [0, 1], ids=["audit_nodes", "one_more"])
def test_audit_moments_match_direct_sum(m, gamma, parity):
    # The nonuniform FFT's moments against the rule's own sum
    # sum_j 2 w_j cos(kappa_l x_j) over its half, in 30-digit arithmetic
    # at the rule's float nodes, on the audit's node count and one more
    # (odd and even rules). Measured: at most 3.0e-15.
    mpmath = pytest.importorskip("mpmath")
    cfg = ArrayConfig(m, gamma)
    x, w = plv._half_rule(audit_nodes(cfg) + parity)
    moments = plv._moments(cfg, x, w)
    with mpmath.workdps(30):
        theta = [mpmath.mpf(gamma) * mpmath.pi * mpmath.mpf(xj) for xj in x.tolist()]
        weights = [2 * mpmath.mpf(wj) for wj in w.tolist()]
        expected = [float(mpmath.fsum(wj * mpmath.cos(l * tj) for tj, wj in zip(theta, weights)))
                    for l in range(2 * m - 1)]
    assert np.max(np.abs(moments - expected)) <= 1e-14


@pytest.mark.parametrize("m", [1, 2, 3, 8, 64, 257, 1024, 4096])
def test_audit_moments_match_pi_j0_at_every_spacing(m):
    # On the audit's rule and on one node more, at spacings where
    # theta_j = gamma pi x_j stays within one period (gamma <= 2) and
    # where it wraps the grid (up to 16 times at gamma = 32), the moments
    # are pi J0(kappa_l) to 2e-13, or to the rule's own rounding where
    # that is larger: the float nodes x_j move kappa_l x_j by up to
    # eps kappa_{2M-2}, which moves a moment by about
    # eps kappa_{2M-2} pi / sqrt(N) for N nodes, for any way of summing
    # (the exponential-sum kernel read 4.7e-13 at M = 1024, gamma = 32).
    # Measured: at most 1.6 times that, 1.5e-12 at M = 4096, gamma = 32.
    for gamma in (0.5, 0.999, 1.0, 1.13, 1.25, 3.0, 32.0):
        cfg = ArrayConfig(m, gamma)
        expected = np.pi * scipy.special.j0(cfg.kappas(2 * m - 1))
        for nodes in (audit_nodes(cfg), audit_nodes(cfg) + 1):
            x, w = plv._half_rule(nodes)
            rounding = 3.0 * np.finfo(float).eps * cfg.kappa(2 * m - 2) * np.pi / np.sqrt(nodes)
            error = np.max(np.abs(plv._moments(cfg, x, w) - expected))
            assert error <= max(2e-13, rounding), (gamma, nodes)


def test_recover_peak_memory_grows_linearly():
    # A miss at gamma = 1 holds no kernel table: the audit spreads its
    # points in blocks and builds the kernel's transform one quadrature
    # node at a time, so doubling M from 8192 to 16384 doubles the peak
    # (3.48 to 6.73 MiB measured), where the audit's table made it grow
    # as M^1.5 (27 to 68 MiB). The transform is rebuilt for each size.
    peaks = []
    for m in (8192, 16384):
        assemble_gram(ArrayConfig(5, 1.0))  # a miss
        plv._deconvolution.cache_clear()
        tracemalloc.start()
        try:
            recover(np.ones(m, dtype=complex), ArrayConfig(m, 1.0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.2 * peaks[0]


def test_audit_rule_clears_the_bessel_transition():
    # The audit's first alias J_{2N}(kappa_{2M-2}), from scipy's jv, is
    # below 1e-20 (3.0e-21 at worst) over M <= 16384, gamma in [0.5, 32].
    sizes = np.unique(np.geomspace(1, 16384, 120).round().astype(int))
    gammas = np.geomspace(0.5, 32.0, 40)
    configs = [ArrayConfig(int(m), float(gamma)) for m in sizes for gamma in gammas]
    orders = np.array([2 * audit_nodes(cfg) for cfg in configs])
    kappas = np.array([cfg.kappa(2 * cfg.M - 2) for cfg in configs])
    assert np.max(np.abs(scipy.special.jv(orders, kappas))) <= 1e-20
    assert [audit_nodes(ArrayConfig(1024, gamma)) for gamma in (1.0, 1.13, 1.25)] == [
        3346, 3768, 4158]
    assert audit_nodes(ArrayConfig(64, 1.0)) == 262


def test_cache_miss_builds_audit_rule_then_summary_rule(monkeypatch, rng):
    # A recover-only miss builds one half rule, the audit's; a summary
    # after it builds the summary's own, of the resolution count.
    cfg = ArrayConfig(1024, 1.13)
    counts = []
    half_rule = plv._half_rule

    def recording(nodes):
        counts.append(nodes)
        return half_rule(nodes)

    monkeypatch.setattr(plv, "_half_rule", recording)
    assemble_gram(ArrayConfig(5, 1.0))  # a miss
    lags = rng.normal(size=cfg.M) + 1j * rng.normal(size=cfg.M)
    lags[0] = abs(lags[0]) + cfg.M
    solution = recover(lags, cfg)
    assert counts == [audit_nodes(cfg)] == [3768]
    negativity_summary(solution)
    recover(lags, cfg)
    assert counts == [3768, default_nodes(cfg)] == [3768, 4692]


@pytest.mark.parametrize("m,gamma", [(1, 1.0), (8, 1.0), (64, 1.0), (64, 1.13), (300, 1.07),
                                     (1024, 1.25)])
def test_summary_evaluation_projection_keep_the_resolution_rule(m, gamma, rng):
    # The audit's rule changes nothing else: the summary and a callable's
    # projection are, bit for bit, the kernel's on the half rule of
    # max(2048, 4 gamma M + 64) nodes and its table of M powers, and an
    # evaluation is TrigPolynomial's, built afresh and kept alike.
    cfg = ArrayConfig(m, gamma)
    g = transformed_density(GAUSS_CLUSTER)
    x, w = plv._half_rule(default_nodes(cfg))
    table = core._exp_table(cfg, x)
    theta = np.linspace(-np.pi / 2, np.pi / 2, 181)
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * m - 1))
    even, odd = core._exp_samples(table, coeffs.b)
    spread = np.abs(odd)
    peak = np.maximum(np.abs(even), spread)
    summary = NegativitySummary(float((even - spread).min()),
                                float(w @ (peak - even)) / (2.0 * float(w @ peak)))
    upper, lower = w * g(x), w * g(-x)
    lags = core._exp_lags(table, upper + lower, upper - lower, m)
    projection = solve(assemble_gram(cfg), np.concatenate([lags.real, lags[1:].imag])).b
    values = TrigPolynomial(cfg, coeffs).rho(theta)
    solution = PlvSolution(coeffs, 0.0, cfg)
    for cached in (False, True):
        assemble_gram(ArrayConfig(5, 1.0))
        if cached:
            recover(np.ones(m, dtype=complex), cfg)
        for _ in range(2):  # built, then kept when cached
            assert negativity_summary(solution) == summary
            assert np.array_equal(project_onto_nperp(g, cfg).b, projection)
            assert np.array_equal(evaluate_solution(solution, theta).values, values)


def test_audit_and_summary_from_threads_match_serial(rng):
    # Four threads miss the cache on every op (a fresh gamma each), so
    # each builds the audit's record and the summary's rule for its own
    # configuration while others replace the cached Gram; each must get
    # the serial answers.
    stream = fresh_gamma_stream(rng, 300, np.linspace(1.0, 1.2, 12))

    def op(case):
        solution = recover(*case)
        return solution.coeffs.b, solution.constraint_residual, negativity_summary(solution)

    serial = [op(case) for case in stream]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(op, stream, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial, threaded):
        assert np.array_equal(got[0], expected[0])
        assert got[1:] == expected[1:]


def test_residual_audit_catches_wrong_coefficient(monkeypatch):
    cfg = ArrayConfig(16, 1.0)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    good = recover(lags, cfg).coeffs.b
    bad = good.copy()
    bad[cfg.M + 3] += 1e-6
    scale = DEFAULT_RESIDUAL_TOL * (1.0 + np.max(np.abs(lags.r)))
    residual = np.max(np.abs(audit_lags(plv._audit(cfg), TrigCoeffs(bad)) - lags.r))
    assert residual > scale

    monkeypatch.setattr(plv, "solve", lambda gram, y: TrigCoeffs(bad))
    with pytest.warns(FeasibilityWarning):
        solution = recover(lags, cfg)
    assert solution.constraint_residual > scale


def test_minimum_norm_orthogonality():
    # The residual g_true - g_rec lies in the nullspace of the lag map, and
    # the reconstruction is orthogonal to that nullspace.
    cfg = ArrayConfig(4, 1.0)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    solution = recover(lags, cfg)
    points, weights = theta_quadrature_points(512, GAUSS_CLUSTER.seams_theta())
    g_rec = solution.g(np.sin(points))
    h = GAUSS_CLUSTER.rho(points) - g_rec
    inner = float(weights @ (g_rec * h))
    scale = np.sqrt(float(weights @ (g_rec * g_rec))) * np.sqrt(float(weights @ (h * h)))
    assert abs(inner) <= 1e-8 * scale


@pytest.mark.parametrize("model", [
    FULL_RANGE,
    Uniform(-0.6, 0.2, 1.4),
    GAUSS_CLUSTER,
    TrigPolynomial(ArrayConfig(5, 1.0), TrigCoeffs(np.array([1.0, 0.3, -0.2, 0.1, 0.05, -0.4, 0.2, 0.0, 0.15]))),
], ids=["uniform", "segment", "gaussian", "trig"])
def test_projection_consistency(model):
    # Projecting the density and recovering from its lags are the same map.
    cfg = ArrayConfig(5, 1.0)
    projected = project_onto_nperp(model, cfg)
    recovered = recover(synthesize_lags(model, cfg), cfg)
    assert np.max(np.abs(projected.b - recovered.coeffs.b)) <= 1e-8


PROJECTION_TRUTHS = [
    Uniform(-0.6, 0.2, 1.4),
    GAUSS_CLUSTER,
    LaplacianMixture(components=((0.25, 0.08, 1.0),)),
    TrigPolynomial(ArrayConfig(5, 1.0), TrigCoeffs(np.array([1.0, 0.3, -0.2, 0.1, 0.05, -0.4, 0.2, 0.0, 0.15]))),
    Uniform(-0.3, 0.3, 0.5) + GaussianMixture(components=((0.5, 0.1, 1.0),)),
]


@pytest.mark.parametrize("m", [1, 8, 64, 256])
@pytest.mark.parametrize("model", PROJECTION_TRUTHS, ids=lambda m: type(m).__name__)
def test_projection_matches_dense_basis_moments(model, m):
    # A model's moments are its exact lags: the dense reference rule's
    # agree with them, and the projection is recover of them, bit for bit.
    cfg = ArrayConfig(m, 1.0)
    gram = assemble_gram(cfg)
    dense = solve(gram, measurement_vector(CovarianceLags(reference_lags(model, cfg)))).b
    projected = project_onto_nperp(model, cfg).b
    assert np.max(np.abs(projected - dense)) <= 1e-12 * np.max(np.abs(dense))
    lags = synthesize_lags(model, cfg)
    assert np.array_equal(projected, recover(lags, cfg).coeffs.b)


class TestProjection:
    def test_identity_on_subspace(self):
        cfg = ArrayConfig(4, 1.0)
        b = np.array([0.5, 0.2, -0.3, 0.1, 0.4, 0.0, -0.2])

        def member(x):
            return (0.5 + 0.2 * np.cos(np.pi * x) - 0.3 * np.cos(2 * np.pi * x)
                    + 0.1 * np.cos(3 * np.pi * x) + 0.4 * np.sin(np.pi * x)
                    - 0.2 * np.sin(3 * np.pi * x))

        projected = project_onto_nperp(member, cfg)
        assert np.max(np.abs(projected.b - b)) <= 1e-9

    def test_even_function_gets_pure_cosine_coefficients(self):
        # Independent mini-oracle: with M = 2 the normal equations are 2x2
        # for the cosine block, with closed-form moments via J0.
        cfg = ArrayConfig(2, 1.0)
        g = lambda x: np.cos(np.pi * x / 2.0)
        projected = project_onto_nperp(g, cfg)
        moment_const = np.pi * bessel_j0(np.pi / 2)
        moment_cos = (np.pi / 2) * (bessel_j0(np.pi / 2) + bessel_j0(3 * np.pi / 2))
        g_re = np.array([
            [np.pi, np.pi * bessel_j0(np.pi)],
            [np.pi * bessel_j0(np.pi), (np.pi / 2) * (1 + bessel_j0(2 * np.pi))],
        ])
        expected_cos = np.linalg.solve(g_re, [moment_const, moment_cos])
        assert np.max(np.abs(projected.b[:2] - expected_cos)) <= 1e-10
        assert abs(projected.b[2]) <= 1e-13
        assert np.any(np.abs(projected.b[:2]) > 0.1)

    def test_orthogonal_complement_projects_to_zero(self):
        cfg = ArrayConfig(3, 1.0)
        model = GaussianMixture(components=((0.2, 0.3, 1.0),))
        coeffs = project_onto_nperp(model, cfg)
        g_true = transformed_density(model)

        def residual(x):
            return g_true(x) - trig_basis(cfg, x) @ coeffs.b

        again = project_onto_nperp(residual, cfg)
        assert np.max(np.abs(again.b)) <= 1e-8

    def test_rejects_models_without_density(self):
        # Atoms have lags but no density to project.
        cfg = ArrayConfig(3, 1.0)
        atoms = PointSources(sources=((0.3, 1.0),))
        for model in (atoms, atoms + GAUSS_CLUSTER):
            with pytest.raises(ModelError):
                project_onto_nperp(model, cfg)

    def test_callable_default_rule_follows_bandwidth(self):
        # A fixed 512-node default left a two-Gaussian callable's
        # projection at M = 512 off by 0.85 relative from the model's
        # exact one; the default grows with the top frequency.
        cfg = ArrayConfig(512, 1.0)
        model = GaussianMixture(components=((0.3, 0.05, 1.0), (-0.4, 0.1, 0.7)))
        exact = project_onto_nperp(model, cfg).b
        projected = project_onto_nperp(transformed_density(model), cfg).b
        assert np.max(np.abs(projected - exact)) <= 1e-12 * np.max(np.abs(exact))
        # A small array's rule has the 2048-node floor: the dense basis's
        # moments on it give the same projection.
        small = ArrayConfig(8, 1.0)
        points, weights = weighted_quadrature_points(2048)
        g = transformed_density(model)
        dense = solve(assemble_gram(small), trig_basis(small, points).T @ (weights * g(points))).b
        projected = project_onto_nperp(g, small).b
        assert np.max(np.abs(projected - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("nodes", [0, 100.5, np.float64(64.0), True, "64"])
    def test_rejects_bad_node_counts(self, nodes):
        # A callable's rule follows the array: no node count is taken.
        g, cfg = transformed_density(GAUSS_CLUSTER), ArrayConfig(2, 1.0)
        with pytest.raises(TypeError):
            project_onto_nperp(g, cfg, nodes)
        with pytest.raises(TypeError):
            project_onto_nperp(g, cfg, nodes=nodes)


class TestRecoverFromMatrix:
    """A full covariance matrix is recovered through its validated lags."""

    def test_identity_matches_direct_recovery(self):
        cfg = ArrayConfig(2, 1.0)
        via_matrix = recover(lags_from_toeplitz(np.eye(2, dtype=complex)), cfg)
        direct = recover(np.array([1.0, 0.0], dtype=complex), cfg)
        assert np.array_equal(via_matrix.coeffs.b, direct.coeffs.b)

    def test_point_source_covariance(self):
        cfg = ArrayConfig(3, 1.0)
        lags = synthesize_lags(PointSources(sources=((0.35, 1.0),)), cfg)
        matrix = scipy.linalg.toeplitz(lags.r, lags.r.conj())
        solution = recover(lags_from_toeplitz(matrix), cfg)
        # oracle: the plain normal-equations route
        expected = solve(assemble_gram(cfg), measurement_vector(lags))
        assert np.max(np.abs(solution.coeffs.b - expected.b)) <= 1e-14
        assert np.all(np.isfinite(solution.coeffs.b))

    def test_non_toeplitz_rejected(self):
        with pytest.raises(StructureError):
            recover(lags_from_toeplitz(np.diag([1.0, 2.0]).astype(complex)), ArrayConfig(2, 1.0))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            recover(lags_from_toeplitz(np.eye(3, dtype=complex)), ArrayConfig(2, 1.0))


class TestEvaluateSolution:
    def make_solution(self, b, m=3, gamma=1.0):
        return PlvSolution(TrigCoeffs(np.asarray(b, dtype=float)), 0.0, ArrayConfig(m, gamma))

    def test_constant_on_theta_grid(self):
        solution = self.make_solution([1.0, 0, 0, 0, 0])
        sampled = evaluate_solution(solution, np.linspace(-np.pi / 2, np.pi / 2, 9), Domain.THETA)
        assert np.allclose(sampled.values, 1.0, atol=0)
        assert sampled.domain is Domain.THETA

    def test_cosine_unit_at_origin(self):
        solution = self.make_solution([0.0, 1.0, 0.0, 0.0, 0.0])
        sampled = evaluate_solution(solution, np.array([0.0]), Domain.X)
        assert sampled.values[0] == pytest.approx(1.0, abs=0)

    def test_theta_and_x_grids_agree(self):
        solution = self.make_solution([0.3, -0.2, 0.5, 0.1, -0.4])
        via_theta = evaluate_solution(solution, np.array([np.pi / 6]), Domain.THETA)
        via_x = evaluate_solution(solution, np.array([0.5]), Domain.X)
        assert via_theta.values[0] == pytest.approx(via_x.values[0], rel=1e-15)

    def test_domain_errors(self):
        solution = self.make_solution([1.0, 0, 0, 0, 0])
        with pytest.raises(DomainError):
            evaluate_solution(solution, np.array([2.0]), Domain.THETA)
        with pytest.raises(DomainError):
            evaluate_solution(solution, np.array([1.5]), Domain.X)

    @pytest.mark.parametrize("domain", [Domain.THETA, Domain.X])
    def test_nan_grid_is_outside_the_domain(self, domain):
        # |NaN| > limit is false: [nan] came back as [nan], and [0, nan]
        # raised ValueError from the grid's ordering check.
        solution = self.make_solution([1.0, 0, 0, 0, 0])
        for grid in ([np.nan], [0.0, np.nan]):
            with pytest.raises(DomainError):
                evaluate_solution(solution, np.array(grid), domain)

    def test_accepts_domain_string(self):
        solution = self.make_solution([1.0, 0, 0, 0, 0])
        sampled = evaluate_solution(solution, np.array([0.0, 0.5]), "x")
        assert sampled.domain is Domain.X

    @pytest.mark.parametrize("domain", [Domain.THETA, Domain.X])
    def test_sampled_arrays_are_read_only_copies(self, domain):
        # The SampledFunction keeps read-only copies of the caller's grid
        # and of the sampled values.
        solution = self.make_solution([0.3, -0.2, 0.5, 0.1, -0.4])
        empty = evaluate_solution(solution, np.array([]), domain)
        assert len(empty) == 0 and empty.values.shape == (0,) and empty.domain is domain
        grid = np.linspace(-1.0, 1.0, 7)
        sampled = evaluate_solution(solution, grid, domain)
        expected = solution.rho(grid) if domain is Domain.THETA else solution.g(grid)
        assert np.array_equal(sampled.values, expected)
        for array in (sampled.grid, sampled.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0
        grid *= 0.5
        assert np.array_equal(sampled.grid, np.linspace(-1.0, 1.0, 7))
        with pytest.raises(ValueError, match="strictly increasing"):
            evaluate_solution(solution, grid[::-1], domain)


def test_negative_reconstruction_reported_not_clipped():
    # Two narrow point sources force the minimum-norm reconstruction to
    # oscillate below zero; the artifact must report that, never clip.
    cfg = ArrayConfig(6, 1.0)
    model = PointSources(sources=((-0.35, 1.0), (0.4, 1.0)))
    solution = recover(synthesize_lags(model, cfg), cfg)
    grid = np.linspace(-1.0, 1.0, 2001)
    values = solution.g(grid)
    assert np.min(values) < 0.0
    summary = negativity_summary(solution)
    assert summary.min_value < 0.0
    assert summary.min_value == pytest.approx(np.min(values), rel=1e-3)
    assert 0.0 < summary.negative_fraction < 1.0


def test_negativity_summary_zero_for_nonnegative():
    # A nonnegative reconstruction reports exactly no negative mass, with
    # or without an odd part: 1 + 0.5 cos(kappa_1 x) + 0.4 sin(kappa_1 x)
    # stays above 0.35.
    cfg = ArrayConfig(3, 1.0)
    solution = recover(synthesize_lags(FULL_RANGE, cfg), cfg)
    summary = negativity_summary(solution)
    assert summary.negative_fraction == 0.0
    assert summary.min_value == pytest.approx(1.0, abs=1e-10)
    tilted = negativity_summary(PlvSolution(TrigCoeffs([1.0, 0.5, 0.0, 0.4, 0.0]), 0.0, cfg))
    assert tilted.negative_fraction == 0.0
    assert 0.35 < tilted.min_value < 0.37


def _dense_negativity(cfg, b, nodes, chunk=1024):
    # Direct evaluation of g on every node of the full Chebyshev-Gauss
    # rule, in row chunks so that large rules stay small in memory.
    points, weights = weighted_quadrature_points(nodes)
    values = np.concatenate(
        [trig_basis(cfg, points[i:i + chunk]) @ b for i in range(0, nodes, chunk)])
    fraction = np.sum(weights * np.maximum(-values, 0.0)) / np.sum(weights * np.abs(values))
    return values, float(fraction)


@pytest.mark.parametrize("m,gamma", [(1, 1.0), (2, 1.0), (64, 1.0), (1024, 1.21)])
@pytest.mark.parametrize("parity", [0, 1], ids=["even_nodes", "odd_nodes"])
def test_negativity_summary_matches_direct_evaluation(m, gamma, parity, rng, monkeypatch):
    # g(+-x_j) from the half-rule power table must reproduce g sampled on
    # every node of the full rule, of the default count or one more.
    cfg = ArrayConfig(m, gamma)
    nodes = default_nodes(cfg) + parity
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, 2 * cfg.M - 1))
    values, fraction = _dense_negativity(cfg, coeffs.b, nodes)
    with rules_on(nodes, monkeypatch):
        summary = negativity_summary(PlvSolution(coeffs, 0.0, cfg))
    assert abs(summary.min_value - values.min()) <= 1e-12 * (1.0 + np.max(np.abs(values)))
    assert abs(summary.negative_fraction - fraction) <= 1e-12


def test_negativity_summary_default_nodes_follow_bandwidth():
    # Four sources at M = 1024, gamma = 1.25: a fixed 2048-node grid has
    # under 1.1 nodes per period of the top frequency near x = 0 and
    # misreads the negative mass fraction by about 3e-3; the default
    # count follows gamma pi (M-1).
    cfg = ArrayConfig(1024, 1.25)
    rng = np.random.default_rng(3)
    angles = rng.uniform(-1.3, 1.3, 4)
    powers = rng.uniform(0.5, 2.0, 4)
    r = np.exp(1j * np.multiply.outer(cfg.kappas(cfg.M), np.sin(angles))) @ powers
    r += 0.01 * (rng.standard_normal(cfg.M) + 1j * rng.standard_normal(cfg.M))
    r[0] = r[0].real + 0.3
    solution = recover(r, cfg)
    _, fraction = _dense_negativity(cfg, solution.coeffs.b, 16384)
    summary = negativity_summary(solution)
    assert summary.min_value < 0.0
    assert abs(summary.negative_fraction - fraction) <= 1e-3


def test_lag_length_mismatch():
    with pytest.raises(ValueError):
        recover(np.zeros(3, dtype=complex), ArrayConfig(4, 1.0))
