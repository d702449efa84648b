import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from quad_helpers import reference_lags, seams_x

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
    lags_from_toeplitz,
    toeplitz_from_lags,
    transform_aps,
    trig_basis,
)
from apsrec import gram as gram_module
from apsrec import plv
from apsrec.errors import DomainError, FeasibilityWarning, ModelError, StructureError
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
from apsrec.quad import weighted_quadrature_points

FULL_RANGE = Uniform(-np.pi / 2, np.pi / 2, 1.0)
GAUSS_CLUSTER = GaussianMixture(components=((0.3, 0.05, 1.0),))


def weighted_norm_sq(f, seams=(), nodes=512):
    points, weights = weighted_quadrature_points(nodes, seams)
    values = np.asarray(f(points))
    return float(weights @ (values * values))


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
    b_true = rng.uniform(-1.0, 1.0, cfg.n_coeffs)
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
    # so a lost update is the only way one could be missing here.
    entry = gram_module._cached
    assert entry.cfg == cfg
    assert sorted(map(str, entry._kept)) == ["2048", "320", "grid"]


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


def over_cap(cfg, nodes):
    # Whether the audit's M-row table at ``nodes`` exceeds the kept size,
    # so that the kernel runs on baby rows and a giant step.
    return 16 * cfg.M * (nodes - nodes // 2) > plv._MAX_KEPT_TABLE_BYTES


def test_split_audit_from_threads_matches_serial(rng):
    # Every audit here runs on baby rows and a giant step built per call.
    stream = fresh_gamma_stream(rng, 704, np.linspace(1.1, 1.25, 16))
    assert all(over_cap(cfg, plv._auto_nodes(cfg)) for _, cfg in stream)
    assert_threads_match_serial(stream)


def test_grid_key_is_a_copy(rng):
    # Changing the caller's grid in place must not leave a stale basis.
    cfg = ArrayConfig(16, 1.0)
    lags = rng.normal(size=cfg.M) + 1j * rng.normal(size=cfg.M)
    lags[0] = abs(lags[0]) + cfg.M
    solution = recover(lags, cfg)
    x = np.linspace(-1, 1, 41)
    first = evaluate_solution(solution, x, Domain.X).values
    assert np.array_equal(first, trig_basis(cfg, x) @ solution.coeffs.b)
    x *= 0.5
    again = evaluate_solution(solution, x, Domain.X).values
    assert np.array_equal(again, trig_basis(cfg, x) @ solution.coeffs.b)
    assert np.array_equal(solution.g(x), trig_basis(cfg, x) @ solution.coeffs.b)


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


@pytest.mark.parametrize("m,gamma", [(1, 1.0), (2, 1.0), (64, 1.0), (1024, 1.21),
                                     (700, 1.25), (1025, 1.0)])
@pytest.mark.parametrize("parity", [0, 1], ids=["even_nodes", "odd_nodes"])
def test_residual_audit_matches_direct_quadrature(m, gamma, parity, rng):
    # The half-node power table must reproduce the plain full-rule sum
    # sum_j w_j g(x_j) exp(i kappa_m x_j) over every node.
    cfg = ArrayConfig(m, gamma)
    nodes = plv._auto_nodes(cfg) + parity
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, cfg.n_coeffs))
    points, weights = weighted_quadrature_points(nodes)
    samples = weights * (trig_basis(cfg, points) @ coeffs.b)
    direct = np.exp(1j * np.multiply.outer(cfg.kappas(m), points)) @ samples
    audit = plv._lags_of_coeffs(cfg, coeffs, nodes)
    assert audit.shape == (m,)
    assert np.max(np.abs(audit - direct)) <= 1e-11 * (1.0 + np.max(np.abs(direct)))


def whole_table_half_rule(cfg, b, nodes):
    # The half-rule kernel with the whole M-row power table built at once.
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
    for m in range(1, cfg.M):
        powers[m] = powers[m - 1] * step
    even = (b[:cfg.M] @ powers).real
    odd = (b[cfg.M:] @ powers[1:]).imag
    lags = 2.0 * ((powers @ (w * even)).real + 1j * (powers @ (w * odd)).imag)
    upper, lower = even + odd, even - odd
    grid_min = float(min(upper.min(), lower.min()))
    abs_mass = float(w @ (np.abs(upper) + np.abs(lower)))
    neg_mass = float(w @ (np.maximum(-upper, 0.0) + np.maximum(-lower, 0.0)))
    return lags, NegativitySummary(grid_min, neg_mass / abs_mass)


def test_kept_table_kernel_bit_identical_to_whole_table(rng):
    # At M = 64 every table is within the cap and takes the whole-table
    # products, whether built per call or kept.
    cfg = ArrayConfig(64, 1.0)
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, cfg.n_coeffs))
    solution = PlvSolution(coeffs, 0.0, cfg)
    assemble_gram(cfg)
    audit_nodes, summary_nodes = plv._auto_nodes(cfg), plv._negativity_nodes(cfg)
    for nodes in (audit_nodes, audit_nodes + 1, summary_nodes, summary_nodes + 1):
        lags, summary = whole_table_half_rule(cfg, coeffs.b, nodes)
        for _ in range(2):  # built, then kept at the default counts
            assert np.array_equal(plv._lags_of_coeffs(cfg, coeffs, nodes), lags)
            assert negativity_summary(solution, nodes) == summary
    assert sorted(gram_module._cached._kept) == [audit_nodes, summary_nodes]
    assert negativity_summary(solution) == whole_table_half_rule(
        cfg, coeffs.b, summary_nodes)[1]
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    recovered = recover(lags, cfg)
    audit = whole_table_half_rule(cfg, recovered.coeffs.b, audit_nodes)[0]
    assert recovered.constraint_residual == float(np.max(np.abs(audit - lags.r)))


@pytest.mark.parametrize("m,gamma,parity", [
    pytest.param(1024, 1.0, 0, id="1.0"),
    pytest.param(1024, 1.25, 0, id="1.25"),
    pytest.param(700, 1.25, 0, id="even_nodes-700-1.25"),
    pytest.param(700, 1.25, 1, id="odd_nodes-700-1.25"),
    pytest.param(1025, 1.0, 0, id="even_nodes-1025-1.0"),
    pytest.param(1025, 1.0, 1, id="odd_nodes-1025-1.0"),
])
def test_block_wise_kernel_matches_whole_table(m, gamma, parity, rng):
    # These tables exceed the kept size, and the kernel runs on baby rows
    # step**r and powers of the giant step step**B, B = isqrt(M), which
    # at M = 700 and 1025 do not tile the M rows exactly; the sums
    # regroup, so agreement is to rounding.
    cfg = ArrayConfig(m, gamma)
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, cfg.n_coeffs))
    nodes = plv._auto_nodes(cfg) + parity
    assert over_cap(cfg, nodes)
    lags, summary = whole_table_half_rule(cfg, coeffs.b, nodes)
    audit = plv._lags_of_coeffs(cfg, coeffs, nodes)
    assert np.max(np.abs(audit - lags)) <= 1e-12 * (1.0 + np.max(np.abs(lags)))
    blocked = negativity_summary(PlvSolution(coeffs, 0.0, cfg), nodes)
    assert abs(blocked.min_value - summary.min_value) <= 1e-12 * (
        1.0 + abs(summary.min_value))
    assert abs(blocked.negative_fraction - summary.negative_fraction) <= 1e-12


def test_block_wise_kernel_builds_no_whole_table(rng):
    # The whole (1024, 1.25) table is 1024 x 2592 complex, about 42 MB.
    cfg = ArrayConfig(1024, 1.25)
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, cfg.n_coeffs))
    solution = PlvSolution(coeffs, 0.0, cfg)
    nodes = plv._auto_nodes(cfg)
    for run in (lambda: plv._lags_of_coeffs(cfg, coeffs, nodes),
                lambda: negativity_summary(solution)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_residual_audit_catches_wrong_coefficient(monkeypatch):
    cfg = ArrayConfig(16, 1.0)
    lags = synthesize_lags(GAUSS_CLUSTER, cfg)
    good = recover(lags, cfg).coeffs.b
    bad = good.copy()
    bad[cfg.M + 3] += 1e-6
    scale = DEFAULT_RESIDUAL_TOL * (1.0 + np.max(np.abs(lags.r)))
    residual = np.max(np.abs(
        plv._lags_of_coeffs(cfg, TrigCoeffs(bad), plv._auto_nodes(cfg)) - lags.r))
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
    g_true = transform_aps(GAUSS_CLUSTER)
    points, weights = weighted_quadrature_points(512, seams_x(GAUSS_CLUSTER))
    g_rec = solution.g(points)
    h = g_true(points) - g_rec
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
        projected = project_onto_nperp(g, cfg, nodes=256)
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
        g_true = transform_aps(model)

        def residual(x):
            from apsrec.core import evaluate_trig
            return g_true(x) - evaluate_trig(cfg, coeffs, x)

        again = project_onto_nperp(residual, cfg, nodes=512)
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
        projected = project_onto_nperp(transform_aps(model), cfg).b
        assert np.max(np.abs(projected - exact)) <= 1e-12 * np.max(np.abs(exact))
        small = ArrayConfig(8, 1.0)
        assert np.array_equal(project_onto_nperp(np.cos, small).b,
                              project_onto_nperp(np.cos, small, 512).b)

    @pytest.mark.parametrize("nodes", [1, 8, 64])
    def test_small_rules(self, nodes):
        # A callable projects on any rule of at least one node.
        cfg = ArrayConfig(4, 1.0)
        points, weights = weighted_quadrature_points(nodes)
        g = transform_aps(GAUSS_CLUSTER)
        moments = trig_basis(cfg, points).T @ (weights * g(points))
        dense = solve(assemble_gram(cfg), moments).b
        projected = project_onto_nperp(g, cfg, nodes).b
        assert np.max(np.abs(projected - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("nodes", [0, 100.5, np.float64(64.0), True, "64"])
    def test_rejects_bad_node_counts(self, nodes):
        # Only integers of at least 1 for a callable's rule.
        with pytest.raises(ValueError, match="node count"):
            project_onto_nperp(transform_aps(GAUSS_CLUSTER), ArrayConfig(2, 1.0), nodes)


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
        matrix = toeplitz_from_lags(lags)
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

    def test_accepts_domain_string(self):
        solution = self.make_solution([1.0, 0, 0, 0, 0])
        sampled = evaluate_solution(solution, np.array([0.0, 0.5]), "x")
        assert sampled.domain is Domain.X


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
    cfg = ArrayConfig(3, 1.0)
    solution = recover(synthesize_lags(FULL_RANGE, cfg), cfg)
    summary = negativity_summary(solution)
    assert summary.negative_fraction == 0.0
    assert summary.min_value == pytest.approx(1.0, abs=1e-10)


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
def test_negativity_summary_matches_direct_evaluation(m, gamma, parity, rng):
    # g(+-x_j) from the half-rule power table must reproduce g sampled on
    # every node of the full rule.
    cfg = ArrayConfig(m, gamma)
    nodes = max(2048, plv._auto_nodes(cfg)) + parity
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, cfg.n_coeffs))
    values, fraction = _dense_negativity(cfg, coeffs.b, nodes)
    summary = negativity_summary(PlvSolution(coeffs, 0.0, cfg), nodes)
    assert abs(summary.min_value - values.min()) <= 1e-12 * (1.0 + np.max(np.abs(values)))
    assert abs(summary.negative_fraction - fraction) <= 1e-12


def test_negativity_summary_single_node(rng):
    # One node: the rule's middle node x = 0, counted once.
    cfg = ArrayConfig(64, 1.0)
    coeffs = TrigCoeffs(rng.uniform(-1.0, 1.0, cfg.n_coeffs))
    values, fraction = _dense_negativity(cfg, coeffs.b, 1)
    summary = negativity_summary(PlvSolution(coeffs, 0.0, cfg), 1)
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
