"""The Gram matrix of the trigonometric basis under the weighted inner
product, in closed form via ``scipy.special.j0``, plus its factorization
and the linear solve that yields recovery coefficients.

The basis splits by parity: cosines (with the constant as index 0) pair
only with the real parts of the lags, sines only with the imaginary
parts, so the full (2M-1)-dimensional system decouples into two
independent symmetric positive-definite blocks. In the exponential basis
exp(i kappa_k x), k = -(M-1)..M-1, the same Gram is one real symmetric
Toeplitz matrix T of order 2M-1 with first column pi J0(kappa_k), and the
two blocks are its even and odd halves. Small arrays factorize the dense
blocks by Cholesky; large ones keep O(M) numbers of T and solve with the
Gohberg-Semencul formula for T^-1 (Levinson 1947, Durbin 1960, Gohberg and
Semencul 1972, Cybenko 1980).
"""

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
# Bound as a module attribute, not called as scipy.special.j0, so that
# perfbench's tracer can wrap ``gram.bessel_j0`` as its J0 layer.
from scipy.special import j0 as bessel_j0

from .core import _MAX_KEPT_TABLE_BYTES, ArrayConfig, CovarianceLags, TrigCoeffs
from .errors import ConditioningError

DEFAULT_COND_CEILING = 1e12

# From this M up the Gram is factorized as a Toeplitz operator, below it
# as two dense Cholesky blocks: the smallest M from which the Toeplitz
# path was no slower, on a cache miss (factorization, condition estimate
# and one solve) and on a cached solve. Milliseconds, median of 21
# alternating runs, gamma = 1.13, one BLAS thread, 2-vCPU x86-64 host:
#
#     M                 64    128   192   224   240   256   512   1024
#     miss, dense      0.66  1.61  3.19  4.15  4.76  5.48  26.5   131
#     miss, Toeplitz   2.63  3.53  4.27  4.28  4.59  4.58  10.6   22.7
#     solve, dense     .072  .133  .258  .363  .409  .472  2.05  9.76
#     solve, Toeplitz  .143  .178  .229  .225  .231  .233  .400  .734
#
# At 224 and 240 the misses were within 3 % either way over repeated runs.
_TOEPLITZ_MIN_M = 256


def gram_blocks(cfg):
    """Closed-form Gram blocks for the array configuration.

    Both blocks are Toeplitz plus Hankel in J0(kappa_k) for
    k = 0..2M-2, so ``scipy.special.j0`` is evaluated once on those
    2M-1 frequencies. The Toeplitz part J0(kappa_|m-n|) and the Hankel
    part J0(kappa_{m+n}) are strided M-by-M window views of that vector,
    so no index table is built and only the sums and differences are
    materialized.

    Returns:
        (g_re, g_im): the M-by-M cosine-block matrix with entries
        (pi/2)(J0(kappa_|m-n|) + J0(kappa_{m+n})) and the (M-1)-by-(M-1)
        sine-block matrix with entries
        (pi/2)(J0(kappa_|m-n|) - J0(kappa_{m+n})). Assembles entries only;
        no factorization, so this never raises on ill conditioning.
    """
    M = cfg.M
    j0 = bessel_j0(cfg.gamma * np.pi * np.arange(2 * M - 1))
    windows = np.lib.stride_tricks.sliding_window_view
    # Row m of the reversed windows over [J0(kappa_{M-1}) .. J0(kappa_1),
    # J0(kappa_0) .. J0(kappa_{M-1})] starts at J0(kappa_m).
    toeplitz = windows(np.concatenate((j0[M - 1:0:-1], j0[:M])), M)[::-1]
    hankel = windows(j0, M)
    g_re = (np.pi / 2.0) * (toeplitz + hankel)
    g_im = (np.pi / 2.0) * (toeplitz[1:, 1:] - hankel[1:, 1:])
    return g_re, g_im


@dataclass(frozen=True)
class GramMatrix:
    """Factorized Gram matrix for one array configuration.

    Below ``_TOEPLITZ_MIN_M`` it holds the dense blocks ``g_re``, ``g_im``
    and their lower Cholesky factors ``chol_re``, ``chol_im`` from LAPACK's
    ``dpotrf``, bit-identical to ``scipy.linalg.cholesky``'s. From it up
    those are None, and it holds ``column``, the first column of T, its
    circulant ``spectrum`` and ``generators``, the real FFTs of the
    Gohberg-Semencul generators of T^-1, plus ``_cond_bound``, a rigorous
    O(M) upper bound on the condition number that settles the ceiling
    without an estimate while it lies below it (infinite on the dense
    path).

    ``cond_estimate`` is the 1-norm condition number of the full matrix:
    ||G||_1 (LAPACK's ``dlange``) times the Hager/Higham estimate of
    ||G^-1||_1 (``dpocon``), or on the Toeplitz path the same estimator
    run for both over the FFT product and the unrefined solve. It is
    computed on first read and cached. It is a deterministic lower bound,
    exact near the default ceiling and within about 15 % for
    well-conditioned arrays. All arrays are read-only, so one instance is
    shared by every caller of :func:`assemble_gram` for the same
    configuration, and concurrent solves and reads against it are safe.
    """

    cfg: ArrayConfig
    g_re: np.ndarray | None = None
    g_im: np.ndarray | None = None
    chol_re: np.ndarray | None = None
    chol_im: np.ndarray | None = None
    column: np.ndarray | None = None
    spectrum: np.ndarray | None = None
    generators: np.ndarray | None = None
    _cond_bound: float = np.inf

    def __post_init__(self):
        for array in (self.g_re, self.g_im, self.chol_re, self.chol_im, self.column,
                      self.spectrum, self.generators):
            if array is not None:
                array.setflags(write=False)

    @property
    def size(self):
        return 2 * self.cfg.M - 1

    @cached_property
    def cond_estimate(self):
        M = self.cfg.M
        if self.generators is not None:
            norms = _block_norms(lambda b: _toeplitz_product(self.spectrum, b), M)
            inverse_norms = _block_norms(lambda y: _toeplitz_solve(self.generators, y), M)
        else:
            norms, inverse_norms = zip(_dense_norms(self.g_re, self.chol_re),
                                       _dense_norms(self.g_im, self.chol_im))
        return float(max(norms) * max(inverse_norms))

    def full_matrix(self):
        """The dense (2M-1)-by-(2M-1) block-diagonal matrix."""
        return scipy.linalg.block_diag(*gram_blocks(self.cfg))

    def quadratic_form(self, b):
        """b^T G b for a TrigCoeffs or raw coefficient vector."""
        b = b.b if isinstance(b, TrigCoeffs) else np.asarray(b, dtype=np.float64)
        if self.spectrum is not None:
            return float(b @ _toeplitz_product(self.spectrum, b))
        M = self.cfg.M
        return float(b[:M] @ self.g_re @ b[:M] + b[M:] @ self.g_im @ b[M:])


def _indefinite(cfg, detail):
    return ConditioningError(f"Gram factorization failed for M={cfg.M}, "
                             f"gamma={cfg.gamma:g}: matrix is numerically indefinite ({detail})")


def _cholesky(cfg, block):
    """Lower Cholesky factor of one block."""
    if block.shape[0] == 0:
        return np.zeros((0, 0))
    factor, info = scipy.linalg.lapack.dpotrf(block, lower=1, clean=1)
    if info > 0:
        raise _indefinite(cfg, f"leading minor {info} is not positive definite")
    return factor


def _dense_norms(block, factor):
    """||A||_1 and estimated ||A^-1||_1 of one block from its factor."""
    if block.shape[0] == 0:
        return 1.0, 1.0
    anorm = scipy.linalg.lapack.dlange("1", block)
    rcond, _ = scipy.linalg.lapack.dpocon(factor, anorm, uplo="L")
    return anorm, (np.inf if rcond == 0.0 else 1.0 / (rcond * anorm))


def _fft_size(n):
    """A power of two at least 2n - 1, so that a circular convolution of
    that length holds the linear one of two length-n sequences."""
    return 1 << (2 * n - 2).bit_length()


def _spectrum(column):
    """Real FFT of the circulant that embeds the symmetric Toeplitz T."""
    n = column.size
    return np.fft.rfft(np.concatenate([column, np.zeros(_fft_size(n) - 2 * n + 1),
                                       column[:0:-1]]))


def _to_exponential(y):
    """Rows Re s and Im s of s_k, k = -(M-1)..M-1, with s_{-l} = r_l for
    y = [Re r_0 .. Re r_{M-1}, Im r_1 .. Im r_{M-1}]: symmetric and
    antisymmetric. Its inverse is [Re s_0 .. Re s_{M-1}, -Im s_1 ..]."""
    M = (y.size + 1) // 2
    parts = np.stack([y[:M], np.concatenate([[0.0], y[M:]])])
    return np.concatenate([parts[:, :0:-1], parts * [[1.0], [-1.0]]], axis=1)


def _toeplitz_product(spectrum, b):
    """G b through T: the exponential-basis coefficients u + i v of b
    (b_0 = u_0, cosine 2 u_m, sine -2 v_m) give G b = [(T u)_{-l},
    (T v)_{-l}], so b^T G b = u^T T u + v^T T v."""
    n, M, size = b.size, (b.size + 1) // 2, _fft_size(b.size)
    s = _to_exponential(np.concatenate([b[:1], 0.5 * b[1:]]))
    t = np.fft.irfft(spectrum * np.fft.rfft(s, size), size)
    return np.concatenate([t[0, M - 1:n], -t[1, M:n]])


def _toeplitz_solve(generators, y):
    """G^-1 y by the Gohberg-Semencul formula T^-1 = L(a) L(a)^T -
    L(c) L(c)^T, with x = T^-1 e_1, a = x / sqrt(x_0),
    c = [0, x_{n-1} .. x_1] / sqrt(x_0) and L(g) lower triangular
    Toeplitz with first column g. Re s and Im s go through the four
    triangular FFT products together, and the solution c maps back to
    b_0 = Re c_0, cosine 2 Re c_m, sine -2 Im c_m. Alone, near the
    ceiling (M = 512, gamma = 0.993), its residual was up to 8e6x refined
    Cholesky's for y = G b and 30x for uniform y, so :func:`solve` follows
    it with one refinement step. The condition estimate runs on it
    unrefined, as ``dpocon`` runs on the bare factors.
    """
    n, M, size = y.size, (y.size + 1) // 2, _fft_size(y.size)
    spectrum = np.fft.rfft(_to_exponential(y), size)
    # L(g)^T v is the correlation of v with g: conj(FFT g) FFT v.
    upper = np.fft.irfft(generators.conj()[:, None] * spectrum, size)[..., :n]
    lower = generators[:, None] * np.fft.rfft(upper, size)
    c = np.fft.irfft(lower[0] - lower[1], size)
    return np.concatenate([c[0, M - 1:M], 2.0 * c[0, M:n], -2.0 * c[1, M:n]])


def _hager_higham(n):
    """||A||_1 of a symmetric n-by-n A by the Hager/Higham scheme of
    LAPACK's ``dlacn2``, as ``dpocon`` runs it, with its reverse
    communication: yields each x it needs A x for and is sent A x. A
    fixed start, at most five steps and a last alternating-sign test make
    the estimate deterministic and a lower bound, exact in most cases."""
    def signs(v):
        return np.where(v >= 0.0, 1.0, -1.0)

    v = yield np.full(n, 1.0 / n)
    estimate, sign = np.abs(v).sum(), signs(v)
    j = int(np.argmax(np.abs((yield sign))))
    for _ in range(4):
        v = yield np.eye(1, n, j)[0]
        previous, estimate = estimate, np.abs(v).sum()
        if np.array_equal(signs(v), sign) or estimate <= previous:
            break
        sign = signs(v)
        z = yield sign
        last, j = j, int(np.argmax(np.abs(z)))
        if z[last] == abs(z[j]):
            break
    alternating = np.linspace(1.0, 2.0, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return max(estimate, 2.0 * np.abs((yield alternating)).sum() / (3 * n))


def _block_norms(apply, M):
    """||A_re||_1 and ||A_im||_1 of a symmetric A with diagonal blocks of
    order M and M-1, known through ``apply``: one :func:`_hager_higham`
    run per block, as ``dpocon`` runs one per factor, in lockstep so that
    each product serves both; a finished run's block is fed zeros."""
    runs = [_hager_higham(M), _hager_higham(M - 1)]
    wanted, norms = [next(run) for run in runs], [None, None]
    while None in norms:
        x = np.concatenate([w if norm is None else 0.0 * w for w, norm in zip(wanted, norms)])
        for i, product in enumerate(np.split(apply(x), [M])):
            if norms[i] is None:
                try:
                    wanted[i] = runs[i].send(product)
                except StopIteration as done:
                    norms[i] = done.value
    return norms


def _toeplitz(cfg):
    """The Gohberg-Semencul factorization of the Gram for ``cfg``.

    Levinson recursion (``scipy.linalg.solve_toeplitz``) is only weakly
    stable: on a numerically indefinite T it can break down or return
    x = T^-1 e_1 with x_0 <= 0. Either is raised, never solved through.
    Otherwise the numbers at hand bound cond_1(G) from above in O(M):
    each block column is (pi/2)(Toeplitz + Hankel) in J0, so
    ||G||_1 <= 1.5 sum_k |column_k|; the maps y -> s and c -> b give
    ||G^-1||_1 <= 4 ||T^-1||_1, and ||L(g)||_1 = ||L(g)^T||_1 = ||g||_1
    in the Gohberg-Semencul formula gives ||T^-1||_1 <= ||a||_1^2 +
    ||c||_1^2 = (||x||_1^2 + (||x||_1 - x_0)^2) / x_0. A factor 2 covers
    rounding. For gamma in [1, 1.3] it is 16-43x the condition number.
    """
    n = 2 * cfg.M - 1
    column = np.pi * bessel_j0(cfg.gamma * np.pi * np.arange(n))
    try:
        x = scipy.linalg.solve_toeplitz(column, np.eye(1, n)[0], check_finite=False)
    except np.linalg.LinAlgError as error:
        raise _indefinite(cfg, f"Levinson recursion failed: {error}") from error
    if not (np.all(np.isfinite(x)) and x[0] > 0.0):
        raise _indefinite(cfg, f"Levinson recursion gave (T^-1)_00 = {x[0]:.3g}")
    x_norm = np.abs(x).sum()
    bound = 2.0 * 1.5 * np.abs(column).sum() * 4.0 * (x_norm**2 + (x_norm - x[0])**2) / x[0]
    generators = np.zeros((2, _fft_size(n)))
    generators[0, :n], generators[1, 1:n] = x, x[:0:-1]
    generators = np.fft.rfft(generators / np.sqrt(x[0]))
    return GramMatrix(cfg, column=column, spectrum=_spectrum(column), generators=generators,
                      _cond_bound=float(bound))


def _factor(cfg):
    """Assemble and factorize the Gram for ``cfg``. The cosine block is
    factorized first, so its error wins when both blocks fail."""
    if cfg.M >= _TOEPLITZ_MIN_M:
        return _toeplitz(cfg)
    g_re, g_im = gram_blocks(cfg)
    return GramMatrix(cfg, g_re=g_re, g_im=g_im, chol_re=_cholesky(cfg, g_re),
                      chol_im=_cholesky(cfg, g_im))


# The workspace of the last configuration that assembled under its
# ceiling: one (ArrayConfig, GramMatrix, tables) entry, with ``tables``
# mapping a caller's key to a read-only tuple of arrays. An entry is
# replaced as a whole, never changed in place, so a reader sees the old
# entry or the new one. ``_lock`` makes adding a table a read-modify-write
# of the current entry, so it never drops another thread's table or
# brings back a dropped entry.
_cached = None
_lock = threading.Lock()


def assemble_gram(cfg, cond_ceiling=DEFAULT_COND_CEILING):
    """The factorized Gram matrix for ``cfg``, assembled once per
    configuration.

    The Gram depends on the array alone, so the last one assembled is
    kept in a single workspace slot keyed on ``cfg``, and the same
    read-only object is returned while ``cfg`` repeats. A different
    configuration drops the whole workspace (the Gram and every table
    kept with it) before assembling its own, so at most one is alive at a
    time. The ceiling is checked on every call, and a configuration that
    raises is not cached. A Toeplitz Gram whose O(M) condition bound lies
    under the ceiling passes without its condition estimate, which runs
    only where the bound does not settle the check, or when read; the
    estimate never exceeds the bound, so the outcome is the estimate's.

    Args:
        cfg: Array configuration.
        cond_ceiling: Hard ceiling on the 1-norm condition estimate. The
            matrix is positive definite in exact arithmetic for every
            M and gamma, but closely spaced frequencies (gamma << 1) make
            it numerically singular; past the ceiling the closed-form
            solve is meaningless and we fail loudly rather than
            regularize.

    Raises:
        ConditioningError: If the factorization finds the matrix
            numerically indefinite or the condition estimate exceeds
            ``cond_ceiling``.
    """
    global _cached
    with _lock:
        entry = _cached
        if entry is None or entry[0] != cfg:
            _cached = entry = None
    gram = entry[1] if entry is not None else _factor(cfg)
    if gram._cond_bound > cond_ceiling and gram.cond_estimate > cond_ceiling:
        raise ConditioningError(
            f"Gram condition estimate {gram.cond_estimate:.3e} exceeds ceiling "
            f"{cond_ceiling:.3e} for M={cfg.M}, gamma={cfg.gamma:g}",
            cond_estimate=gram.cond_estimate,
        )
    if entry is None:
        with _lock:
            _cached = (cfg, gram, {})
    return gram


def _kept_table(cfg, key):
    """The table kept under ``key`` in the workspace of ``cfg``, or None."""
    entry = _cached
    if entry is None or entry[0] != cfg:
        return None
    return entry[2].get(key)


def _keep_table(cfg, key, table):
    """Keep ``table`` under ``key`` if the slot holds ``cfg`` and the
    table is small enough; a table never evicts or outlives its Gram."""
    global _cached
    if sum(array.nbytes for array in table) > _MAX_KEPT_TABLE_BYTES:
        return
    with _lock:
        entry = _cached
        if entry is not None and entry[0] == cfg:
            _cached = (cfg, entry[1], {**entry[2], key: table})


def measurement_vector(lags):
    """Stack the real and imaginary lag parts into the solver layout
    [Re r_0 .. Re r_{M-1}, Im r_1 .. Im r_{M-1}]."""
    if not isinstance(lags, CovarianceLags):
        lags = CovarianceLags(lags)
    return np.concatenate([lags.r.real, lags.r[1:].imag])


def solve(gram, y):
    """Solve G b = y for TrigCoeffs in the [constant | cosine | sine]
    layout, by :func:`_toeplitz_solve` with the residual through the FFT
    product, or on Cholesky factors with the residual through the dense
    block; either way one step of iterative refinement follows, so the
    residual stays at the backward-stable floor. The factors were checked
    finite when they were computed and are read-only, and ``y`` is checked
    here, so each solve calls LAPACK's ``dpotrs`` directly, without
    scipy's checking wrapper.
    """
    y_arr = np.asarray(y, dtype=np.float64).reshape(-1)
    if y_arr.size != gram.size:
        raise ValueError(
            f"measurement length {y_arr.size} does not match Gram size {gram.size}"
        )
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("measurements must be finite")
    if gram.generators is not None:
        b = _toeplitz_solve(gram.generators, y_arr)
        b += _toeplitz_solve(gram.generators, y_arr - _toeplitz_product(gram.spectrum, b))
        return TrigCoeffs(b)
    M = gram.cfg.M

    def potrs(factor, rhs):
        sol, info = scipy.linalg.lapack.dpotrs(factor, rhs, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        return sol

    def refine(block, factor, rhs):
        if rhs.size == 0:
            return rhs.copy()
        sol = potrs(factor, rhs)
        sol += potrs(factor, rhs - block @ sol)
        return sol

    cos_part = refine(gram.g_re, gram.chol_re, y_arr[:M])
    sin_part = refine(gram.g_im, gram.chol_im, y_arr[M:])
    return TrigCoeffs(np.concatenate([cos_part, sin_part]))
