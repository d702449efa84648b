"""The Gram matrix of the trigonometric basis under the weighted inner
product, in closed form via ``scipy.special.j0``, plus its factorization
and the linear solve that yields recovery coefficients.

The basis splits by parity: cosines (with the constant as index 0) pair
only with the real parts of the lags, sines only with the imaginary
parts, so the full (2M-1)-dimensional system decouples into two
independent symmetric positive-definite blocks. In the exponential basis
exp(i kappa_k x), k = -(M-1)..M-1, the same Gram is one real symmetric
Toeplitz matrix T of order 2M-1 with first column pi J0(kappa_k), and the
two blocks are its even and odd halves. There are two ways to factorize
it. Large arrays at gamma >= 1 keep O(M) numbers of T and solve with the
Gohberg-Semencul formula for T^-1 (Gohberg and Semencul 1972), whose
generator T^-1 e_1 comes from preconditioned conjugate gradients: there
T's symbol bounds its spectrum below by 2/gamma (Grenander and Szego
1958), so CG converges in a few steps and the condition number has a
closed-form O(M) bound that settles the ceiling. Every other Gram, and
one whose CG run fails, is two dense blocks factorized by Cholesky, and
LAPACK's ``dpocon`` estimate on those factors settles the ceiling.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
# Bound as a module attribute, not called as scipy.special.j0, so that
# perfbench's tracer can wrap ``gram.bessel_j0`` as its J0 layer.
from scipy.special import j0 as bessel_j0

from .core import ArrayConfig, CovarianceLags, TrigCoeffs
from .errors import ConditioningError

DEFAULT_COND_CEILING = 1e12

# From this M up the Gram is factorized as a Toeplitz operator, below it
# as two dense Cholesky blocks: the smallest M measured from which a
# cached Toeplitz solve was no slower than the dense one (the README's
# numerical notes tabulate misses and solves from M = 64 to 1024). Misses
# alone would move it to between 64 and 128.
_TOEPLITZ_MIN_M = 256

# CG is preconditioned with the symbol's cell averages for gamma up to
# this, and with the scalar 1 / t_0 above it. The averages cost one alias
# per 2 of gamma: up to 32 they stayed under half the CG run.
_PCG_MAX_GAMMA = 32.0
# Every run measured stopped in 7-13 steps (108 cases, M = 256 to 8192,
# gamma = 1 to 3; 8-19 with one recurrence on the whole vector), and in
# at most 40 with the scalar preconditioner (M = 256 to 16384, gamma = 33
# to 1e4); a run not stopped by this count leaves the Gram dense.
_PCG_MAX_STEPS = 64
# The normwise backward error a run must reach; x then agreed with
# Levinson recursion's to 7.7e-15 relative over those cases.
_PCG_TOL = 1e-16


def gram_blocks(cfg):
    """Closed-form Gram blocks for the array configuration.

    Both blocks are Toeplitz plus Hankel in J0(kappa_k) for
    k = 0..2M-2 (:func:`_blocks`), so ``scipy.special.j0`` is evaluated
    once on those 2M-1 frequencies.

    Returns:
        (g_re, g_im): the M-by-M cosine-block matrix with entries
        (pi/2)(J0(kappa_|m-n|) + J0(kappa_{m+n})) and the (M-1)-by-(M-1)
        sine-block matrix with entries
        (pi/2)(J0(kappa_|m-n|) - J0(kappa_{m+n})). Assembles entries only;
        no factorization, so this never raises on ill conditioning.

    For gamma >= 1 every eigenvalue of either block is at least 1/gamma:
    the blocks are T's parity blocks, c^T G c = v^T T v with ||v||^2 >=
    ||c||^2 / 2, and every eigenvalue of T exceeds 2/gamma (:func:`_toeplitz`).
    """
    return _blocks(bessel_j0(cfg.gamma * np.pi * np.arange(2 * cfg.M - 1)), np.pi / 2.0)


def _blocks(values, scale):
    """The M-by-M matrix scale (v_|m-n| + v_{m+n}) and the (M-1)-by-(M-1)
    one scale (v_|m-n| - v_{m+n}), m, n >= 1, from the 2M-1 values v of a
    contiguous array. The Toeplitz part v_|m-n| and the Hankel part
    v_{m+n} are strided M-by-M window views (row i starts at entry i), so
    no index table is built and only the sums and differences are
    materialized."""
    M = (values.size + 1) // 2

    def windows(v):
        return np.lib.stride_tricks.as_strided(v, (M, M), v.strides * 2, writeable=False)

    # Row m of the reversed windows over [v_{M-1} .. v_1, v_0 .. v_{M-1}]
    # starts at v_m.
    toeplitz = windows(np.concatenate((values[M - 1:0:-1], values[:M])))[::-1]
    hankel = windows(values)
    return scale * (toeplitz + hankel), scale * (toeplitz[1:, 1:] - hankel[1:, 1:])


@dataclass(frozen=True)
class GramMatrix:
    """Factorized Gram matrix for one array configuration.

    A dense Gram holds the blocks ``g_re``, ``g_im`` and their lower
    Cholesky factors ``chol_re``, ``chol_im`` from LAPACK's ``dpotrf``,
    bit-identical to ``scipy.linalg.cholesky``'s. A Toeplitz Gram (from
    ``_TOEPLITZ_MIN_M`` up at gamma >= 1, :func:`_factor`) has those None,
    and holds T's circulant ``spectrum`` and ``generators``, the real FFTs
    of the Gohberg-Semencul generators of T^-1, plus ``_cond_bound``, a
    rigorous closed-form upper bound on the condition number
    (:func:`_toeplitz`) that settles the ceiling without an estimate while
    below it (infinite on the dense path).

    ``cond_estimate`` is the 1-norm condition number of the full matrix,
    ||G||_1 (``dlange``) times ``dpocon``'s lower-bound estimate of
    ||G^-1||_1 from the Cholesky factors (exact near the default ceiling,
    within about 15 % for well-conditioned arrays), computed and cached on
    first read. A Toeplitz Gram factorizes its dense blocks for it (0.1 s
    at M = 1024) and raises ``ConditioningError`` if they are numerically
    indefinite. ``dpocon``'s last bit can vary between runs, so two Grams
    of one configuration may differ there; on Python 3.10 and 3.11
    ``cached_property`` gives all readers of one Gram one value. All
    arrays are read-only, so one instance is shared by every caller of
    :func:`assemble_gram` for the same configuration, and concurrent
    solves and reads against it are safe.

    ``_kept`` maps a key to read-only arrays of the configuration, filled
    on the cached Gram only (:func:`_tables`). Each entry is stored whole
    by one dict store, the audit's Q with its table and the summary's
    rule once each and a grid's table per new grid, so they need no lock
    and go with the Gram.
    """

    cfg: ArrayConfig
    g_re: np.ndarray | None = None
    g_im: np.ndarray | None = None
    chol_re: np.ndarray | None = None
    chol_im: np.ndarray | None = None
    spectrum: np.ndarray | None = None
    generators: np.ndarray | None = None
    _cond_bound: float = np.inf
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        for array in (self.g_re, self.g_im, self.chol_re, self.chol_im, self.spectrum,
                      self.generators):
            if array is not None:
                array.setflags(write=False)

    @property
    def size(self):
        return 2 * self.cfg.M - 1

    @cached_property
    def cond_estimate(self):
        if self.chol_re is None:
            return _dense(self.cfg).cond_estimate
        norms, inverse_norms = zip(_dense_norms(self.g_re, self.chol_re),
                                   _dense_norms(self.g_im, self.chol_im))
        return float(max(norms) * max(inverse_norms))

    @property
    def _form(self):
        """The dense blocks or the circulant spectrum, as :func:`_gram_form`."""
        return (self.g_re, self.g_im) if self.spectrum is None else (self.spectrum,)

    def quadratic_form(self, b):
        """b^T G b for a TrigCoeffs or raw coefficient vector.

        Raises:
            ValueError: Unless ``b`` has 2M-1 entries.
        """
        b = b.b if isinstance(b, TrigCoeffs) else np.asarray(b, dtype=np.float64).reshape(-1)
        if b.size != self.size:
            raise ValueError(f"coefficient length {b.size} does not match Gram size {self.size}")
        return float(b @ _gram_product(self._form, b))


def _cholesky(cfg, block):
    """Lower Cholesky factor of one block."""
    if block.shape[0] == 0:
        return np.zeros((0, 0))
    factor, info = scipy.linalg.lapack.dpotrf(block, lower=1, clean=1)
    if info > 0:
        raise ConditioningError(f"Gram factorization failed for M={cfg.M}, gamma={cfg.gamma:g}: "
                                f"matrix is numerically indefinite (leading minor {info} is not "
                                "positive definite)")
    return factor


def _dense_norms(block, factor):
    """||A||_1 and estimated ||A^-1||_1 of one block from its factor."""
    if block.shape[0] == 0:
        return 1.0, 1.0
    anorm = scipy.linalg.lapack.dlange("1", block)
    rcond, _ = scipy.linalg.lapack.dpocon(factor, anorm, uplo="L")
    return anorm, (np.inf if rcond == 0.0 else 1.0 / (rcond * anorm))


def _fft_size(n):
    """An even 5-smooth length at least 2n: a circular convolution of it
    holds the linear one of two length-n sequences, and :func:`_symbol_means`
    gets its even grid. Imported here, scipy.fft (20-35 ms to load on a
    2-vCPU x86-64 host) stays unloaded while only dense Grams are solved."""
    import scipy.fft

    return 2 * scipy.fft.next_fast_len(n, real=True)


def _spectrum(column):
    """Real FFT of the circulant that embeds the symmetric Toeplitz T."""
    n = column.size
    return np.fft.rfft(np.concatenate([column, np.zeros(_fft_size(n) - 2 * n + 1),
                                       column[:0:-1]]))


def _to_exponential(y):
    """Re s + Im s for s_k, k = -(M-1)..M-1, with s_{-l} = r_l for
    y = [Re r_0 .. Re r_{M-1}, Im r_1 .. Im r_{M-1}]. T and T^-1 commute
    with reversal, so they keep symmetric Re s and antisymmetric Im s
    apart, and :func:`_from_exponential` splits their product."""
    M = (y.size + 1) // 2
    return np.concatenate([y[M - 1:0:-1] + y[:M - 1:-1], y[:1], y[1:M] - y[M:]])


def _from_exponential(t, M):
    """[Re t_0, Re t_l + Re t_{-l} .., Im t_{-l} - Im t_l ..], l = 1..M-1,
    from the row Re t + Im t: the symmetric part at 0..M-1 and the
    antisymmetric part at -1..-(M-1), doubled but for Re t_0."""
    right, left = t[M:2 * M - 1], t[M - 2::-1]
    return np.concatenate([t[M - 1:M], right + left, left - right])


def _gram_form(column):
    """The read-only operand of :func:`_gram_product` for the Gram whose
    Toeplitz T has the length-2M-1 first column ``column``: the blocks of
    :func:`_blocks` at scale 0.5 below ``_TOEPLITZ_MIN_M``, T's circulant
    spectrum from it up."""
    M = (column.size + 1) // 2
    form = (_spectrum(column),) if M >= _TOEPLITZ_MIN_M else _blocks(column, 0.5)
    for array in form:
        array.setflags(write=False)
    return form


def _gram_product(form, b):
    """G b in the [constant | cosine | sine] layout for a Gram form: the
    two block products, or the FFT product through T."""
    if len(form) == 1:
        return _toeplitz_product(form[0], b)
    M = form[0].shape[0]
    return np.concatenate([form[0] @ b[:M], form[1] @ b[M:]])


def _toeplitz_product(spectrum, b):
    """G b through T: the exponential-basis coefficients u + i v of b
    (b_0 = u_0, cosine 2 u_m, sine -2 v_m) give G b = [(T u)_{-l},
    (T v)_{-l}], so b^T G b = u^T T u + v^T T v."""
    M, size = (b.size + 1) // 2, _fft_size(b.size)
    s = _to_exponential(np.concatenate([b[:1], 0.5 * b[1:]]))
    t = _from_exponential(np.fft.irfft(spectrum * np.fft.rfft(s, size), size), M)
    t[1:] *= 0.5
    return t


def _toeplitz_solve(generators, y):
    """G^-1 y by the Gohberg-Semencul formula T^-1 = L(a) L(a)^T -
    L(c) L(c)^T, with x = T^-1 e_1, a = x / sqrt(x_0),
    c = [0, x_{n-1} .. x_1] / sqrt(x_0) and L(g) lower triangular
    Toeplitz with first column g. Re s + Im s goes through the four
    triangular FFT products as one row, and the solution c maps back to
    b_0 = Re c_0, cosine 2 Re c_m, sine -2 Im c_m. Alone, its residual
    was up to 25x refined Cholesky's for y = G b and 3x for lag-shaped y
    (M = 256 to 1024, gamma = 1 to 1.25; 5x for both at gamma = 33 and
    64), and one refinement step brought both within 2x (3.6x), so
    :func:`solve` follows it with that step.
    """
    n, size = y.size, _fft_size(y.size)
    spectrum = np.fft.rfft(_to_exponential(y), size)
    # L(g)^T v is the correlation of v with g: conj(FFT g) FFT v.
    upper = np.fft.irfft(generators.conj() * spectrum, size)[:, :n]
    lower = generators * np.fft.rfft(upper, size)
    return _from_exponential(np.fft.irfft(lower[0] - lower[1], size), (n + 1) // 2)


def _symbol_means(gamma, size):
    """Cell averages of T's symbol f on the real-FFT grid 2 pi k / size,
    k = 0..size/2: alias j of f integrates to 2 pi arcsin((w + 2 pi j) /
    (gamma pi)) on |w + 2 pi j| < gamma pi, so an average is size times a
    sum of arcsin differences across the cell edges (2k -+ 1) pi / size,
    added one alias at a time."""
    reach = int(gamma / 2.0) + 1
    edges = (2 * np.arange(size // 2 + 2) - 1) / (gamma * size)
    return size * sum(np.diff(np.arcsin(np.clip(edges + 2 * j / gamma, -1.0, 1.0)))
                      for j in range(-reach, reach + 1))


def _pcg(column, spectrum, gamma):
    """x = T^-1 e_1 by conjugate gradients preconditioned with P, for
    gamma >= 1, or None when a step meets p^T T p <= 0 in either parity or
    the run misses its stopping test within ``_PCG_MAX_STEPS``.

    Up to ``_PCG_MAX_GAMMA``, P is the leading n-by-n block of the
    circulant of its own length N_P = ``_fft_size(ceil(0.7 n))``, at least
    n, with eigenvalues 1 over the cell averages of the symbol
    (:func:`_symbol_means`), which are at least 2/gamma for gamma >= 1, so
    P is positive definite. Above it P is the scalar 1 / t_0: runs then
    stopped in 9-40 steps (M = 256 to 16384, gamma = 33 to 1e4), with x
    within 2e-14 of Levinson recursion's, relative to its largest entry.
    T and P are symmetric Toeplitz, so both commute with the reversal J,
    and the J-symmetric and J-antisymmetric parts (e_1 +- e_n) / 2 of e_1
    run as two CG recurrences, each with half the eigenvalues to resolve,
    in lockstep on one packed vector u = u_s + u_a: each step makes one
    product with T, through its embedding ``spectrum`` (a real FFT pair
    of length N = ``_fft_size(n)``), and one with P, which both parities
    share. A parity's inner products are (u . w +- u . J w) / 2, and its
    step and direction coefficients c_s, c_a act as ((c_s + c_a) u +
    (c_s - c_a) J u) / 2; these are numpy float64 scalars, so
    ``np.errstate`` sees each division. A parity whose residual is
    exactly zero is frozen with zero coefficients. The run stops once the
    normwise backward error ||e_1 - T x||_2 / (||T|| ||x||_2 + 1), with
    ||T||_2 <= 2 sum_k |t_k|, falls under ``_PCG_TOL``: first for the
    updated residual, then for the one recomputed from x. At (1024, 1.13)
    a run of 10 steps took 1.39-1.45 ms, about 1.1 of it in its 21 FFT
    products (best of 15 loops, one BLAS thread, 2-vCPU x86-64 host).
    """
    n, size = column.size, _fft_size(column.size)

    def apply(symbol, v, length):
        return np.fft.irfft(symbol * np.fft.rfft(v, length), length)[:n]

    if gamma <= _PCG_MAX_GAMMA:
        size_p = _fft_size(-(-7 * n // 10))
        inverse = 1.0 / _symbol_means(gamma, size_p)

    def precondition(r):
        return apply(inverse, r, size_p) if gamma <= _PCG_MAX_GAMMA else r / column[0]

    def parts(u, w):
        # u_s . w_s and u_a . w_a for the parts u_s, u_a = (u +- J u) / 2.
        same, mirrored = u @ w, u @ w[::-1]
        return 0.5 * (same + mirrored), 0.5 * (same - mirrored)

    def combine(u, c):
        # c_s u_s + c_a u_a.
        return (0.5 * (c[0] + c[1])) * u + (0.5 * (c[0] - c[1])) * u[::-1]

    def ratio(top, bottom):
        # top / bottom per parity, 0 for a frozen parity (bottom 0).
        return (top[0] / bottom[0] if bottom[0] != 0.0 else zero,
                top[1] / bottom[1] if bottom[1] != 0.0 else zero)

    def converged(r, x):
        return np.sqrt(r @ r) <= _PCG_TOL * (norm * np.sqrt(x @ x) + 1.0)

    norm, e_1, zero = 2.0 * np.abs(column).sum(), np.eye(1, n)[0], np.float64(0.0)
    x, r = np.zeros(n), e_1.copy()
    p = z = precondition(r)
    rz = parts(r, z)
    for _ in range(_PCG_MAX_STEPS):
        q = apply(spectrum, p, size)
        curvature = parts(p, q)
        if not ((curvature[0] > 0.0 or rz[0] == 0.0) and (curvature[1] > 0.0 or rz[1] == 0.0)):
            return None
        step = ratio(rz, curvature)
        x += combine(p, step)
        r -= combine(q, step)
        if converged(r, x) and converged(e_1 - apply(spectrum, x, size), x):
            return x
        z = precondition(r)
        rz, previous = parts(r, z), rz
        p = z + combine(p, ratio(rz, previous))
    return None


def _toeplitz(cfg):
    """The Gohberg-Semencul factorization of the Gram for ``cfg`` at
    gamma >= 1, or None when its :func:`_pcg` run for x = T^-1 e_1 fails.

    For gamma >= 1 the symbol of T is at least 1 on all of [-pi, pi], so
    every eigenvalue of T exceeds 2/gamma at every M (Grenander and
    Szego), and preconditioned CG converges in a few steps. The same fact
    bounds cond_1(G) in closed form, from the column alone: each block
    column is (pi/2)(Toeplitz + Hankel) in J0, so ||G||_1 <= 1.5 sum_k
    |t_k|, and every eigenvalue of either block is at least 1/gamma
    (:func:`gram_blocks`) on at most M rows, so ||G^-1||_1 <= sqrt(M)
    ||G^-1||_2 <= sqrt(M) gamma. A factor 2 covers rounding. It read
    2.2e3 at (256, 1), 8.8e3 at (1024, 1) and 4.2e5 at (8192, 32), and
    passes the default ceiling only from gamma of about 1e9 up.
    """
    n = 2 * cfg.M - 1
    column = np.pi * bessel_j0(cfg.gamma * np.pi * np.arange(n))
    spectrum = _spectrum(column)
    x = _pcg(column, spectrum, cfg.gamma)
    if x is None:
        return None
    generators = np.zeros((2, _fft_size(n)))
    generators[0, :n], generators[1, 1:n] = x, x[:0:-1]
    generators = np.fft.rfft(generators / np.sqrt(x[0]))
    # In Python floats a bound past the float range is inf, and the estimate decides.
    bound = 2.0 * 1.5 * float(np.abs(column).sum()) * cfg.gamma * cfg.M**0.5
    return GramMatrix(cfg, spectrum=spectrum, generators=generators, _cond_bound=bound)


def _dense(cfg):
    """The Gram for ``cfg`` as two dense blocks and their Cholesky factors.
    The cosine block is factorized first, so its error wins when both
    blocks fail."""
    g_re, g_im = gram_blocks(cfg)
    return GramMatrix(cfg, g_re=g_re, g_im=g_im, chol_re=_cholesky(cfg, g_re),
                      chol_im=_cholesky(cfg, g_im))


def _factor(cfg):
    """The Toeplitz Gram for ``cfg`` from ``_TOEPLITZ_MIN_M`` up at
    gamma >= 1, unless its CG run fails, and the dense one otherwise.
    Below gamma = 1 T's symbol vanishes on part of the circle, so its
    spectrum has no floor and CG need not converge."""
    if cfg.M >= _TOEPLITZ_MIN_M and cfg.gamma >= 1.0:
        gram = _toeplitz(cfg)
        if gram is not None:
            return gram
    return _dense(cfg)


# The Gram of the last assemble_gram call that passed the ceiling, or
# None; the tables kept for its configuration live in its ``_kept``.
_cached = None


def assemble_gram(cfg):
    """The factorized Gram matrix for ``cfg``, assembled once per
    configuration.

    The Gram depends on the array alone, so the one of the last call that
    passed is kept in a single slot, and the same read-only object is
    returned while ``cfg`` repeats; the tables kept with it
    (:func:`_tables`) go with it. A different configuration empties the
    slot before assembling its own, so at most one Gram is kept at a
    time. The matrix is positive definite in exact arithmetic for every M
    and gamma, but closely spaced frequencies (gamma << 1) make it
    numerically singular; past ``DEFAULT_COND_CEILING`` (read at call
    time) on the 1-norm condition number the closed-form solve is
    meaningless, and assembly fails loudly rather than regularize. The
    ceiling is checked on every call, and a configuration that raises is
    not cached. A Toeplitz Gram whose closed-form
    condition bound lies under the ceiling passes without its condition
    estimate. Otherwise the estimate decides, which on a Toeplitz Gram
    costs a dense Cholesky factorization (O(M^3)); it never exceeds the
    bound, so the outcome is the estimate's. A NaN bound or estimate
    counts as over the ceiling.

    Raises:
        ConditioningError: If a Cholesky factorization finds the matrix
            numerically indefinite, or the condition estimate is not under
            the ceiling.
    """
    global _cached
    gram = _cached
    if gram is None or gram.cfg != cfg:
        _cached = gram = None  # no old Gram stays alive while the new one is built
        gram = _factor(cfg)
    _cached = _check_ceiling(gram)
    return gram


def _check_ceiling(gram):
    """``gram``, unless neither its condition bound nor its estimate is
    under ``DEFAULT_COND_CEILING`` (read at call time); then
    ConditioningError."""
    ceiling = DEFAULT_COND_CEILING
    if not gram._cond_bound <= ceiling and not gram.cond_estimate <= ceiling:
        raise ConditioningError(
            f"Gram condition estimate {gram.cond_estimate:.3e} exceeds ceiling "
            f"{ceiling:.3e} for M={gram.cfg.M}, gamma={gram.cfg.gamma:g}",
            cond_estimate=gram.cond_estimate,
        )
    return gram


def _tables(cfg):
    """The tables kept with the cached Gram if it is ``cfg``'s, else a
    throwaway dict: what a caller stores there never outlives the Gram of
    its configuration, nor is kept for another."""
    gram = _cached
    return gram._kept if gram is not None and gram.cfg == cfg else {}


def measurement_vector(lags):
    """Stack the real and imaginary lag parts into the solver layout
    [Re r_0 .. Re r_{M-1}, Im r_1 .. Im r_{M-1}]."""
    if not isinstance(lags, CovarianceLags):
        lags = CovarianceLags(lags)
    return np.concatenate([lags.r.real, lags.r[1:].imag])


def solve(gram, y):
    """Solve G b = y for TrigCoeffs in the [constant | cosine | sine]
    layout (:func:`_inverse`), then one step of iterative refinement with
    the residual through :func:`_gram_product`, so the residual stays at
    the backward-stable floor.
    """
    y_arr = np.asarray(y, dtype=np.float64).reshape(-1)
    if y_arr.size != gram.size:
        raise ValueError(
            f"measurement length {y_arr.size} does not match Gram size {gram.size}"
        )
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("measurements must be finite")
    b = _inverse(gram, y_arr)
    b += _inverse(gram, y_arr - _gram_product(gram._form, b))
    return TrigCoeffs(b)


def _inverse(gram, y):
    """G^-1 y, unrefined: :func:`_toeplitz_solve`, or ``dpotrs`` on each
    block's Cholesky factor. The factors were checked finite when they
    were computed and are read-only, and :func:`solve` checks ``y``, so
    LAPACK's ``dpotrs`` is called directly, without scipy's checking
    wrapper."""
    if gram.generators is not None:
        return _toeplitz_solve(gram.generators, y)
    M = gram.cfg.M

    def potrs(factor, rhs):
        if rhs.size == 0:
            return rhs.copy()
        sol, info = scipy.linalg.lapack.dpotrs(factor, rhs, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        return sol

    return np.concatenate([potrs(gram.chol_re, y[:M]), potrs(gram.chol_im, y[M:])])
