"""The block-diagonal Gram matrix of the trigonometric basis under the
weighted inner product, in closed form via ``scipy.special.j0``, plus
its Cholesky factorization and the linear solve that yields recovery
coefficients.

The basis splits by parity: cosines (with the constant as index 0) pair
only with the real parts of the lags, sines only with the imaginary
parts, so the full (2M-1)-dimensional system decouples into two
independent symmetric positive-definite blocks.
"""

import ctypes
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack
# Bound as a module attribute, not called as scipy.special.j0, so that
# perfbench's tracer can wrap ``gram.bessel_j0`` as its J0 layer.
from scipy.special import j0 as bessel_j0

from .core import ArrayConfig, CovarianceLags, TrigCoeffs
from .errors import ConditioningError

DEFAULT_COND_CEILING = 1e12


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
    """Assembled and factorized Gram matrix for one array configuration.

    ``chol_re`` and ``chol_im`` are lower-triangular Cholesky factors
    from LAPACK's ``dpotrf``, in column-major order and zero above the
    diagonal, bit-identical to ``scipy.linalg.cholesky``'s whether the
    two blocks were factorized in turn or side by side; ``cond_estimate``
    is the 1-norm condition number of the full block-diagonal matrix,
    with ||G||_1 from LAPACK's ``dlange`` and ||G^-1||_1 from LAPACK's
    Hager/Higham estimator (``dpocon``) on the Cholesky factors. That
    estimate is a lower bound: exact near the default ceiling and within
    about 15 % of the true value for well-conditioned arrays. All arrays
    are read-only, so one instance is shared by every caller that asks
    :func:`assemble_gram` for the same configuration, and concurrent
    solves against it are safe.
    """

    cfg: ArrayConfig
    g_re: np.ndarray
    g_im: np.ndarray
    chol_re: np.ndarray
    chol_im: np.ndarray
    cond_estimate: float

    def __post_init__(self):
        for name in ("g_re", "g_im", "chol_re", "chol_im"):
            getattr(self, name).setflags(write=False)

    @property
    def size(self):
        return 2 * self.cfg.M - 1

    def full_matrix(self):
        """The dense (2M-1)-by-(2M-1) block-diagonal matrix."""
        M = self.cfg.M
        full = np.zeros((self.size, self.size))
        full[:M, :M] = self.g_re
        full[M:, M:] = self.g_im
        return full

    def quadratic_form(self, b):
        """b^T G b for a TrigCoeffs or raw coefficient vector."""
        b = b.b if isinstance(b, TrigCoeffs) else np.asarray(b, dtype=np.float64)
        M = self.cfg.M
        return float(b[:M] @ self.g_re @ b[:M] + b[M:] @ self.g_im @ b[M:])


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack(name, restype, *argtypes):
    """A ctypes binding of one routine of scipy's Cython LAPACK API.

    These are the routines scipy's own wrappers call, but a ctypes foreign
    call releases the GIL, so two blocks can be factorized at once.
    """
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(restype, *argtypes)(address)


_int_p = ctypes.POINTER(ctypes.c_int)
_double_p = ctypes.POINTER(ctypes.c_double)
_array = ctypes.c_void_p
_dpotrf = _lapack("dpotrf", None, ctypes.c_char_p, _int_p, _array, _int_p, _int_p)
_dlange = _lapack("dlange", ctypes.c_double,
                  ctypes.c_char_p, _int_p, _int_p, _array, _int_p, _array)
_dlaset = _lapack("dlaset", None, ctypes.c_char_p, _int_p, _int_p,
                  _double_p, _double_p, _array, _int_p)
_dpocon = _lapack("dpocon", None, ctypes.c_char_p, _int_p, _array, _int_p,
                  _double_p, _double_p, _double_p, _int_p, _int_p)


def _factor_block(cfg, block):
    """Cholesky factor, ||A||_1 and estimated ||A^-1||_1 of one block.

    Every LAPACK call here runs without the GIL, so the two blocks can be
    factorized on two threads. The block is exactly symmetric, so the
    transpose of its row-major copy is the same matrix in column-major
    order; ``dpotrf`` factorizes that copy in place, and ``dlaset`` zeroes
    its strict upper triangle as the upper triangle of the submatrix that
    starts at column 1.

    Raises:
        ConditioningError: If ``dpotrf`` finds a leading minor that is
            not positive definite.
    """
    n = block.shape[0]
    if n == 0:
        return np.zeros((0, 0)), 1.0, 1.0
    factor = block.copy().T
    address = factor.ctypes.data
    size, info = ctypes.c_int(n), ctypes.c_int(0)
    anorm = _dlange(b"1", size, size, address, size, None)
    _dpotrf(b"L", size, address, size, info)
    if info.value > 0:
        raise ConditioningError(
            f"Gram factorization failed for M={cfg.M}, gamma={cfg.gamma:g}: "
            f"matrix is numerically indefinite (leading minor {info.value} is "
            "not positive definite)"
        )
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpotrf")
    zero, upper = ctypes.c_double(0.0), ctypes.c_int(n - 1)
    column_1 = address + n * factor.itemsize
    _dlaset(b"U", upper, upper, zero, zero, column_1, size)
    rcond = ctypes.c_double(0.0)
    _dpocon(b"L", size, address, size, ctypes.c_double(anorm), rcond,
            (ctypes.c_double * (3 * n))(), (ctypes.c_int * n)(), info)
    inverse_norm = np.inf if rcond.value == 0.0 else 1.0 / (rcond.value * anorm)
    return factor, anorm, inverse_norm


# From this M up, ``_factor`` factorizes the sine block on a thread of
# its own while the calling thread factorizes the cosine block; below it
# a thread start costs more than it saves (one BLAS thread, two cores: the
# split was slower at M = 128, even at 192 and faster from 256).
_SPLIT_MIN_M = 192


def _factor(cfg):
    """Assemble, factorize and condition-estimate the Gram for ``cfg``.

    The blocks are assembled on the calling thread. From ``_SPLIT_MIN_M``
    up, the sine block is factorized on a thread started for this call
    and joined before it returns, while the calling thread factorizes the
    cosine block; if no thread can be started, the blocks are factorized
    in turn. If both blocks fail, the cosine block's error is raised, as
    in the serial order.
    """
    g_re, g_im = gram_blocks(cfg)
    sine = []

    def factor_sine():
        try:
            sine.append(_factor_block(cfg, g_im))
        except Exception as error:
            sine.append(error)

    worker = None
    if cfg.M >= _SPLIT_MIN_M:
        worker = threading.Thread(target=factor_sine, name="apsrec-gram")
        try:
            worker.start()
        except RuntimeError:
            worker = None
    try:
        chol_re, norm_re, inv_re = _factor_block(cfg, g_re)
    finally:
        if worker is not None:
            worker.join()
    if worker is None:
        factor_sine()
    if isinstance(sine[0], Exception):
        raise sine[0]
    chol_im, norm_im, inv_im = sine[0]
    cond = max(norm_re, norm_im) * max(inv_re, inv_im)
    return GramMatrix(cfg, g_re, g_im, chol_re, chol_im, float(cond))


# The workspace of the last configuration that assembled under its
# ceiling: one (ArrayConfig, GramMatrix, tables) entry, with ``tables``
# mapping a caller's key to a read-only tuple of arrays. An entry is
# replaced as a whole, never changed in place, so a reader sees the old
# entry or the new one. ``_lock`` makes adding a table a read-modify-write
# of the current entry, so it never drops another thread's table or
# brings back a dropped entry.
_cached = None
_lock = threading.Lock()

# A larger table is not kept: the audit's 42 MB table at M = 1024, kept
# next to the 32 MB Gram, raised the peak resident memory of an M = 1024
# stream by 16 MB. A larger power table is not even built whole; the
# half-rule kernel generates it in row blocks.
_MAX_KEPT_TABLE_BYTES = 16 * 2**20


def assemble_gram(cfg, cond_ceiling=DEFAULT_COND_CEILING):
    """The factorized Gram matrix for ``cfg``, assembled once per
    configuration.

    The Gram depends on the array alone, so the last one assembled is
    kept in a single workspace slot keyed on ``cfg``, and the same
    read-only object is returned while ``cfg`` repeats. A different
    configuration drops the whole workspace (the Gram and every table
    kept with it) before assembling its own, so at most one is alive at a
    time. The ceiling is checked on every call against the stored
    condition estimate, and a configuration that raises is not cached.

    Args:
        cfg: Array configuration.
        cond_ceiling: Hard ceiling on the 1-norm condition estimate. The
            matrix is positive definite in exact arithmetic for every
            M and gamma, but closely spaced frequencies (gamma << 1) make
            it numerically singular; past the ceiling the closed-form
            solve is meaningless and we fail loudly rather than
            regularize.

    Raises:
        ConditioningError: If a Cholesky factorization fails or the
            condition estimate exceeds ``cond_ceiling``.
    """
    global _cached
    with _lock:
        entry = _cached
        if entry is None or entry[0] != cfg:
            _cached = entry = None
    gram = entry[1] if entry is not None else _factor(cfg)
    if gram.cond_estimate > cond_ceiling:
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


@dataclass(frozen=True)
class MeasurementVector:
    """Stacked real measurements [Re r_0 .. Re r_{M-1}, Im r_1 .. Im r_{M-1}]."""

    y: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=np.float64, copy=True).reshape(-1)
        if y.size % 2 == 0:
            raise ValueError("measurement vector must have odd length 2M-1")
        if not np.all(np.isfinite(y)):
            raise ValueError("measurements must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def M(self):
        return (self.y.size + 1) // 2

    def __len__(self):
        return self.y.size


def measurement_vector(lags):
    """Stack the real and imaginary lag parts into the solver layout."""
    if not isinstance(lags, CovarianceLags):
        lags = CovarianceLags(lags)
    return MeasurementVector(np.concatenate([lags.r.real, lags.r[1:].imag]))


def solve(gram, y):
    """Solve G b = y blockwise from the Cholesky factors.

    One step of iterative refinement follows each triangular solve, so the
    residual stays at the backward-stable floor. The factors were checked
    finite when they were computed and are read-only, and the right-hand
    side is a validated MeasurementVector, so each solve calls LAPACK's
    ``dpotrs`` directly, without scipy's checking wrapper. Returns
    TrigCoeffs in the [constant | cosine | sine] layout.
    """
    y_arr = y.y if isinstance(y, MeasurementVector) else MeasurementVector(y).y
    if y_arr.size != gram.size:
        raise ValueError(
            f"measurement length {y_arr.size} does not match Gram size {gram.size}"
        )
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
