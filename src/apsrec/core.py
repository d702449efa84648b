"""Domain types shared by all modules: array geometry, covariance lags,
trigonometric coefficient vectors, spectrum models, and the conversions
between the angle domain theta in [-pi/2, pi/2] and the transformed
domain x = sin(theta) in [-1, 1].

All types are immutable after construction and safe to share across
threads; no operation mutates its inputs.
"""

import abc
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.special

from .errors import DomainError, ModelError, StructureError

HALF_PI = 0.5 * np.pi
# e^{i n pi/2} for n mod 4: the edge phases of the half-range Fourier
# coefficients, exact at every n.
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


class Domain(str, enum.Enum):
    """Which variable a grid or integration path lives in."""

    THETA = "theta"
    X = "x"


def _readonly(obj, name, arr):
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


def _count(value, minimum, name):
    """``value`` as an int, if it is an integer (not a bool) of at least
    ``minimum``; ValueError naming ``name`` otherwise."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return int(value)


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array geometry.

    Args:
        M: Antenna count, at least 1.
        gamma: Dimensionless spacing ratio 2*d/wavelength, positive. The
            spatial frequency of the m-th lag is ``kappa(m) = gamma*pi*m``.

    Values gamma > 1 (spatially aliased arrays) are accepted; the
    recovery machinery is agnostic to aliasing and simply works with the
    resulting frequencies.
    """

    M: int
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "M", _count(self.M, 1, "M"))
        gamma = float(self.gamma)
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise ValueError("gamma must be positive and finite")
        object.__setattr__(self, "gamma", gamma)

    def kappa(self, m):
        """Spatial frequency gamma*pi*m for a nonnegative integer index m.

        The index may exceed M-1: the Gram matrix needs frequencies up to
        index 2M-2.
        """
        if m < 0:
            raise ValueError("kappa is defined for nonnegative indices")
        return self.gamma * np.pi * m

    def kappas(self, count):
        """Vector of the first ``count`` spatial frequencies gamma*pi*[0..count-1]."""
        return self.gamma * np.pi * np.arange(count)

    @property
    def n_coeffs(self):
        """Dimension 2M-1 of the trigonometric coefficient space."""
        return 2 * self.M - 1


@dataclass(frozen=True)
class CovarianceLags:
    """First column r of a Hermitian Toeplitz ULA covariance matrix.

    ``r[0]`` must have exactly zero imaginary part (it is the integral of a
    real nonnegative density). Negative lags are implied by conjugate
    symmetry ``r[-m] = conj(r[m])`` and are never stored.
    """

    r: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=np.complex128, copy=True).reshape(-1)
        if r.size < 1:
            raise ValueError("lag vector must have at least one entry")
        if not np.all(np.isfinite(r)):
            raise ValueError("lag vector must be finite")
        if r[0].imag != 0.0:
            raise ValueError("imaginary part of r[0] must be exactly zero")
        _readonly(self, "r", r)

    @property
    def M(self):
        return self.r.size

    def __len__(self):
        return self.r.size


@dataclass(frozen=True)
class TrigCoeffs:
    """Real coefficient vector of a trigonometric polynomial on [-1, 1].

    Layout: ``b[0]`` is the constant term, ``b[1..M-1]`` are the cosine
    coefficients of cos(kappa_m x), and ``b[M..2M-2]`` are the sine
    coefficients of sin(kappa_m x). This ordering is the wire format used
    by every solver and file in the package.
    """

    b: np.ndarray

    def __post_init__(self):
        b = np.array(self.b, dtype=np.float64, copy=True).reshape(-1)
        if b.size % 2 == 0:
            raise ValueError("coefficient vector must have odd length 2M-1")
        if not np.all(np.isfinite(b)):
            raise ValueError("coefficients must be finite")
        _readonly(self, "b", b)

    @property
    def M(self):
        return (self.b.size + 1) // 2

    @property
    def constant(self):
        return self.b[0]

    @property
    def cos_block(self):
        """Coefficients of cos(kappa_m x) for m = 1..M-1 (empty when M = 1)."""
        return self.b[1:self.M]

    @property
    def sin_block(self):
        """Coefficients of sin(kappa_m x) for m = 1..M-1 (empty when M = 1)."""
        return self.b[self.M:]

    def __len__(self):
        return self.b.size

    @classmethod
    def zeros(cls, M):
        return cls(np.zeros(2 * M - 1))


def trig_basis(cfg, x):
    """Evaluate the basis [1, cos(kappa_1 x)..cos(kappa_{M-1} x),
    sin(kappa_1 x)..sin(kappa_{M-1} x)] at the points ``x``.

    Returns:
        Array of shape (len(x), 2M-1); one row per evaluation point.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    freqs = cfg.kappas(cfg.M)[1:]
    arg = np.multiply.outer(x, freqs)
    return np.concatenate(
        [np.ones((x.size, 1)), np.cos(arg), np.sin(arg)], axis=1
    )


# The exponential-sum kernel: every sum_j v_j exp(i kappa_m x_j) in the
# package runs on a table of step_j**m, step_j = exp(i gamma pi x_j). One
# whose M complex rows and one real row of weights exceed this cap is
# never built whole, nor is any larger table kept with the cached Gram.
_MAX_KEPT_TABLE_BYTES = 16 * 2**20


def _powers(step, rows):
    """The read-only table of step**m for m < rows, one row per power."""
    powers = np.empty((rows, step.size), dtype=np.complex128)
    powers[0] = 1.0
    for m in range(1, rows):
        np.multiply(powers[m - 1], step, out=powers[m])
    powers.setflags(write=False)
    return powers


class _SplitTable(NamedTuple):
    """The stand-in for a power table over the cap: the B baby rows
    step**r, the giant step step**B, and a work table of one row per
    giant power, shared by the passes of one call."""

    baby: np.ndarray
    giant: np.ndarray
    work: np.ndarray


def _exp_table(cfg, x):
    """The kernel table of step_j**m, m < M, at the points ``x`` (a theta
    path passes sin(theta)): the whole M-row table within the cap, else,
    with B = isqrt(M) and m = B s + r, a :class:`_SplitTable` of the baby
    rows step**r and the giant step step**B, about 2 sqrt(M) rows."""
    step = np.exp(1j * cfg.gamma * np.pi * x)
    if (2 * cfg.M + 1) * 8 * step.size <= _MAX_KEPT_TABLE_BYTES:
        return _powers(step, cfg.M)
    rows = math.isqrt(cfg.M)
    baby = _powers(step, rows)
    work = np.empty((-(-cfg.M // rows), step.size), dtype=np.complex128)
    return _SplitTable(baby, baby[-1] * step, work)


# The products with baby rows below are real GEMMs on float64 views of
# the complex tables, whose columns alternate real and imaginary parts.
def _giant_sum(table, c):
    """sum_m c_m step**m for real c zero-padded and shaped (rows, B):
    Horner's rule in the giant step over the rows of c @ baby."""
    baby, giant, work = table
    np.matmul(c, baby.view(np.float64), out=work.view(np.float64))
    total = work[-1].copy()
    for row in work[-2::-1]:
        total *= giant
        total += row
    return total


def _giant_lags(table, v, M):
    """Re sum_j v_j step_j**m for m < M, with v complex. Row s of the work
    table becomes conj(v giant**s), and entry (s, r) of the real product
    of its float view with baby's is then the sum for m = B s + r."""
    baby, giant, work = table
    work[0] = v
    for s in range(1, len(work)):
        np.multiply(work[s - 1], giant, out=work[s])
    np.conjugate(work, out=work)
    return (work.view(np.float64) @ baby.view(np.float64).T).ravel()[:M]


def _exp_samples(table, b):
    """Samples from coefficients ``b`` in the TrigCoeffs layout: the parts
    (Re sum_m b_m step_j**m, Im sum_m b_{M-1+m} step_j**m), whose sum is
    the polynomial at the table's points; the sine part of m = 0 is zero."""
    M = (b.size + 1) // 2
    if isinstance(table, np.ndarray):
        return (b[:M] @ table).real, (b[M:] @ table[1:]).imag
    cos, sin = np.zeros((2, len(table.work), len(table.baby)))
    cos.flat[:M], sin.flat[1:M] = b[:M], b[M:]
    return _giant_sum(table, cos).real, _giant_sum(table, sin).imag


def _exp_lags(table, a, b, M):
    """Lags from weighted samples: Re sum_j a_j step_j**m
    + i Im sum_j b_j step_j**m for m < M and real a, b (with a = b = v,
    sum_j v_j exp(i kappa_m x_j)); Re(-i z) is Im(z)."""
    if isinstance(table, np.ndarray):
        if a is b:
            return table @ a
        return (table @ a).real + 1j * (table @ b).imag
    return _giant_lags(table, a, M) + 1j * _giant_lags(table, -1j * b, M)


class ApsModel(abc.ABC):
    """Parametric ground-truth angular power spectrum on [-pi/2, pi/2].

    Concrete models either have a square-integrable density (``in_l2`` is
    True) or are purely atomic (point sources), in which case the density
    does not exist and only exact lag synthesis applies. Lags are
    synthesized for the built-in models and their sums only.
    """

    # True when the model has an L2 density, so energy identities apply.
    in_l2 = True

    @abc.abstractmethod
    def rho(self, theta):
        """Power density at angle(s) ``theta`` in radians."""

    def seams_theta(self):
        """Interior angles where the density is not smooth (kinks or jumps).

        Quadrature engines split integration at these points; smooth models
        return an empty tuple.
        """
        return ()

    def __add__(self, other):
        if not isinstance(other, ApsModel):
            return NotImplemented
        return SpectrumSum((self, other))


def _check_angle(name, value):
    if not (-HALF_PI <= value <= HALF_PI):
        raise ValueError(f"{name} must lie in [-pi/2, pi/2]")


@dataclass(frozen=True)
class Uniform(ApsModel):
    """Constant power density ``height`` on the angular segment [lo, hi]."""

    lo: float
    hi: float
    height: float

    def __post_init__(self):
        _check_angle("lo", self.lo)
        _check_angle("hi", self.hi)
        if self.hi <= self.lo:
            raise ValueError("hi must exceed lo")
        if not (0.0 <= self.height < np.inf):
            raise ValueError("height must be nonnegative and finite")

    def rho(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        return np.where((theta >= self.lo) & (theta <= self.hi), self.height, 0.0)

    def _fourier(self, n):
        """Half-range Fourier coefficients c_n, the integrals of
        rho(theta) e^{i n theta} over [-pi/2, pi/2], at the integers n."""
        width = self.hi - self.lo
        return (self.height * width * np.exp(0.5j * n * (self.hi + self.lo))
                * np.sinc(n * width / (2.0 * np.pi)))

    def seams_theta(self):
        return tuple(p for p in (self.lo, self.hi) if -HALF_PI < p < HALF_PI)


def _check_components(components):
    out = []
    for mean, std, weight in components:
        _check_angle("component mean", mean)
        if not (0.0 < std < np.inf):
            raise ValueError("component std must be positive and finite")
        if not (0.0 <= weight < np.inf):
            raise ValueError("component weight must be nonnegative and finite")
        out.append((float(mean), float(std), float(weight)))
    if not out:
        raise ValueError("mixture needs at least one component")
    return tuple(out)


@dataclass(frozen=True)
class _Mixture(ApsModel):
    """Sum of peaks, each (mean, std, weight): a peak of standard deviation
    ``std`` centred at ``mean`` that carries ``weight`` of power over the
    whole line. Peaks are hard-truncated to [-pi/2, pi/2] with no
    renormalization: the effective spectrum is the truncated one."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", _check_components(self.components))

    @staticmethod
    @abc.abstractmethod
    def _peak(theta, mean, std, weight):
        """One component's density at the angles ``theta``."""

    @staticmethod
    @abc.abstractmethod
    def _peak_fourier(n, mean, std, weight):
        """One component's half-range Fourier coefficients at the
        integers ``n`` (see :meth:`Uniform._fourier`): those of the whole
        peak less its two tails past +-pi/2."""

    def rho(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        total = np.zeros_like(theta)
        for mean, std, weight in self.components:
            total = total + self._peak(theta, mean, std, weight)
        return total

    def _fourier(self, n):
        return sum(self._peak_fourier(n, *component) for component in self.components)


@dataclass(frozen=True)
class GaussianMixture(_Mixture):
    """Sum of Gaussian bells (see :class:`_Mixture`)."""

    @staticmethod
    def _peak(theta, mean, std, weight):
        z = (theta - mean) / std
        return weight * np.exp(-0.5 * z * z) / (std * np.sqrt(2.0 * np.pi))

    @staticmethod
    def _peak_fourier(n, mean, std, weight):
        # The tail past pi/2 is (weight/2) e^{i n pi/2} erfc(t - i b) e^{-b^2}
        # with t = (pi/2 - mean)/(std sqrt 2) >= 0 and b = n std/sqrt 2;
        # as e^{-t^2} wofz(b + i t) it neither overflows nor cancels, since
        # |wofz| <= 1 in the upper half plane. The tail past -pi/2 mirrors it.
        scale = std * np.sqrt(0.5)
        b = n * scale
        t_hi, t_lo = (HALF_PI - mean) / (2.0 * scale), (HALF_PI + mean) / (2.0 * scale)
        edge = _QUARTER_TURNS[n % 4]
        tails = (edge * np.exp(-t_hi * t_hi) * scipy.special.wofz(b + 1j * t_hi)
                 + edge.conj() * np.exp(-t_lo * t_lo) * scipy.special.wofz(-b + 1j * t_lo))
        return weight * (np.exp(1j * n * mean - b * b) - 0.5 * tails)


@dataclass(frozen=True)
class LaplacianMixture(_Mixture):
    """Sum of Laplacian peaks (see :class:`_Mixture`); the Laplace scale is
    std/sqrt(2). The density has a kink at each mean."""

    @staticmethod
    def _peak(theta, mean, std, weight):
        scale = std / np.sqrt(2.0)
        return weight * np.exp(-np.abs(theta - mean) / scale) / (2.0 * scale)

    @staticmethod
    def _peak_fourier(n, mean, std, weight):
        scale = std / np.sqrt(2.0)
        ns = n * scale
        edge = _QUARTER_TURNS[n % 4]
        tails = (edge * np.exp(-(HALF_PI - mean) / scale) / (1.0 - 1j * ns)
                 + edge.conj() * np.exp(-(HALF_PI + mean) / scale) / (1.0 + 1j * ns))
        return weight * (np.exp(1j * n * mean) / (1.0 + ns * ns) - 0.5 * tails)

    def seams_theta(self):
        return tuple(
            mean for mean, _, _ in self.components if -HALF_PI < mean < HALF_PI
        )


@dataclass(frozen=True)
class TrigPolynomial(ApsModel):
    """Spectrum whose transformed density g(x) is the trigonometric
    polynomial ``coeffs`` at the frequencies of ``config``; the angular
    density is rho(theta) = g(sin theta)."""

    config: ArrayConfig
    coeffs: TrigCoeffs

    def __post_init__(self):
        if self.coeffs.M != self.config.M:
            raise ValueError(
                f"coefficient order {self.coeffs.M} does not match array M = {self.config.M}"
            )

    def g(self, x):
        """Transformed density at the points ``x``, in their shape (a
        scalar for a 0-d input), by the exponential-sum kernel. Values
        for |x| > 1 are the analytic continuation."""
        x = np.asarray(x, dtype=np.float64)
        even, odd = _exp_samples(_exp_table(self.config, x.ravel()), self.coeffs.b)
        values = (even + odd).reshape(x.shape)
        return values[()]

    def rho(self, theta):
        return self.g(np.sin(np.asarray(theta, dtype=np.float64)))


@dataclass(frozen=True)
class PointSources(ApsModel):
    """Discrete sources, each (angle, power). Dirac masses are not
    square-integrable, so this model has no density and no transform; its
    lags are exact finite sums."""

    sources: tuple
    in_l2 = False

    def __post_init__(self):
        out = []
        for angle, power in self.sources:
            _check_angle("source angle", angle)
            if not (0.0 <= power < np.inf):
                raise ValueError("source power must be nonnegative and finite")
            out.append((float(angle), float(power)))
        if not out:
            raise ValueError("need at least one source")
        object.__setattr__(self, "sources", tuple(out))

    def rho(self, theta):
        raise ModelError("point sources have no pointwise density")


@dataclass(frozen=True)
class SpectrumSum(ApsModel):
    """Superposition of spectrum models."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("sum needs at least one term")
        for term in terms:
            if not isinstance(term, ApsModel):
                raise TypeError("sum terms must be spectrum models")
        object.__setattr__(self, "terms", terms)

    @property
    def in_l2(self):
        return all(term.in_l2 for term in self.terms)

    def rho(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        total = np.zeros_like(theta)
        for term in self.terms:
            total = total + term.rho(theta)
        return total

    def seams_theta(self):
        seams = set()
        for term in self.terms:
            seams.update(term.seams_theta())
        return tuple(sorted(seams))


def _leaves(model):
    """The terms of a model, with sums flattened, in order."""
    if isinstance(model, SpectrumSum):
        return [leaf for term in model.terms for leaf in _leaves(term)]
    return [model]


def transform_aps(model):
    """Return the transformed density g(x) = rho(arcsin x) on [-1, 1].

    Args:
        model: An L2 spectrum model. Point sources never pass through
            g-space and raise ModelError.

    Returns:
        A vectorized callable g(x). Evaluation outside [-1, 1] raises
        DomainError.
    """
    if not model.in_l2:
        raise ModelError(
            "model has no square-integrable density; its transform is undefined"
        )

    if isinstance(model, TrigPolynomial):
        native = model.g
    else:
        def native(x):
            return model.rho(np.arcsin(x))

    def g(x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < -1.0) or np.any(x > 1.0):
            raise DomainError("transformed density is defined on [-1, 1]")
        return native(x)

    return g


def toeplitz_from_lags(lags):
    """Build the full M-by-M Hermitian Toeplitz covariance matrix whose
    first column is ``lags.r``."""
    return scipy.linalg.toeplitz(lags.r, np.conj(lags.r))


def lags_from_toeplitz(matrix, tol=1e-10):
    """Extract the first column of a Hermitian Toeplitz matrix as lags.

    Args:
        matrix: Square complex matrix.
        tol: Maximum entrywise deviation from exact Hermitian Toeplitz
            structure before the input is rejected; finite and >= 0.

    Raises:
        StructureError: If ``matrix`` is not a finite square matrix, or
            deviates from Hermitian Toeplitz structure by more than
            ``tol`` (it then cannot be a ULA covariance).
        ValueError: For a negative or non-finite ``tol``.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not np.all(np.isfinite(matrix)):
        raise StructureError("covariance must be a finite square matrix")
    first = matrix[:, 0].copy()
    first[0] = first[0].real
    lags = CovarianceLags(first)
    deviation = np.max(np.abs(matrix - toeplitz_from_lags(lags)))
    if deviation > tol:
        raise StructureError(
            f"matrix deviates from Hermitian Toeplitz structure by {deviation:.3e} (tol {tol:.3e})"
        )
    return lags


@dataclass(frozen=True)
class SampledFunction:
    """A function sampled on a strictly increasing grid, tagged with the
    domain (theta or x) the grid lives in. Plain container for CSV output
    and plotting."""

    grid: np.ndarray
    values: np.ndarray
    domain: Domain = Domain.X

    def __post_init__(self):
        grid = np.array(self.grid, dtype=np.float64, copy=True).reshape(-1)
        values = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if grid.size != values.size:
            raise ValueError("grid and values must have equal length")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        _readonly(self, "grid", grid)
        _readonly(self, "values", values)
        object.__setattr__(self, "domain", Domain(self.domain))

    def __len__(self):
        return self.grid.size
