"""Recovery of a continuous angular power spectrum from uniform linear
array covariance lags, with exact energy/error certificates.

The covariance lags of a ULA are weighted Fourier measurements of the
spectrum after the change of variables x = sin(theta). The recovery
returns the unique minimum-norm spectrum consistent with the lags, which
is a trigonometric polynomial of fixed order determined by the array, and
certifies it with closed-form energy identities and an identifiability
test.

Typical use::

    from apsrec import ArrayConfig, GaussianMixture, certify, recover, synthesize_lags

    cfg = ArrayConfig(M=8, gamma=1.0)
    truth = GaussianMixture(components=((0.3, 0.05, 1.0),))
    lags = synthesize_lags(truth, cfg)
    solution = recover(lags, cfg)
    report = certify(truth, cfg)

A measured Hermitian Toeplitz covariance matrix enters through
``lags_from_toeplitz``, which returns its lags. A solution's weighted
energy is ``assemble_gram(cfg).quadratic_form(solution.coeffs)``.

Synthesis is exact for every built-in model and takes no option, and
``certify`` derives its energy rule from the array and the model. No node
count is settable, and one exponential-sum kernel samples every
trigonometric polynomial, a ``TrigPolynomial`` truth or a ``PlvSolution``.
"""

from .analysis import (
    DEFAULT_IDENTIFIABILITY_TOL,
    ErrorCertificate,
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
    SampledFunction,
    SpectrumSum,
    TrigCoeffs,
    TrigPolynomial,
    Uniform,
    lags_from_toeplitz,
)
from .errors import (
    ConditioningError,
    ConfigError,
    DomainError,
    FeasibilityWarning,
    ModelError,
    QuadratureError,
    StructureError,
)
from .forward import synthesize_lags
from .gram import (
    GramMatrix,
    assemble_gram,
    measurement_vector,
    solve,
)
from .plv import (
    NegativitySummary,
    PlvSolution,
    evaluate_solution,
    negativity_summary,
    project_onto_nperp,
    recover,
)

__version__ = "0.1.0"

__all__ = [
    "ApsModel",
    "ArrayConfig",
    "ConditioningError",
    "ConfigError",
    "CovarianceLags",
    "DEFAULT_IDENTIFIABILITY_TOL",
    "Domain",
    "DomainError",
    "ErrorCertificate",
    "FeasibilityWarning",
    "GaussianMixture",
    "GramMatrix",
    "LaplacianMixture",
    "ModelError",
    "NegativitySummary",
    "PlvSolution",
    "PointSources",
    "QuadratureError",
    "SampledFunction",
    "SpectrumSum",
    "StructureError",
    "TrigCoeffs",
    "TrigPolynomial",
    "Uniform",
    "assemble_gram",
    "certify",
    "evaluate_solution",
    "lags_from_toeplitz",
    "measurement_vector",
    "negativity_summary",
    "project_onto_nperp",
    "recover",
    "resolution_sweep",
    "solve",
    "synthesize_lags",
]
