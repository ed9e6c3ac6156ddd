"""Exact extremal p-lengths of factorizations.

Numerical semigroups (additive) and arithmetical congruence monoids
(multiplicative), with quasipolynomial detection and a verification
harness replaying every supported claim. All core arithmetic is exact.
"""

from .acm import Acm, AcmFactorization
from .acm46 import GrowthSeries, SmoothElement
from .errors import (
    BudgetExceededError,
    ConstructionInvalidError,
    ContainsOneError,
    DegenerateError,
    GcdNotOneError,
    ModulusNotInSemigroupError,
    NotIdempotentError,
    NotInMonoidError,
    NotInSemigroupError,
    NotMinimalError,
    PlengthsError,
    ThresholdNotMetError,
    WindowTooShortError,
)
from .factor import (
    ExtremalResult,
    closed_len_recurrence,
    closed_max_inf,
    closed_min_inf,
    extremal_plength,
    extremal_values,
    factorizations,
    min2_integer_minimizer,
    min2_shift_check,
    plength,
)
from .quasipoly import (
    FitReport,
    QuasiPolynomial,
    SampleWindow,
    qp_detect,
    qp_fit,
    verify_qp_attributes,
)
from .semigroup import AperyTable, NumericalSemigroup
from .verify import RunConfig, VerificationReport, verify_acm, verify_semigroup

__version__ = "0.1.0"

__all__ = [
    "Acm",
    "AcmFactorization",
    "AperyTable",
    "BudgetExceededError",
    "ConstructionInvalidError",
    "ContainsOneError",
    "DegenerateError",
    "ExtremalResult",
    "FitReport",
    "GcdNotOneError",
    "GrowthSeries",
    "ModulusNotInSemigroupError",
    "NotIdempotentError",
    "NotInMonoidError",
    "NotInSemigroupError",
    "NotMinimalError",
    "NumericalSemigroup",
    "PlengthsError",
    "QuasiPolynomial",
    "RunConfig",
    "SampleWindow",
    "SmoothElement",
    "ThresholdNotMetError",
    "VerificationReport",
    "WindowTooShortError",
    "closed_len_recurrence",
    "closed_max_inf",
    "closed_min_inf",
    "extremal_plength",
    "extremal_values",
    "factorizations",
    "min2_integer_minimizer",
    "min2_shift_check",
    "plength",
    "qp_detect",
    "qp_fit",
    "verify_acm",
    "verify_qp_attributes",
    "verify_semigroup",
]
