"""Extrapolation of small-argument expansions with continued-root forms.

The package fits nested-root approximants with a single repeated power to
a truncated Taylor series, reads off their large-argument power law, and
diagnoses convergence of the resulting amplitude sequence.  See the
``corpus`` module for ready-made benchmark problems and ``cli`` for the
command-line entry point.
"""

from ._backend import backend_name
from .approximant import (
    AmplitudeResult,
    ContinuedRootApproximant,
    ExponentTarget,
    exponent_to_power,
    finite_order_exponent,
    fit,
    fit_sequence,
    power_to_exponent,
)
from .corpus import (
    BenchmarkProblem,
    problem,
    problem_names,
    string_coefficients,
    string_coefficients_exact,
    string_exact_f,
)
from .diagnostics import (
    ConvergenceDiagnostics,
    ExtrapolationReport,
    ReportRow,
    depth_table,
    herschfeld_terms,
    sequence_report,
)
from .errors import (
    ComplexBreakdownError,
    ContinuedRootError,
    RealnessError,
    UnknownProblemError,
    VanishingSensitivityError,
)
from .series import TruncatedSeries

__version__ = "1.0.0"

__all__ = [
    "AmplitudeResult",
    "BenchmarkProblem",
    "ComplexBreakdownError",
    "ContinuedRootApproximant",
    "ContinuedRootError",
    "ConvergenceDiagnostics",
    "ExponentTarget",
    "ExtrapolationReport",
    "RealnessError",
    "ReportRow",
    "TruncatedSeries",
    "UnknownProblemError",
    "VanishingSensitivityError",
    "backend_name",
    "depth_table",
    "exponent_to_power",
    "finite_order_exponent",
    "fit",
    "fit_sequence",
    "herschfeld_terms",
    "power_to_exponent",
    "problem",
    "problem_names",
    "sequence_report",
    "string_coefficients",
    "string_coefficients_exact",
    "string_exact_f",
]
