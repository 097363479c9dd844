"""Convergence certificates and extrapolation reports.

The nested-root form of depth k is algebraically a generalised nested
radical, so a classical boundedness criterion applies: rewrite the form as
a radical with depth-dependent root exponents and check that the rescaled
inner terms stay below a finite cap.  ``herschfeld_terms`` computes that
certificate for one approximant; ``sequence_report`` tabulates amplitude
estimates across depths against a known limit, and ``depth_table`` builds
that table for a problem from one fit at its largest depth.
"""

import math
from collections.abc import Sequence

from ._record import Record
from .approximant import (
    ContinuedRootApproximant,
    ExponentTarget,
    _estimate,
    _exponent,
    _power_law,
    _require_positive,
    exponent_to_power,
    fit_sequence,
    power_to_exponent,
)
from .corpus import BenchmarkProblem
from .errors import ContinuedRootError, VanishingSensitivityError
from .series import TruncatedSeries, _order, _positive


class ConvergenceDiagnostics(Record):
    """Boundedness certificate for one approximant on [0, variable_bound].

    ``bound_terms[i]`` is the rescaled contribution (L*M)**beta_(i+1) of
    depth i + 2; the infinite-depth construction converges when such terms
    stay bounded, and they approach ``bound_limit`` = (L*M)**(s/(1-s)).
    The power is -1 < s < 1, where the criterion applies:
    ``herschfeld_terms`` rejects s = -1.  The certificate covers the depths
    actually present; the analytic limit covers the tail.
    """

    __slots__ = (
        "power", "variable_bound", "param_bound", "bound_terms", "bound_limit",
    )

    @property
    def bounded(self) -> bool:
        """True when every computed term is finite and capped.

        The cap is the larger of the analytic limit and the first term,
        which covers both the growing (L*M > 1) and shrinking (L*M < 1)
        regimes.  So for 0 < s < 1, where the exponents rise monotonically
        to the limit's, it is always True; for s < 0 they alternate and
        beta_2 = s + s**2 overshoots, so it is False exactly when L*M > 1
        and k >= 3.
        """
        cap = self.bound_limit
        if self.bound_terms:
            cap = max(cap, self.bound_terms[0])
        return all(t <= cap * (1.0 + 1e-12) for t in self.bound_terms)


def herschfeld_terms(
    approximant: ContinuedRootApproximant, variable_bound: float
) -> ConvergenceDiagnostics:
    """Boundedness certificate for an approximant on [0, variable_bound].

    With L = variable_bound and M the largest parameter, the term at depth
    n is (L*M)**(gamma_n * s**n), n = 2..k, with gamma_n the root exponent
    of the radical rewrite; gamma_n * s**n telescopes to the order-(n-1)
    exponent (s - s**n) / (1 - s), from which each term is computed.  All
    parameters must be strictly positive and s must not be -1, so that
    |s| < 1, for the criterion to apply.  A ValueError naming L*M is raised
    when L*M or a term leaves the float range.
    """
    s = approximant.power
    if s == -1.0:
        raise ValueError(
            f"the boundedness criterion requires |power| < 1, got {s!r}"
        )
    bound = _positive(variable_bound, "variable bound")
    _require_positive(approximant.params, "the certificate")
    m = max(approximant.params)
    try:
        lm = bound * m
        if lm == math.inf:
            raise OverflowError  # L*M itself overflowed
        terms = tuple(lm ** _exponent(s, n) for n in range(1, approximant.order))
        limit = lm ** power_to_exponent(s)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"the boundedness terms leave the float range for "
            f"L*max(A) = {variable_bound!r} * {m!r}"
        ) from None
    return ConvergenceDiagnostics(s, variable_bound, m, terms, limit)


class ReportRow(Record):
    """One depth of an extrapolation table.

    A row that could not be computed (for example because a parameter went
    negative) carries the failure message in ``error`` and None in the
    affected numeric fields; such rows are informative, not fatal.
    """

    __slots__ = (
        "order", "amplitude", "exponent", "observable", "percent_error", "error",
    )
    _defaults = {"error": None}

    @property
    def failed(self) -> bool:
        return self.error is not None


class ExtrapolationReport(Record):
    """Amplitude estimates across depths, with errors against a known limit."""

    __slots__ = ("rows", "target", "observable_prefactor", "match_point")


def sequence_report(
    approximants: Sequence[ContinuedRootApproximant],
    target: ExponentTarget,
    observable_prefactor: float = 1.0,
    match_point: float = 1.0,
) -> ExtrapolationReport:
    """Tabulate amplitude estimates for a sequence of increasing depths.

    For each approximant the observable is prefactor * B_k adjusted to the
    target exponent at ``match_point`` (a match point of 1 leaves B_k as
    is), and the percent error compares the amplitude estimate against the
    target amplitude when that is known.  Approximants that cannot produce
    a real amplitude, or whose amplitude, estimate, observable or percent
    error leaves the float range, yield failed rows that name the depth
    rather than aborting the report.

    Every row equals the one ``amplitude()`` of its approximant gives, bit
    for bit, but B_k is carried along the sequence: when an approximant has
    the previous one's power and its parameters extend the previous ones,
    B_k continues from the previous B with one factor A_n**(s**n) per new
    parameter (``_power_law``), beta_k is computed in closed form, and only
    the ``ReportRow`` is built.  So a prefix chain such as ``fit_sequence``
    returns costs one factor and a constant per depth.  Any other
    approximant restarts the product at 1; once a chain meets a parameter
    that is not > 0, each deeper row of it fails naming that parameter.

    Raises ValueError when depths are not strictly increasing or the
    prefactor is not positive.
    """
    # an int prefactor beyond the float range fails each row, as inf does
    prefactor = _positive(observable_prefactor, "observable prefactor")
    _positive(match_point, "match point")
    orders = [a.order for a in approximants]
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError(f"depths must be strictly increasing, got {orders}")
    rows = []
    # B over the first `done` parameters of `chain`, all of them positive
    chain, power, done, b = (), None, 0, 1.0
    for approx in approximants:
        if approx.power != power or approx.params[: len(chain)] != chain:
            done, b = 0, 1.0  # not a deeper form of the last one: restart
        chain, power, k = approx.params, approx.power, len(approx.params)
        exponent = _exponent(power, k)  # the form's power passed its check
        try:
            b = _power_law(chain, power, done, b)
            done = k
            estimate = _estimate(b, exponent, k, target.exponent, match_point)
            observable = prefactor * estimate
            if not math.isfinite(observable):
                raise ValueError(f"the observable at depth {k} leaves the float range")
            percent = None
            if target.amplitude is not None:
                percent = (estimate - target.amplitude) / target.amplitude * 100.0
                if not math.isfinite(percent):
                    raise ValueError(
                        f"the percent error at depth {k} leaves the float range"
                    )
        except (ContinuedRootError, ValueError) as err:
            # The exponent depends only on power and depth, so report it
            # even when the amplitude is not real.
            rows.append(ReportRow(k, None, exponent, None, None, str(err)))
            continue
        rows.append(ReportRow(k, b, exponent, observable, percent))
    return ExtrapolationReport(
        rows=tuple(rows),
        target=target,
        observable_prefactor=observable_prefactor,
        match_point=match_point,
    )


def depth_table(problem: BenchmarkProblem, kmax: int) -> ExtrapolationReport:
    """Extrapolation report for depths 2..kmax of a problem.

    The report of ``fit_sequence`` over depths 2..kmax, one fit at ``kmax``
    serving every depth.  When that fit fails at order n, each depth k >= n
    gets a failed row with the error a fit at depth k raises, which is the
    same one; shallower depths are reported from a fit at depth n - 1,
    whose parameters are those solved before the failure.

    Raises ValueError unless kmax is an integer of at least 2, when the
    problem cannot supply kmax coefficients, and the ValueError of ``fit``
    for invalid series.
    """
    kmax = _order(kmax, "kmax", 2)
    power = exponent_to_power(problem.target_exponent)
    series = TruncatedSeries(tuple(problem.coefficients(kmax)))
    try:
        fits = fit_sequence(series, power, range(2, kmax + 1))
    except VanishingSensitivityError as err:
        failure = err
        fits = fit_sequence(series, power, range(2, err.order))
    report = sequence_report(
        fits,
        ExponentTarget(problem.target_exponent, problem.known_amplitude),
        observable_prefactor=problem.observable_prefactor,
        match_point=problem.match_point,
    )
    failed = tuple(
        ReportRow(k, None, None, None, None, str(failure))
        for k in range(len(fits) + 2, kmax + 1)
    )
    return ExtrapolationReport(
        report.rows + failed, report.target, report.observable_prefactor,
        report.match_point,
    )
