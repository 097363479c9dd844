"""Independent reference implementations used only by the tests.

The fractional power here goes through exp(s * log(u)), a different
recurrence from ``TruncatedSeries.power``, so agreement between the two is
a real cross-check rather than a tautology.

The nested-expansion helpers bound the float64 rounding error of the
expansion a priori (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 3) and evaluate it exactly in rational arithmetic, so
tests can derive tolerances from the arithmetic instead of tuning them.

``fractional_power``, ``nested_expansion`` and ``nested_evaluate`` are
the package's former kernels, kept verbatim: each rebuilds its result
from scratch, level by level, so the incremental expansion, ``evaluate``
and ``TruncatedSeries.power`` must reproduce them bit for bit.
``reference_fit`` is the order-by-order fit that runs two full nested
expansions per order, kept as the reference that the incremental ``fit``
must reproduce bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

from continued_roots.approximant import SLOPE_TOLERANCE, ContinuedRootApproximant
from continued_roots.errors import DegenerateSeriesError, VanishingSensitivityError
from continued_roots.series import TruncatedSeries

UNIT_ROUNDOFF = 2.0**-53


def series_log(u: list[float]) -> list[float]:
    """Coefficients of log(u) for a series with constant term 1."""
    n = len(u)
    out = [0.0] * n
    for m in range(1, n):
        acc = u[m]
        for j in range(1, m):
            acc -= (j / m) * out[j] * u[m - j]
        out[m] = acc
    return out


def series_exp(v: list[float]) -> list[float]:
    """Coefficients of exp(v) for a series with constant term 0."""
    n = len(v)
    out = [0.0] * n
    out[0] = 1.0
    for m in range(1, n):
        acc = 0.0
        for j in range(1, m + 1):
            acc += (j / m) * v[j] * out[m - j]
        out[m] = acc
    return out


def power_via_exp_log(u: list[float], s: float) -> list[float]:
    """Coefficients of u**s computed as exp(s * log(u))."""
    return series_exp([s * c for c in series_log(u)])


def fractional_power(u: list[float], s: float) -> list[float]:
    """Coefficients of u**s for a series u with constant term exactly 1.

    Uses the standard power recurrence: differentiate h = u**s to get
    u h' = s u' h and match coefficients, which yields each h[m] from the
    earlier ones in O(K^2) total.
    """
    n = len(u)
    h = [0.0] * n
    h[0] = 1.0
    for m in range(1, n):
        acc = 0.0
        for j in range(1, m + 1):
            acc += ((s + 1.0) * j - m) * u[j] * h[m - j]
        h[m] = acc / m
    return h


def nested_expansion(params: list[float], s: float, order: int) -> list[float]:
    """Taylor coefficients, through ``order``, of the nested-root form.

    The form is (1 + A1 x (1 + A2 x (... (1 + Ak x)**s ...)**s)**s with the
    same power s at every level.  Built from the innermost bracket outward;
    ``params`` must be non-empty.
    """
    n = order + 1
    u = [0.0] * n
    u[0] = 1.0
    if n > 1:
        u[1] = params[-1]
    for i in range(len(params) - 2, -1, -1):
        p = fractional_power(u, s)
        v = [0.0] * n
        v[0] = 1.0
        a = params[i]
        for j in range(1, n):
            v[j] = a * p[j - 1]
        u = v
    return fractional_power(u, s)


def nested_evaluate(
    params: list[float], s: float, x: float, integer_power: bool
) -> tuple[float, int]:
    """Evaluate the nested-root form at a point, innermost bracket outward.

    Returns ``(value, 0)`` on success.  If some bracket base is negative
    under a non-integer power, or zero under a negative power, returns
    ``(nan, depth)`` with the 1-based depth of the offending bracket.
    """
    k = len(params)
    u = 1.0 + params[k - 1] * x
    for m in range(k, 1, -1):
        if (u < 0.0 and not integer_power) or (u == 0.0 and s < 0.0):
            return (float("nan"), m)
        u = 1.0 + params[m - 2] * x * u**s
    if (u < 0.0 and not integer_power) or (u == 0.0 and s < 0.0):
        return (float("nan"), 1)
    return (u**s, 0)


def gamma(count: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error of n roundings."""
    return count * UNIT_ROUNDOFF / (1.0 - count * UNIT_ROUNDOFF)


def expansion_majorant(
    params: list[float], s: float, order: int
) -> tuple[float, int]:
    """Rounding bound ingredients for coefficient ``order`` of the nested form.

    Runs the recurrence of ``nested_expansion`` above on absolute values,
    with the factor ``(s + 1) j - m`` majorised by ``(|s| + 1) j + m``:
    ``s + 1`` is rounded, so the cancellation in that factor cannot be
    relied on for small ``|s|``.  Alongside, it counts the roundings N in the longest product-and-sum chain, with the operations
    in that function's order (three for the factor, two products, one per
    addition after the first, one for the division).  The computed
    coefficient then lies within ``gamma(N) * M`` of the exact one, where M
    is the returned majorant.
    """
    n = order + 1

    def power(u: list[tuple[float, int]]) -> list[tuple[float, int]]:
        h = [(1.0, 0)] + [(0.0, 0)] * (n - 1)
        for m in range(1, n):
            acc, count = 0.0, 0
            for j in range(1, m + 1):
                acc += ((abs(s) + 1.0) * j + m) * u[j][0] * h[m - j][0]
                term = 3 + u[j][1] + 1 + h[m - j][1] + 1
                count = term if j == 1 else max(count, term) + 1
            h[m] = (acc / m, count + 1)
        return h

    u = [(1.0, 0)] + [(0.0, 0)] * (n - 1)
    if n > 1:
        u[1] = (abs(params[-1]), 0)
    for a in reversed(params[:-1]):
        p = power(u)
        u = [(1.0, 0)] + [
            (abs(a) * p[j - 1][0], p[j - 1][1] + 1) for j in range(1, n)
        ]
    return power(u)[order]


def exact_expansion_coefficient(
    params: list[float], s: float, order: int
) -> Fraction:
    """Coefficient ``order`` of the nested form in exact rational arithmetic.

    Same recurrence as ``nested_expansion``, but every float input is taken at its
    exact binary value and no operation rounds.
    """
    n = order + 1
    s = Fraction(s)

    def power(u: list[Fraction]) -> list[Fraction]:
        h = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for m in range(1, n):
            terms = (((s + 1) * j - m) * u[j] * h[m - j] for j in range(1, m + 1))
            h[m] = sum(terms) / m
        return h

    u = [Fraction(1)] + [Fraction(0)] * (n - 1)
    if n > 1:
        u[1] = Fraction(params[-1])
    for a in reversed(params[:-1]):
        p = power(u)
        u = [Fraction(1)] + [Fraction(a) * p[j - 1] for j in range(1, n)]
    return power(u)[order]


def reference_fit(series: TruncatedSeries, power: float) -> ContinuedRootApproximant:
    """Fit a nested-root form whose expansion matches the series exactly.

    Matching proceeds order by order: with A1..A(n-1) fixed, the n-th Taylor
    coefficient of the nested form is an affine function of A_n, so each
    step solves one linear equation built from two trial expansions.  The
    resulting depth equals the series order.
    """
    coeffs = series.coeffs
    if coeffs[0] != 1.0:
        raise ValueError(
            f"fit requires a series normalised to constant term 1, got {coeffs[0]!r}"
        )
    if series.order < 1:
        raise ValueError("fit needs at least the linear coefficient")
    if power == 0.0:
        raise ValueError("nesting power must be non-zero")
    if coeffs[1] == 0.0:
        raise DegenerateSeriesError(
            "linear coefficient is zero; the parameter chain has no anchor"
        )
    slope_floor = SLOPE_TOLERANCE * max(1.0, abs(coeffs[1]))
    params: list[float] = []
    for n in range(1, series.order + 1):
        at_zero = nested_expansion(params + [0.0], power, n)[n]
        at_one = nested_expansion(params + [1.0], power, n)[n]
        slope = at_one - at_zero
        if abs(slope) < slope_floor:
            raise VanishingSensitivityError(n, slope)
        params.append((coeffs[n] - at_zero) / slope)
    return ContinuedRootApproximant(power, tuple(params))
