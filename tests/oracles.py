"""Independent reference implementations used only by the tests.

The fractional power here goes through exp(s * log(u)), a different
recurrence from the production kernel, so agreement between the two is a
real cross-check rather than a tautology.

The nested-expansion helpers bound the float64 rounding error of the
kernel a priori (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 3) and evaluate it exactly in rational arithmetic, so
tests can derive tolerances from the arithmetic instead of tuning them.

``reference_fit`` is the order-by-order fit that runs two full nested
expansions per order, kept as the reference that the incremental ``fit``
must reproduce bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

from continued_roots import _kernels_py as kernels
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


def gamma(count: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error of n roundings."""
    return count * UNIT_ROUNDOFF / (1.0 - count * UNIT_ROUNDOFF)


def expansion_majorant(
    params: list[float], s: float, order: int
) -> tuple[float, int]:
    """Rounding bound ingredients for coefficient ``order`` of the nested form.

    Runs the kernel's recurrence (``nested_expansion`` in ``_kernels_py``)
    on absolute values, with the factor ``(s + 1) j - m`` majorised by
    ``(|s| + 1) j + m``: ``s + 1`` is rounded, so the cancellation in that
    factor cannot be relied on for small ``|s|``.  Alongside, it counts the
    roundings N in the longest product-and-sum chain, with the operations
    in the kernel's order (three for the factor, two products, one per
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

    Same recurrence as the kernel, but every float input is taken at its
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
        at_zero = kernels.nested_expansion(params + [0.0], power, n)[n]
        at_one = kernels.nested_expansion(params + [1.0], power, n)[n]
        slope = at_one - at_zero
        if abs(slope) < slope_floor:
            raise VanishingSensitivityError(n, slope)
        params.append((coeffs[n] - at_zero) / slope)
    return ContinuedRootApproximant(power, tuple(params))
