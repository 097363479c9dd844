"""Independent reference implementations used only by the tests.

``power`` runs the package's one series-power recurrence, ``_power``, on
a series with constant term 1.  ``power_via_exp_log`` goes through
exp(s * log(u)), a different recurrence, so agreement between the two is
a real cross-check rather than a tautology.

The nested-expansion helpers bound the float64 rounding error of the
expansion by a running error analysis (Higham, *Accuracy and Stability of
Numerical Algorithms*, section 3.3), so tests can derive tolerances from the
arithmetic instead of tuning them; the exact value they are checked against
is the package's own recurrence run on ``Fraction`` inputs.

``fractional_power``, ``nested_expansion`` and ``nested_evaluate`` are
the package's former kernels, kept verbatim: each rebuilds its result
from scratch, level by level, so ``expand``, ``evaluate`` and ``power``
must reproduce them bit for bit.
``reference_fit`` peels the form from the outside in, each level a full
``fractional_power`` of the remainder at exponent 1/s, as the reference
that ``fit`` must reproduce bit for bit; ``affine_fit`` solves order by
order instead, in any arithmetic, as the high-precision oracle.
``string_coefficients_exact`` is the former generator of fluid_string's
rational coefficients, a running binomial in ``Fraction`` arithmetic.

``product`` is the Cauchy product of two series of one order, truncated
to that order, the inverse check of ``power``: u**s * u**-s = 1.

``reference_parser`` is the CLI's former argparse parser, built option by
option, kept verbatim: the parser that ``cli.build_parser`` builds from its
option table must print the same help, and ``cli._read`` must give the same
namespace for every argv it accepts.

``power_in_domain`` states the nesting power's domain, -1 <= s < 1 and
s != 0, apart from the package, and ``assert_power_rejected`` checks that
every entry point that takes a power rejects one outside it alike.
"""

from __future__ import annotations

import argparse
import math
import re
from fractions import Fraction

import pytest

from continued_roots.approximant import (
    ContinuedRootApproximant,
    finite_order_exponent,
    fit,
    fit_sequence,
)
from continued_roots.errors import VanishingSensitivityError
from continued_roots.series import TruncatedSeries, _factors, _power

UNIT_ROUNDOFF = 2.0**-53


def power_in_domain(s: float) -> bool:
    """True for a nesting power the package accepts: -1 <= s < 1, s != 0."""
    return -1.0 <= s < 1.0 and s != 0.0


def assert_power_rejected(power) -> None:
    """Every entry point that takes a nesting power rejects this one with
    the same ValueError, raised by the one private check."""
    series = TruncatedSeries((1.0, 0.5, 0.1))
    calls = [
        lambda: fit(series, power),
        lambda: fit_sequence(series, power, [1, 2]),
        lambda: ContinuedRootApproximant(power, (1.0, 0.5)),
        lambda: finite_order_exponent(power, 2),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert "_check_power" in [entry.name for entry in excinfo.traceback]
        messages.add(str(excinfo.value))
    assert len(messages) == 1, messages


def power(coeffs, s: float) -> list[float]:
    """Coefficients 0..K of u**s from coefficients 0..K of u, whose constant
    term must be 1: one run of the package's ``_power``."""
    assert coeffs[0] == 1, coeffs
    return _power(coeffs[1:], _factors(s, len(coeffs)))


def product(left: TruncatedSeries, right: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to the common order.

    Both operands must be series of the same order; mixing orders would
    silently drop information, so it is an error instead.
    """
    if not (isinstance(left, TruncatedSeries) and isinstance(right, TruncatedSeries)):
        raise TypeError("the product takes two truncated series")
    if left.order != right.order:
        raise ValueError(
            f"cannot multiply series of different orders "
            f"({left.order} and {right.order})"
        )
    a, b = left.coeffs, right.coeffs
    n = len(a)
    out = [0.0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return TruncatedSeries(tuple(out))


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


def _up(x: float) -> float:
    """The float after x.  A float64 operation on non-negative values,
    rounded to nearest and then moved up by this, bounds the exact result
    from above, so error bounds are not lowered by their own rounding."""
    return math.nextafter(x, math.inf)


class Bounded:
    """A float64 value with a bound on its distance from the exact value of
    the expression that computed it, the inputs taken at their exact binary
    values: a running error analysis (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 3.3) carried by the arithmetic.

    Each operation gives the float64 result z of the same operation on the
    values, so code run on Bounded inputs computes its float bits, and the
    bound of z: the bounds of the operands propagated through it, plus
    u|z| for its own rounding (fl(x op y) = (x op y) / (1 + delta) with
    |delta| <= u, Higham's (2.5)) and the smallest subnormal for an
    underflow.  Floats and ints mixed in are exact.  Division is only by an
    exact divisor, which is all the expansion recurrence needs.
    """

    __slots__ = ("value", "error")

    def __init__(self, value: float, error: float = 0.0):
        self.value, self.error = value, error

    @staticmethod
    def of(x) -> "Bounded":
        return x if isinstance(x, Bounded) else Bounded(float(x))

    @staticmethod
    def _rounded(z: float, *propagated: float) -> "Bounded":
        error = 0.0
        for e in (*propagated, _up(UNIT_ROUNDOFF * abs(z)), 5e-324):
            error = _up(error + e)
        return Bounded(z, error)

    def __add__(self, other) -> "Bounded":
        other = Bounded.of(other)
        return Bounded._rounded(self.value + other.value, self.error, other.error)

    def __sub__(self, other) -> "Bounded":
        other = Bounded.of(other)
        return Bounded._rounded(self.value - other.value, self.error, other.error)

    def __mul__(self, other) -> "Bounded":
        # |x y - x' y'| <= |x| e_y + |y| e_x + e_x e_y for exact x', y'
        other = Bounded.of(other)
        (a, ea), (b, eb) = (self.value, self.error), (other.value, other.error)
        return Bounded._rounded(
            a * b, _up(abs(a) * eb), _up(abs(b) * ea), _up(ea * eb)
        )

    def __truediv__(self, other) -> "Bounded":
        other = Bounded.of(other)
        assert other.error == 0.0, "division only by an exact divisor"
        return Bounded._rounded(
            self.value / other.value, _up(self.error / abs(other.value))
        )

    def __radd__(self, other) -> "Bounded":
        return Bounded.of(other) + self

    def __rsub__(self, other) -> "Bounded":
        return Bounded.of(other) - self

    def __rmul__(self, other) -> "Bounded":
        return Bounded.of(other) * self


def expansion_with_error(
    params: list[float], s: float, order: int
) -> tuple[float, float]:
    """Coefficient ``order`` of the nested form with a running error bound.

    Runs ``nested_expansion`` above, unchanged, on ``Bounded`` inputs: the
    value has its float bits, and the exact coefficient lies within the
    returned bound of it.  The bound is formed from the values the
    computation meets, so it sees the cancellation in ``(s + 1) j - m``
    and between terms, which an a-priori majorant cannot.
    """
    coeff = Bounded.of(
        nested_expansion([Bounded(a) for a in params], Bounded(s), order)[order]
    )
    return coeff.value, coeff.error


def reference_fit(series: TruncatedSeries, power: float) -> ContinuedRootApproximant:
    """Fit a nested-root form whose expansion matches the series exactly.

    With g the series, each level takes p = g**(1/s) at full length: the
    level's parameter is p[1], and the next g is 1 followed by p[2:]
    divided by it.  The chain is cut, at the order that cannot be solved,
    by a parameter that is not finite or by a zero one with levels left.
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
    g = list(coeffs)
    params: list[float] = []
    for n in range(1, series.order + 1):
        p = fractional_power(g, 1.0 / power)
        a = p[1]
        if not math.isfinite(a):
            raise VanishingSensitivityError(n, a)
        params.append(a)
        if n < series.order:
            if a == 0.0:
                raise VanishingSensitivityError(n + 1, a)
            g = [1.0] + [x / a for x in p[2:]]
    return ContinuedRootApproximant(power, tuple(params))


def affine_fit(coeffs: list, s) -> list:
    """Parameters A1..AK of the nested form whose expansion matches c0..cK,
    solved order by order in the arithmetic of the inputs (mpmath numbers
    for a high-precision fit).

    With A1..A(n-1) fixed, coefficient n is affine in A_n with the slope
    s**n A1...A(n-1), so A_n is (c_n - its value at A_n = 0) / slope: a
    different algorithm from the peel of ``fit`` and ``reference_fit``.
    """
    params: list = []
    slope = s
    for n in range(1, len(coeffs)):
        at_zero = nested_expansion(params + [0 * s], s, n)[n]
        a = (coeffs[n] - at_zero) / slope
        params.append(a)
        slope *= s * a
    return params


def string_coefficients_exact(order: int) -> list[Fraction]:
    """Exact rational Taylor coefficients of the string closed form.

    Only three terms sit outside the square root; the rest follow from the
    binomial series of sqrt(1 + g**2/64) shifted by the g/4 prefactor, so
    every coefficient is an exact dyadic rational.
    """
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    if order >= 2:
        coeffs[2] = Fraction(1, 32)
    binom = Fraction(1)  # running value of C(1/2, m)
    m = 0
    while 2 * m + 1 <= order:
        coeffs[2 * m + 1] += binom / (4 * 64**m)
        m += 1
        binom *= (Fraction(1, 2) - (m - 1)) / m
    return coeffs


class _ReferenceParser(argparse.ArgumentParser):
    """Raises usage errors, so that ``main`` prints them as JSON errors.

    Every negative float literal (``-1e5``, ``-inf``, ``-nan``) is read as a
    value, not as an option, so the command's own check names the fault;
    argparse alone reads only ``-N`` and ``-N.N`` as numbers.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def reference_parser() -> argparse.ArgumentParser:
    parser = _ReferenceParser(
        prog="continued-roots",
        description="Extrapolate small-argument expansions to large-argument "
        "power laws with continued-root approximants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser(
        "fit", help="fit one approximant and print its parameters"
    )
    _add_source_arguments(p_fit)
    p_fit.add_argument(
        "--order", type=int, required=True, help="nesting depth k"
    )

    p_table = sub.add_parser(
        "table", help="fit depths 2..kmax and print the extrapolation report"
    )
    _add_source_arguments(p_table)
    p_table.add_argument(
        "--kmax", type=int, required=True, help="largest nesting depth"
    )
    p_table.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output rendering (default: table)",
    )
    p_table.add_argument(
        "--out", help="write the rendering to this path instead of stdout"
    )

    p_eval = sub.add_parser(
        "eval", help="evaluate a fitted approximant at given points"
    )
    _add_source_arguments(p_eval)
    p_eval.add_argument("--order", type=int, required=True, help="nesting depth k")
    p_eval.add_argument(
        "--x",
        type=float,
        nargs="+",
        required=True,
        help="one or more evaluation points (x >= 0)",
    )

    p_diag = sub.add_parser(
        "diagnose", help="print the boundedness certificate for a fit"
    )
    _add_source_arguments(p_diag)
    p_diag.add_argument("--order", type=int, required=True, help="nesting depth k")
    p_diag.add_argument(
        "--L",
        type=float,
        default=100.0,
        dest="variable_bound",
        help="right end of the argument interval (default: 100)",
    )

    p_pade = sub.add_parser(
        "pade-check",
        help="check that the power -1 form equals its rational reduction",
    )
    p_pade.add_argument("--order", type=int, required=True, help="nesting depth k")
    p_pade.add_argument(
        "--seed", type=int, default=0, help="seed for the random parameters"
    )
    return parser


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", help="name of a built-in problem")
    group.add_argument("--file", help="path to a JSON problem file")
