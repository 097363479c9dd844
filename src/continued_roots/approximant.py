"""Continued-root approximants: construction, fitting, and asymptotics.

The central object is a nested form with one repeated power s,

    f(x) = (1 + A1 x (1 + A2 x (... (1 + Ak x)**s ...)**s)**s,

whose small-x expansion can match a given Taylor series order by order and
whose large-x behaviour is a clean power law.  Choosing s = beta/(1 + beta)
makes that power law carry a prescribed target exponent beta in the limit
of infinite nesting depth.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from ._record import Record, _set
from .errors import (
    ComplexBreakdownError,
    DegenerateSeriesError,
    RealnessError,
    VanishingSensitivityError,
)
from .series import TruncatedSeries, _Expansion, _finite_float

# Affine slopes below this (relative to the linear coefficient) are treated
# as exactly zero when solving for a parameter.
SLOPE_TOLERANCE = 1e-13


def exponent_to_power(exponent: float) -> float:
    """Nesting power s that realises a large-argument exponent beta.

    Defined as beta / (1 + beta); requires a finite beta > -1/2 so that
    |s| < 1 and the infinite-depth construction converges, and one small
    enough that s does not round to 1.
    """
    if not -0.5 < exponent < math.inf:
        if -math.inf < exponent < math.inf:
            raise ValueError(f"target exponent must exceed -1/2, got {exponent!r}")
        raise ValueError(f"target exponent must be finite, got {exponent!r}")
    # from about 9.007e15 up, s rounds to 1; past 2**63, skip the sum that
    # overflows for an int beyond the float range
    power = exponent / (1.0 + exponent) if exponent < 2.0**63 else 1.0
    if not power < 1.0:
        raise ValueError(
            f"target exponent must leave beta / (1 + beta) below 1, got {exponent!r}"
        )
    return power


def power_to_exponent(power: float) -> float:
    """Large-argument exponent realised by a nesting power s, s / (1 - s)."""
    if not abs(power) < 1.0:
        raise ValueError(f"nesting power must satisfy |s| < 1, got {power!r}")
    return power / (1.0 - power)


def _check_power(power: float) -> float:
    """The nesting power as a float, or ValueError unless it is finite,
    non-zero and -1 <= s < 1: the paper's s = beta / (1 + beta), beta > -1/2,
    with its continued-fraction case s = -1."""
    s = _finite_float(power, "nesting power must be finite")
    if s == 0.0:
        raise ValueError("nesting power must be non-zero")
    if not -1.0 <= s < 1.0:
        raise ValueError(f"nesting power must satisfy -1 <= s < 1, got {power!r}")
    return s


def finite_order_exponent(power: float, order: int) -> float:
    """Exponent of the order-k form: the geometric sum s + s^2 + ... + s^k.

    Evaluated in closed form as (s - s**(k+1)) / (1 - s), which tends to the
    infinite-depth exponent s / (1 - s).  The power is checked as ``fit``
    checks it; in that domain the quotient is at most 2**54.  Raises
    ValueError, naming the order, when the order leaves the float range.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    s = _check_power(power)
    try:
        return (s - s ** (order + 1)) / (1.0 - s)
    except OverflowError:
        raise ValueError(f"order {order} leaves the float range") from None


def _require_positive(
    params: Sequence[float], subject: str, start: int = 0
) -> None:
    """Raise RealnessError naming the first parameter after the first
    ``start`` that is not > 0."""
    for n, a in enumerate(params[start:], start + 1):
        if not a > 0.0:
            raise RealnessError(
                f"{subject} requires strictly positive parameters; "
                f"parameter {n} is {a!r}"
            )


def _power_law(
    params: Sequence[float], s: float, done: int = 0, b: float = 1.0
) -> AmplitudeResult:
    """Large-argument law of the form with these parameters and power s.

    ``b`` is the product of A_n**(s**n) over the first ``done`` parameters,
    which must be known to be positive.  The rest are checked, and then
    their factors are multiplied in, outermost first, so B_k continues from
    B_done with the operations that build it from 1.  Raises ValueError,
    naming the depth, when a factor (a subnormal parameter under s near -1)
    or the product leaves the float range.
    """
    _require_positive(params, "amplitude", done)
    try:
        for n, a in enumerate(params[done:], done + 1):
            b *= a ** (s**n)
            if b == math.inf:
                raise ValueError(f"the amplitude at depth {n} leaves the float range")
    except OverflowError:
        raise ValueError(
            f"the amplitude factor at depth {n} leaves the float range"
        ) from None
    return AmplitudeResult(b, finite_order_exponent(s, len(params)), len(params))


class ExponentTarget(Record):
    """Known large-argument behaviour an extrapolation should reproduce.

    ``exponent`` is the true power of growth; ``amplitude`` is the true
    prefactor of x**exponent when it is known, used as the error baseline,
    so it must be finite and non-zero.
    """

    __slots__ = ("exponent", "amplitude")

    def __init__(self, exponent: float, amplitude: float | None = None):
        exponent_to_power(exponent)  # raises unless finite and > -1/2
        if amplitude == 0.0:
            raise ValueError(f"known amplitude must be non-zero, got {amplitude!r}")
        if amplitude is not None and not -math.inf < amplitude < math.inf:
            raise ValueError(f"known amplitude must be finite, got {amplitude!r}")
        _set(self, "exponent", exponent)
        _set(self, "amplitude", amplitude)

    @property
    def power(self) -> float:
        return exponent_to_power(self.exponent)


class AmplitudeResult(Record):
    """Large-argument power law of one approximant: amplitude * x**exponent."""

    __slots__ = ("amplitude", "exponent", "order")

    def estimate(self, target_exponent: float, match_point: float = 1.0) -> float:
        """This law converted to one of x**target_exponent at ``match_point``.

        B_k * match_point**(beta_k - target); B_k itself at match point 1.
        Raises ValueError, naming the depth, when the conversion or its
        product with a finite B_k leaves the float range.
        """
        try:
            estimate = self.amplitude * match_point ** (self.exponent - target_exponent)
            if not math.isinf(estimate) or math.isinf(self.amplitude):
                return estimate
        except OverflowError:
            pass
        raise ValueError(
            f"the estimate at depth {self.order} leaves the float range "
            f"at match point {match_point!r}"
        )


class _Expanded:
    """Private base of ContinuedRootApproximant: a slot, outside the record's
    fields, for the Taylor coefficients c0..cK that a fit at depth K
    computed, which its prefixes share.  ``fit`` and ``_prefix`` set it,
    once; on a form built any other way, a copy or an unpickled form
    included, it stays unset."""

    __slots__ = ("_taylor",)


class ContinuedRootApproximant(Record, _Expanded):
    """A fitted (or hand-built) nested-root form of fixed depth.

    ``params`` holds A1..Ak from the outermost bracket inward.  The form is
    real-valued on x >= 0 exactly when every parameter is non-negative.
    The power must be non-zero with -1 <= s < 1, as in ``fit``.
    """

    __slots__ = ("power", "params")

    def __init__(self, power: float, params: tuple[float, ...]):
        if len(params) < 1:
            raise ValueError("an approximant needs at least one parameter")
        _set(self, "params", tuple(map(float, params)))
        _set(self, "power", _check_power(power))

    @property
    def order(self) -> int:
        """Nesting depth k."""
        return len(self.params)

    def _prefix(self, k: int) -> "ContinuedRootApproximant":
        """The fitted form of A1..Ak at the same power.  It shares this
        fitted form's expansion, which through order k is its own."""
        prefix = object.__new__(self.__class__)
        _set(prefix, "power", self.power)
        _set(prefix, "params", self.params[:k])
        _set(prefix, "_taylor", self._taylor)
        return prefix

    @property
    def is_real_valued(self) -> bool:
        """True when the form stays real for all x >= 0."""
        return all(a >= 0.0 for a in self.params)

    def expand(self, order: int) -> TruncatedSeries:
        """Small-argument Taylor expansion through the given order.

        The expansion is exact in the formal sense: coefficients beyond the
        nesting depth are the ones induced by the closed form, not zero.  A
        fitted form returns the coefficients its fit stored, through its
        depth; they are bit for bit those of ``nested_expansion``, which
        every other order and form runs.
        """
        if order < 0:
            raise ValueError(f"expansion order must be non-negative, got {order}")
        taylor = getattr(self, "_taylor", None)
        if taylor and order <= len(self.params):
            return TruncatedSeries(taylor[: order + 1])
        return TruncatedSeries(tuple(nested_expansion(self.params, self.power, order)))

    def evaluate(self, x: float) -> float:
        """Value of the nested form at x >= 0.

        Raises ComplexBreakdownError, naming the offending depth, if a
        negative parameter drives some bracket base negative under a
        non-integer power, and ValueError, naming x, if x is negative or not
        finite.  No bracket's power overflows: a positive base is at least
        2**-53, and -1 <= s < 1.
        """
        if not 0.0 <= x < math.inf:
            if x < 0.0:
                raise ValueError(f"argument must be non-negative, got {x!r}")
            raise ValueError(f"argument must be finite, got {x!r}")
        return nested_evaluate(self.params, self.power, float(x))

    def amplitude(self) -> AmplitudeResult:
        """Large-argument power law of this form.

        The amplitude is the product of A_n**(s**n) over the depth, and the
        exponent is the finite geometric sum of powers.  All parameters must
        be strictly positive for the fractional powers to be real.  Raises
        ValueError, naming the depth, when a factor or the product leaves the
        float range.
        """
        return _power_law(self.params, self.power)

    def asymptote(self, x: float) -> float:
        """Value of the large-argument power law at a point x > 0."""
        if not x > 0.0:
            raise ValueError(f"asymptote requires x > 0, got {x!r}")
        result = self.amplitude()
        return result.amplitude * x**result.exponent

    def to_rational(self) -> tuple[list[float], list[float]]:
        """Collapse the s = -1 form into a ratio of polynomials.

        Returns (numerator, denominator) coefficient lists in ascending
        powers.  Both have constant term 1; the numerator has degree
        floor(k/2) and the denominator ceil(k/2).  Only defined for
        power exactly -1, where every bracket is a reciprocal.
        """
        if self.power != -1.0:
            raise ValueError(
                f"rational reduction requires power -1, got {self.power!r}"
            )
        # Track the innermost-so-far bracket value as p(x)/q(x); wrapping
        # with parameter a maps it to (p + a x q)/p, and the final outer
        # reciprocal swaps the pair.
        p = [1.0, self.params[-1]]
        q = [1.0]
        for a in reversed(self.params[:-1]):
            shifted = [0.0] + [a * c for c in q]
            width = max(len(p), len(shifted))
            merged = [0.0] * width
            for i, c in enumerate(p):
                merged[i] += c
            for i, c in enumerate(shifted):
                merged[i] += c
            p, q = merged, p
        return q, p


def nested_expansion(params: Sequence[float], s: float, order: int) -> list[float]:
    """Taylor coefficients c0..c_order of the nested form (params non-empty).

    Past the depth no level is added and the innermost bracket contributes 0.
    """
    if not order:
        return [1.0]
    expansion = _Expansion(s, params[:-1])
    t = 0.0  # order 1 stores nothing
    for n in range(order):  # order n + 1 stores order n's coefficient t
        expansion.step(t)
        t = params[n] if n < len(params) else 0.0
    return list(expansion.coefficients(t))


def nested_evaluate(params: Sequence[float], s: float, x: float) -> float:
    """Value of the nested form at x, innermost bracket outward.

    Raises ComplexBreakdownError with the 1-based depth of the first bracket
    whose base is negative under a non-integer power or zero under a
    negative power.
    """
    h, depth = 1.0, len(params)
    for a in reversed(params):
        u = 1.0 + a * x * h
        if not u > 0.0:
            if (u < 0.0 and not float(s).is_integer()) or (u == 0.0 and s < 0.0):
                raise ComplexBreakdownError(depth, x)
        h = u**s
        depth -= 1
    return h


def _fit_power(series: TruncatedSeries, power: float) -> float:
    """Check the arguments of ``fit`` and return the power as a float."""
    coeffs = series.coeffs
    if coeffs[0] != 1.0:
        raise ValueError(
            f"fit requires a series normalised to constant term 1, got {coeffs[0]!r}"
        )
    if series.order < 1:
        raise ValueError("fit needs at least the linear coefficient")
    s = _check_power(power)
    for n, c in enumerate(coeffs):
        if not math.isfinite(c):
            raise ValueError(f"fit requires finite coefficients; c{n} is {c!r}")
    if coeffs[1] == 0.0:
        raise DegenerateSeriesError(
            "linear coefficient is zero; the parameter chain has no anchor"
        )
    return s


def fit(series: TruncatedSeries, power: float) -> ContinuedRootApproximant:
    """Fit a nested-root form whose expansion matches the series exactly.

    Matching proceeds order by order: with A1..A(n-1) fixed, the n-th Taylor
    coefficient of the nested form is an affine function of A_n, read off at
    the trials A_n = 0 and A_n = 1 and solved for the series coefficient.
    The resulting depth equals the series order.  Order n is one walk over
    the levels of the expansion that ``expand`` runs: the two trials share
    every sum but each level's new coefficient, so order n costs about
    n**2 / 2 multiply-adds and the fit O(K**3), and the trial values, the
    slope and every parameter are bit for bit those of two full expansions
    per order.  One more walk, O(K), reads the form's coefficient K, and
    the form keeps the expansion c0..cK so built: its ``expand`` through
    order K reads it instead of walking again, with the same bits.

    Args:
        series: coefficients c0..cK with c0 = 1 and K >= 1.
        power: the repeated nesting power s, non-zero with -1 <= s < 1.

    Raises:
        DegenerateSeriesError: the linear coefficient is zero.
        VanishingSensitivityError: some coefficient no longer responds to
            its parameter (slope below tolerance), typically after an
            earlier parameter fitted to exactly zero.
        ValueError: c0 != 1, K < 1, a coefficient is not finite, or power
            is 0, not finite or outside -1 <= s < 1.
    """
    s = _fit_power(series, power)
    coeffs = series.coeffs
    slope_floor = SLOPE_TOLERANCE * max(1.0, abs(coeffs[1]))
    expansion = _Expansion(s, [])
    params = expansion.params
    a = 0.0  # order 1 stores nothing
    for n in range(1, len(coeffs)):
        at_zero, at_one = expansion.step(a)
        slope = at_one - at_zero
        if abs(slope) < slope_floor:
            raise VanishingSensitivityError(n, slope)
        a = (coeffs[n] - at_zero) / slope
        params.append(a)
    # the fields are floats already, so the constructor's coercion is skipped
    fitted = object.__new__(ContinuedRootApproximant)
    _set(fitted, "power", s)
    _set(fitted, "params", tuple(params))
    _set(fitted, "_taylor", expansion.coefficients(a))
    return fitted


def fit_sequence(
    series: TruncatedSeries, power: float, orders: Iterable[int]
) -> list[ContinuedRootApproximant]:
    """One approximant per requested depth, from truncations of a series.

    The parameters at depth k are the first k of every deeper fit, so one
    fit at the largest requested depth serves them all, and its stored
    expansion through order k serves each depth-k form's ``expand``.
    """
    orders = list(orders)
    for k in orders:
        if k > series.order:
            raise ValueError(
                f"depth {k} exceeds the available series order {series.order}"
            )
        if k < 1:
            raise ValueError(f"depth must be at least 1, got {k}")
    if not orders:
        return []
    deepest = fit(TruncatedSeries(series.coeffs[: max(orders) + 1]), power)
    return [deepest._prefix(k) for k in orders]
