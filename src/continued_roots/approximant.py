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
from collections.abc import Iterable, Iterator, Sequence

from ._record import Record, _set
from .errors import (
    ComplexBreakdownError,
    DegenerateSeriesError,
    RealnessError,
    VanishingSensitivityError,
)
from .series import TruncatedSeries, _Expansion

# Affine slopes below this (relative to the linear coefficient) are treated
# as exactly zero when solving for a parameter.
SLOPE_TOLERANCE = 1e-13


def exponent_to_power(exponent: float) -> float:
    """Nesting power s that realises a large-argument exponent beta.

    Defined as beta / (1 + beta); requires a finite beta > -1/2 so that
    |s| < 1 and the infinite-depth construction converges.
    """
    if not -0.5 < exponent < math.inf:
        if -math.inf < exponent < math.inf:
            raise ValueError(f"target exponent must exceed -1/2, got {exponent!r}")
        raise ValueError(f"target exponent must be finite, got {exponent!r}")
    return exponent / (1.0 + exponent)


def power_to_exponent(power: float) -> float:
    """Large-argument exponent realised by a nesting power s, s / (1 - s)."""
    if not abs(power) < 1.0:
        raise ValueError(f"nesting power must satisfy |s| < 1, got {power!r}")
    return power / (1.0 - power)


def finite_order_exponent(power: float, order: int) -> float:
    """Exponent of the order-k form: the geometric sum s + s^2 + ... + s^k.

    Evaluated in closed form as (s - s**(k+1)) / (1 - s).  Tends to the
    infinite-depth exponent s / (1 - s) when |s| < 1.  Raises ValueError,
    naming the order, when the exponent leaves the float range (only
    |s| > 1).
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if power == 1.0:
        return float(order)
    try:
        exponent = (power - power ** (order + 1)) / (1.0 - power)
        if math.isfinite(exponent):
            return exponent
    except OverflowError:
        pass
    raise ValueError(f"the exponent of order {order} leaves the float range")


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
    naming the depth, when a factor (only |s| > 1) or the product leaves the
    float range.
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
        Raises ValueError, naming the depth, when the conversion leaves the
        float range.
        """
        try:
            return self.amplitude * match_point ** (self.exponent - target_exponent)
        except OverflowError:
            raise ValueError(
                f"the estimate at depth {self.order} leaves the float range "
                f"at match point {match_point!r}"
            ) from None


class ContinuedRootApproximant(Record):
    """A fitted (or hand-built) nested-root form of fixed depth.

    ``params`` holds A1..Ak from the outermost bracket inward.  The form is
    real-valued on x >= 0 exactly when every parameter is non-negative.
    """

    __slots__ = ("power", "params")

    def __init__(self, power: float, params: tuple[float, ...]):
        if len(params) < 1:
            raise ValueError("an approximant needs at least one parameter")
        _set(self, "params", tuple(map(float, params)))
        _set(self, "power", float(power))

    @property
    def order(self) -> int:
        """Nesting depth k."""
        return len(self.params)

    def _prefix(self, k: int) -> "ContinuedRootApproximant":
        """The form of A1..Ak at the same power, without coercing again."""
        prefix = object.__new__(self.__class__)
        _set(prefix, "power", self.power)
        _set(prefix, "params", self.params[:k])
        return prefix

    @property
    def is_real_valued(self) -> bool:
        """True when the form stays real for all x >= 0."""
        return all(a >= 0.0 for a in self.params)

    def expand(self, order: int) -> TruncatedSeries:
        """Small-argument Taylor expansion through the given order.

        The expansion is exact in the formal sense: coefficients beyond the
        nesting depth are the ones induced by the closed form, not zero.
        """
        if order < 0:
            raise ValueError(f"expansion order must be non-negative, got {order}")
        return TruncatedSeries(tuple(nested_expansion(self.params, self.power, order)))

    def evaluate(self, x: float) -> float:
        """Value of the nested form at x >= 0.

        Raises ComplexBreakdownError, naming the offending depth, if a
        negative parameter drives some bracket base negative under a
        non-integer power, and ValueError, naming x, if x is negative or not
        finite or a bracket's power leaves the float range (possible only for
        |s| > 1).
        """
        if not 0.0 <= x < math.inf:
            if x < 0.0:
                raise ValueError(f"argument must be non-negative, got {x!r}")
            raise ValueError(f"argument must be finite, got {x!r}")
        try:
            return nested_evaluate(self.params, self.power, float(x))
        except OverflowError:
            raise ValueError(f"the value at x = {x!r} leaves the float range") from None

    def amplitude(self) -> AmplitudeResult:
        """Large-argument power law of this form.

        The amplitude is the product of A_n**(s**n) over the depth, and the
        exponent is the finite geometric sum of powers.  All parameters must
        be strictly positive for the fractional powers to be real.  Raises
        ValueError, naming the depth, when a factor or the product leaves the
        float range, and naming the order when the exponent does.
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
    expansion.frontier(t)
    return [1.0, *reversed(expansion.hs[0])]


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


def fit_parameters(series: TruncatedSeries, power: float) -> Iterator[float]:
    """Yield the fitted parameters A1, A2, ... of ``series``, one per order.

    The n-th value is the one ``fit`` returns at any depth >= n, so a
    caller can stop early or keep the prefix fitted before a failure; the
    error for order n is raised when the n-th value is requested.  Arguments
    and errors are those of ``fit``.  Order n adds level A_n to the
    expansion that ``expand`` runs and walks its levels once: at each level
    it stores order n - 1 at the solved A_(n-1), then forms order n's sums
    and reads the form's coefficient n at A_n = 0 and 1.  The last order is
    never stored.  Only each level's new coefficient depends on A_n, so both
    trials share the sums that do not: order n costs about n**2 / 2
    multiply-adds, the fit O(K**3).
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
    if not math.isfinite(power):
        raise ValueError(f"nesting power must be finite, got {power!r}")
    for n, c in enumerate(coeffs):
        if not math.isfinite(c):
            raise ValueError(f"fit requires finite coefficients; c{n} is {c!r}")
    if coeffs[1] == 0.0:
        raise DegenerateSeriesError(
            "linear coefficient is zero; the parameter chain has no anchor"
        )
    slope_floor = SLOPE_TOLERANCE * max(1.0, abs(coeffs[1]))
    params: list[float] = []
    expansion = _Expansion(power, params)
    a = 0.0  # order 1 stores nothing
    for n in range(1, series.order + 1):
        at_zero, at_one = expansion.step(a)
        slope = at_one - at_zero
        if abs(slope) < slope_floor:
            raise VanishingSensitivityError(n, slope)
        a = (coeffs[n] - at_zero) / slope
        params.append(a)
        yield a


def fit(series: TruncatedSeries, power: float) -> ContinuedRootApproximant:
    """Fit a nested-root form whose expansion matches the series exactly.

    Matching proceeds order by order: with A1..A(n-1) fixed, the n-th Taylor
    coefficient of the nested form is an affine function of A_n, read off at
    the trials A_n = 0 and A_n = 1 and solved for the series coefficient.
    The resulting depth equals the series order.  ``fit_parameters`` runs
    the solve incrementally, in one walk over the levels per order; the
    trial values, the slope and every parameter are bit for bit those of
    two full expansions per order.

    Args:
        series: coefficients c0..cK with c0 = 1 and K >= 1.
        power: the repeated nesting power s, finite and non-zero.

    Raises:
        DegenerateSeriesError: the linear coefficient is zero.
        VanishingSensitivityError: some coefficient no longer responds to
            its parameter (slope below tolerance), typically after an
            earlier parameter fitted to exactly zero.
        ValueError: c0 != 1, K < 1, a coefficient is not finite, or power
            is 0 or not finite.
    """
    return ContinuedRootApproximant(power, tuple(fit_parameters(series, power)))


def fit_sequence(
    series: TruncatedSeries, power: float, orders: Iterable[int]
) -> list[ContinuedRootApproximant]:
    """One approximant per requested depth, from truncations of a series.

    The parameters at depth k are the first k of every deeper fit, so one
    fit at the largest requested depth serves them all.
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
