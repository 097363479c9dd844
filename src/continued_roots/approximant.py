"""Continued-root approximants: construction, fitting, and asymptotics.

The central object is a nested form with one repeated power s,

    f(x) = (1 + A1 x (1 + A2 x (... (1 + Ak x)**s ...)**s)**s,

whose small-x expansion can match a given Taylor series order by order and
whose large-x behaviour is a clean power law.  Choosing s = beta/(1 + beta)
makes that power law carry a prescribed target exponent beta in the limit
of infinite nesting depth.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from ._record import Record, _set
from .errors import (
    ComplexBreakdownError,
    DegenerateSeriesError,
    NoRealApproximantError,
    RealnessError,
    VanishingSensitivityError,
)
from .series import TruncatedSeries

# Affine slopes below this (relative to the linear coefficient) are treated
# as exactly zero when solving for a parameter.
SLOPE_TOLERANCE = 1e-13


def exponent_to_power(exponent: float) -> float:
    """Nesting power s that realises a large-argument exponent beta.

    Defined as beta / (1 + beta); requires beta > -1/2 so that |s| < 1 and
    the infinite-depth construction converges.
    """
    if not exponent > -0.5:
        raise ValueError(
            f"target exponent must exceed -1/2, got {exponent!r}"
        )
    return exponent / (1.0 + exponent)


def power_to_exponent(power: float) -> float:
    """Large-argument exponent realised by a nesting power s, s / (1 - s)."""
    if not abs(power) < 1.0:
        raise ValueError(f"nesting power must satisfy |s| < 1, got {power!r}")
    return power / (1.0 - power)


def finite_order_exponent(power: float, order: int) -> float:
    """Exponent of the order-k form: the geometric sum s + s^2 + ... + s^k.

    Evaluated in closed form as (s - s**(k+1)) / (1 - s).  Tends to the
    infinite-depth exponent s / (1 - s) when |s| < 1.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if power == 1.0:
        return float(order)
    return (power - power ** (order + 1)) / (1.0 - power)


class ExponentTarget(Record):
    """Known large-argument behaviour an extrapolation should reproduce.

    ``exponent`` is the true power of growth; ``amplitude`` is the true
    prefactor of x**exponent when it is known, used as the error baseline.
    """

    __slots__ = ("exponent", "amplitude")

    def __init__(self, exponent: float, amplitude: float | None = None):
        if not exponent > -0.5:
            raise ValueError(f"target exponent must exceed -1/2, got {exponent!r}")
        _set(self, "exponent", exponent)
        _set(self, "amplitude", amplitude)

    @property
    def power(self) -> float:
        return exponent_to_power(self.exponent)


class AmplitudeResult(Record):
    """Large-argument power law of one approximant: amplitude * x**exponent."""

    __slots__ = ("amplitude", "exponent", "order")

    def __init__(self, amplitude: float, exponent: float, order: int):
        _set(self, "amplitude", amplitude)
        _set(self, "exponent", exponent)
        _set(self, "order", order)

    def estimate(self, target_exponent: float, match_point: float = 1.0) -> float:
        """This law converted to one of x**target_exponent at ``match_point``.

        B_k * match_point**(beta_k - target); B_k itself at match point 1.
        """
        if match_point == 1.0:
            return self.amplitude
        return self.amplitude * match_point ** (self.exponent - target_exponent)


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
        non-integer power.
        """
        if x < 0.0:
            raise ValueError(f"argument must be non-negative, got {x!r}")
        return nested_evaluate(self.params, self.power, float(x))

    def amplitude(self) -> AmplitudeResult:
        """Large-argument power law of this form.

        The amplitude is the product of A_n**(s**n) over the depth, and the
        exponent is the finite geometric sum of powers.  All parameters must
        be strictly positive for the fractional powers to be real.
        """
        for n, a in enumerate(self.params, start=1):
            if a <= 0.0:
                raise RealnessError(
                    f"amplitude requires strictly positive parameters; "
                    f"parameter {n} is {a!r}"
                )
        s = self.power
        b = 1.0
        for n, a in enumerate(self.params, start=1):
            b *= a ** (s**n)
        return AmplitudeResult(b, finite_order_exponent(s, self.order), self.order)

    def asymptote(self, x: float) -> float:
        """Value of the large-argument power law at a point x > 0."""
        if not x > 0.0:
            raise ValueError(f"asymptote requires x > 0, got {x!r}")
        result = self.amplitude()
        return result.amplitude * x**result.exponent

    def amplitude_estimate(
        self, target_exponent: float, match_point: float = 1.0
    ) -> float:
        """Estimate of the amplitude of x**target_exponent.

        The finite-depth form grows like B_k * x**beta_k with beta_k short of
        the target; the estimate converts one law into the other by matching
        them at ``match_point``: B_k * match_point**(beta_k - target).  With
        the default match point 1 this is just B_k.
        """
        if not match_point > 0.0:
            raise ValueError(
                f"match point must be positive, got {match_point!r}"
            )
        return self.amplitude().estimate(target_exponent, match_point)

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


class _Expansion:
    """Taylor coefficients of the nested form, built one order at a time.

    Level i (0-based, outermost first) is the bracket U_i = 1 + A_i x H_(i+1)
    and its power H_i = U_i**s; ``us[i]`` and ``hs[i]`` hold the
    coefficients found so far.  Order n appends index m = n - i at every
    level, innermost first, by the recurrence of u h' = s u' h:
    h[m] = (sum over j = 1..m of ((s + 1) j - m) u[j] h[m - j]) / m, summed
    from 0.0 in ascending j.  ``begin`` sums the terms j < m once, so
    ``frontier`` can be run for several values of the innermost level's new
    bracket coefficient.  ``params`` holds A_i of every outer level.
    """

    def __init__(self, power: float, params: Sequence[float]):
        self.s1 = power + 1.0
        self.params = params
        self.us: list[list[float]] = []
        self.hs: list[list[float]] = []
        # factors[m][j] is the factor (s + 1) j - m of the recurrence
        self.factors: list[list[float]] = [[]]

    def begin(self, new_level: bool) -> None:
        """Start the next order, below a new innermost level if asked."""
        n = len(self.factors)
        self.factors.append([self.s1 * j - n for j in range(n + 1)])
        if new_level:
            self.us.append([1.0])
            self.hs.append([1.0])
        partial = self.partial = []
        for us, hs, f in zip(self.us, self.hs, reversed(self.factors)):
            # at level i, f is factors[n - i] and us, hs hold indices < n - i
            acc = 0.0
            for fj, u, h in zip(f[1:-1], us[1:], reversed(hs[1:])):
                acc += fj * u * h
            partial.append(acc)

    def frontier(self, t: float, store: bool) -> float:
        """Coefficient n of the whole form when the innermost level's new
        bracket coefficient is t; ``store`` appends each level's new ones."""
        factors, partial, params = self.factors, self.partial, self.params
        us, hs = self.us, self.hs
        n = len(factors) - 1
        innermost = len(partial) - 1
        h = 0.0
        for i in range(innermost, -1, -1):
            m = n - i
            u = t if i == innermost else params[i] * h
            # the j = m term; its H factor is h[0] = 1, so the product with
            # it, exact, is left out
            h = (partial[i] + factors[m][m] * u) / m
            if store:
                us[i].append(u)
                hs[i].append(h)
        return h


def nested_expansion(params: Sequence[float], s: float, order: int) -> list[float]:
    """Taylor coefficients c0..c_order of the nested form (params non-empty).

    Past the depth no level is added and the innermost bracket contributes 0.
    """
    expansion = _Expansion(s, params)
    coeffs = [1.0]
    for n in range(1, order + 1):
        deeper = n <= len(params)
        expansion.begin(deeper)
        coeffs.append(expansion.frontier(params[n - 1] if deeper else 0.0, True))
    return coeffs


def nested_evaluate(params: Sequence[float], s: float, x: float) -> float:
    """Value of the nested form at x, innermost bracket outward.

    Raises ComplexBreakdownError with the 1-based depth of the first bracket
    whose base is negative under a non-integer power or zero under a
    negative power.
    """
    integer_power = float(s).is_integer()
    h = 1.0
    for depth in range(len(params), 0, -1):
        u = 1.0 + params[depth - 1] * x * h
        if (u < 0.0 and not integer_power) or (u == 0.0 and s < 0.0):
            raise ComplexBreakdownError(depth, x)
        h = u**s
    return h


def fit_parameters(series: TruncatedSeries, power: float) -> Iterator[float]:
    """Yield the fitted parameters A1, A2, ... of ``series``, one per order.

    The n-th value is the one ``fit`` returns at any depth >= n, so a
    caller can stop early or keep the prefix fitted before a failure; the
    error for order n is raised when the n-th value is requested.  Arguments
    and errors are those of ``fit``.  Order n adds level A_n to the shared
    expansion, runs its frontier at the trials A_n = 0 and 1, and stores it
    at the solved A_n.
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
    expansion = _Expansion(power, params)
    for n in range(1, series.order + 1):
        expansion.begin(True)
        at_zero = expansion.frontier(0.0, False)
        slope = expansion.frontier(1.0, False) - at_zero
        if abs(slope) < slope_floor:
            raise VanishingSensitivityError(n, slope)
        a = (coeffs[n] - at_zero) / slope
        expansion.frontier(a, True)
        params.append(a)
        yield a


def fit(series: TruncatedSeries, power: float) -> ContinuedRootApproximant:
    """Fit a nested-root form whose expansion matches the series exactly.

    Matching proceeds order by order: with A1..A(n-1) fixed, the n-th Taylor
    coefficient of the nested form is an affine function of A_n, read off at
    the trials A_n = 0 and A_n = 1 and solved for the series coefficient.
    The resulting depth equals the series order.

    The solve is incremental: ``fit_parameters`` adds one level per order
    to the same order-by-order expansion that ``expand`` runs.  Order n
    appends one coefficient per level, and only these depend on A_n; the
    sums that do not are shared by the two trials and by the final pass
    that stores the solved level, so order n costs about n**2 / 2
    multiply-adds and the fit O(K**3).  The trial values, the slope and
    every parameter are bit for bit those of two full expansions per order.

    Args:
        series: coefficients c0..cK with c0 = 1 and K >= 1.
        power: the repeated nesting power s, non-zero.

    Raises:
        DegenerateSeriesError: the linear coefficient is zero.
        VanishingSensitivityError: some coefficient no longer responds to
            its parameter (slope below tolerance), typically after an
            earlier parameter fitted to exactly zero.
        ValueError: c0 != 1, K < 1, or power == 0.
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
    deepest = max(orders)
    params = fit(TruncatedSeries(series.coeffs[: deepest + 1]), power).params
    return [ContinuedRootApproximant(power, params[:k]) for k in orders]


def best_real_order(
    approximants: Sequence[ContinuedRootApproximant],
) -> ContinuedRootApproximant:
    """Highest-order member that is real-valued on x >= 0.

    Raises NoRealApproximantError when every member has a negative
    parameter.
    """
    if not approximants:
        raise ValueError("no approximants given")
    best = None
    for approx in approximants:
        if approx.is_real_valued and (best is None or approx.order > best.order):
            best = approx
    if best is None:
        raise NoRealApproximantError(
            f"none of the {len(approximants)} approximants is real-valued "
            "on the non-negative half-line"
        )
    return best
