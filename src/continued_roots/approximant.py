"""Continued-root approximants: construction, fitting, and asymptotics.

The central object is a nested form with one repeated power s,

    f(x) = (1 + A1 x (1 + A2 x (... (1 + Ak x)**s ...)**s)**s,

whose small-x expansion can match a given Taylor series order by order and
whose large-x behaviour is a clean power law.  Choosing s = beta/(1 + beta)
makes that power law carry a prescribed target exponent beta in the limit
of infinite nesting depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import _kernels_py as kernels
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


@dataclass(frozen=True)
class ExponentTarget:
    """Known large-argument behaviour an extrapolation should reproduce.

    ``exponent`` is the true power of growth; ``amplitude`` is the true
    prefactor of x**exponent when it is known, used as the error baseline.
    """

    exponent: float
    amplitude: float | None = None

    def __post_init__(self):
        if not self.exponent > -0.5:
            raise ValueError(
                f"target exponent must exceed -1/2, got {self.exponent!r}"
            )

    @property
    def power(self) -> float:
        return exponent_to_power(self.exponent)


@dataclass(frozen=True)
class AmplitudeResult:
    """Large-argument power law of one approximant: amplitude * x**exponent."""

    amplitude: float
    exponent: float
    order: int

    def estimate(self, target_exponent: float, match_point: float = 1.0) -> float:
        """This law converted to one of x**target_exponent at ``match_point``.

        B_k * match_point**(beta_k - target); B_k itself at match point 1.
        """
        if match_point == 1.0:
            return self.amplitude
        return self.amplitude * match_point ** (self.exponent - target_exponent)


@dataclass(frozen=True)
class ContinuedRootApproximant:
    """A fitted (or hand-built) nested-root form of fixed depth.

    ``params`` holds A1..Ak from the outermost bracket inward.  The form is
    real-valued on x >= 0 exactly when every parameter is non-negative.
    """

    power: float
    params: tuple[float, ...]

    def __post_init__(self):
        if len(self.params) < 1:
            raise ValueError("an approximant needs at least one parameter")
        object.__setattr__(
            self, "params", tuple(float(a) for a in self.params)
        )
        object.__setattr__(self, "power", float(self.power))

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
        return TruncatedSeries(
            tuple(kernels.nested_expansion(list(self.params), self.power, order))
        )

    def evaluate(self, x: float) -> float:
        """Value of the nested form at x >= 0.

        Raises ComplexBreakdownError, naming the offending depth, if a
        negative parameter drives some bracket base negative under a
        non-integer power.
        """
        if x < 0.0:
            raise ValueError(f"argument must be non-negative, got {x!r}")
        value, depth = kernels.nested_evaluate(
            list(self.params), self.power, float(x), float(self.power).is_integer()
        )
        if depth:
            raise ComplexBreakdownError(depth, x)
        return value

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


def fit_parameters(series: TruncatedSeries, power: float) -> Iterator[float]:
    """Yield the fitted parameters A1, A2, ... of ``series``, one per order.

    The n-th value is the one ``fit`` returns at any depth >= n, so a
    caller can stop early or keep the prefix fitted before a failure; the
    error for order n is raised when the n-th value is requested.  Arguments
    and errors are those of ``fit``.
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
    s1 = power + 1.0
    # factors[m][j] is the factor (s + 1) j - m of ``fractional_power``.
    factors: list[list[float]] = [[]]
    # Level i (0-based, outermost first) is the bracket U_i = 1 + A_i x H_(i+1)
    # and its power H_i = U_i**s.  us[i] and hs[i] hold the coefficients
    # that no later parameter changes: indices 0..n-1-i once A_n is solved.
    params: list[float] = []
    us: list[list[float]] = []
    hs: list[list[float]] = []
    for n in range(1, series.order + 1):
        factors.append([s1 * j - n for j in range(n + 1)])
        us.append([1.0])
        hs.append([1.0])
        # Order n appends index m = n - i at level i.  The recurrence sum
        # for it runs over ascending j; the terms j < m do not involve A_n,
        # so that part is summed once for all three passes below.
        partial = []
        for i in range(n):
            m = n - i
            acc = 0.0
            for f, u, h in zip(factors[m][1:m], us[i][1:], reversed(hs[i][1:])):
                acc += f * u * h
            partial.append(acc)

        def frontier(t: float, store: bool) -> float:
            """Coefficient n of the whole form with A_n = t, innermost level
            first; ``store`` appends each level's new coefficients."""
            h = 0.0
            for i in range(n - 1, -1, -1):
                m = n - i
                u = t if m == 1 else params[i] * h
                # the j = m term; its H factor is h[0] = 1, so the product
                # with it, exact, is left out
                h = (partial[i] + factors[m][m] * u) / m
                if store:
                    us[i].append(u)
                    hs[i].append(h)
            return h

        at_zero = frontier(0.0, False)
        slope = frontier(1.0, False) - at_zero
        if abs(slope) < slope_floor:
            raise VanishingSensitivityError(n, slope)
        a = (coeffs[n] - at_zero) / slope
        frontier(a, True)
        params.append(a)
        yield a


def fit(series: TruncatedSeries, power: float) -> ContinuedRootApproximant:
    """Fit a nested-root form whose expansion matches the series exactly.

    Matching proceeds order by order: with A1..A(n-1) fixed, the n-th Taylor
    coefficient of the nested form is an affine function of A_n, read off at
    the trials A_n = 0 and A_n = 1 and solved for the series coefficient.
    The resulting depth equals the series order.

    The solve is incremental.  Each level of the form keeps the
    coefficients of its bracket and of that bracket's s-th power that no
    later parameter changes.  Order n appends one "frontier" coefficient
    per level, from the innermost level outward, by the power recurrence of
    ``fractional_power`` in its own operation order, so the trial values,
    the slope and every parameter are bit-identical to those of two full
    ``nested_expansion`` calls per order.  The sums that do not involve A_n
    are shared by the two trials and by the final pass that stores the
    solved level, so order n costs about n**2 / 2 multiply-adds and the fit
    O(K**3) instead of O(K**4).

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
