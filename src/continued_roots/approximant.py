"""Continued-root approximants: construction, fitting, and asymptotics.

The central object is a nested form with one repeated power s,

    f(x) = (1 + A1 x (1 + A2 x (... (1 + Ak x)**s ...)**s)**s,

whose small-x expansion can match a given Taylor series order by order and
whose large-x behaviour is a clean power law.  Choosing s = beta/(1 + beta)
makes that power law carry a prescribed target exponent beta in the limit
of infinite nesting depth.
"""

import math
from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import ComplexBreakdownError, RealnessError, VanishingSensitivityError
from .series import TruncatedSeries, _factors, _float, _order, _positive, _power


def exponent_to_power(exponent: float) -> float:
    """Nesting power s that realises a large-argument exponent beta.

    Defined as beta / (1 + beta); requires a finite beta > -1/2 so that
    |s| < 1 and the infinite-depth construction converges, and one small
    enough that s does not round to 1.
    """
    beta = _float(exponent)
    if not -0.5 < beta < _INF:
        if -_INF < beta < _INF:
            raise ValueError(f"target exponent must exceed -1/2, got {exponent!r}")
        raise ValueError(f"target exponent must be finite, got {exponent!r}")
    power = beta / (1.0 + beta)  # rounds to 1 from about 9.007e15 up
    if not power < 1.0:
        raise ValueError(
            f"target exponent must leave beta / (1 + beta) below 1, got {exponent!r}"
        )
    return power


def power_to_exponent(power: float) -> float:
    """Large-argument exponent realised by a nesting power s, s / (1 - s)."""
    s = _float(power)
    if not abs(s) < 1.0:
        raise ValueError(f"nesting power must satisfy |s| < 1, got {power!r}")
    return s / (1.0 - s)


def _check_power(power: float) -> float:
    """The nesting power as a float, or ValueError unless it is finite,
    non-zero and -1 <= s < 1: the paper's s = beta / (1 + beta), beta > -1/2,
    with its continued-fraction case s = -1."""
    s = _float(power)
    if not -1.0 <= s < 1.0:
        if -math.inf < s < math.inf:
            raise ValueError(f"nesting power must satisfy -1 <= s < 1, got {power!r}")
        raise ValueError(f"nesting power must be finite, got {power!r}")
    if s == 0.0:
        raise ValueError("nesting power must be non-zero")
    return s


def finite_order_exponent(power: float, order: int) -> float:
    """Exponent of the order-k form: the geometric sum s + s^2 + ... + s^k.

    Evaluated in closed form as (s - s**(k+1)) / (1 - s), which tends to the
    infinite-depth exponent s / (1 - s).  The power is checked as ``fit``
    checks it; in that domain the quotient is at most 2**54.  Raises
    ValueError, naming the order, when it is not an integer or leaves the
    float range.
    """
    order = _order(order, "order", 1)
    s = _check_power(power)
    try:
        return _exponent(s, order)
    except OverflowError:
        raise ValueError(f"order {order} leaves the float range") from None


def _exponent(s: float, k: int) -> float:
    """beta_k = (s - s**(k+1)) / (1 - s), the one closed form, unchecked."""
    return (s - s ** (k + 1)) / (1.0 - s)


def _require_positive(params: Sequence[float], subject: str) -> None:
    """Raise RealnessError naming the first parameter that is not > 0."""
    for n, a in enumerate(params, 1):
        if not a > 0.0:
            raise RealnessError(
                f"{subject} requires strictly positive parameters; "
                f"parameter {n} is {a!r}"
            )


def _power_law(
    params: Sequence[float], s: float, done: int = 0, b: float = 1.0
) -> float:
    """Amplitude B_k = prod A_n**(s**n) of these parameters and power s,
    the one product loop of ``amplitude()`` and ``sequence_report``.

    ``b`` is B over the first ``done`` parameters, which must be known to
    be positive.  The rest are checked, and then their factors are
    multiplied in, outermost first, so B_k continues from B_done with the
    operations that build it from 1, at one factor per new parameter.
    Raises ValueError, naming the depth, when a factor (a subnormal
    parameter under s near -1) or the product leaves the float range.
    """
    new = params[done:]
    for a in new:
        if not a > 0.0:
            _require_positive(params, "amplitude")  # raises, naming the first
    n = done
    try:
        for a in new:
            n += 1
            b *= a ** (s**n)
            if b == math.inf:
                raise ValueError(f"the amplitude at depth {n} leaves the float range")
    except OverflowError:
        raise ValueError(
            f"the amplitude factor at depth {n} leaves the float range"
        ) from None
    return b


class ExponentTarget(Record):
    """Known large-argument behaviour an extrapolation should reproduce.

    ``exponent`` is the true power of growth; ``amplitude`` is the true
    prefactor of x**exponent when it is known, used as the error baseline,
    so it must be finite and non-zero.
    """

    __slots__ = ("exponent", "amplitude")

    def __init__(self, exponent: float, amplitude: float | None = None):
        exponent_to_power(exponent)  # raises unless finite and > -1/2
        if amplitude is not None and not -_INF < _float(amplitude) < _INF:
            raise ValueError(f"known amplitude must be finite, got {amplitude!r}")
        if amplitude == 0.0:
            raise ValueError(f"known amplitude must be non-zero, got {amplitude!r}")
        self._store(exponent, amplitude)


class AmplitudeResult(Record):
    """Large-argument power law of one approximant: amplitude * x**exponent."""

    __slots__ = ("amplitude", "exponent", "order")

    def estimate(self, target_exponent: float, match_point: float = 1.0) -> float:
        """This law converted to one of x**target_exponent at ``match_point``.

        B_k * match_point**(beta_k - target); B_k itself at match point 1.
        Raises ValueError unless match_point > 0, and, naming the depth,
        when the conversion or its product with a finite B_k overflows.
        """
        _positive(match_point, "match point")  # an int beyond the floats stays exact
        return _estimate(*self._values(), _float(target_exponent), match_point)


def _estimate(b: float, beta: float, k: int, target: float, point: float) -> float:
    """``AmplitudeResult(b, beta, k).estimate(target, point)``, unbuilt.

    An int point beyond the float range converts in logs."""
    try:
        try:
            law = point ** (beta - target)
        except OverflowError:
            if not isinstance(point, int):
                raise
            law = math.exp((beta - target) * math.log(point))
        estimate = b * law
        if not math.isinf(estimate) or math.isinf(b):
            return estimate
    except OverflowError:
        pass
    raise ValueError(
        f"the estimate at depth {k} leaves the float range at match point {point!r}"
    )


class ContinuedRootApproximant(Record):
    """A fitted (or hand-built) nested-root form of fixed depth.

    ``params`` holds A1..Ak from the outermost bracket inward.  The form is
    real-valued on x >= 0 exactly when every parameter is non-negative.
    The power must be non-zero with -1 <= s < 1, as in ``fit``.
    """

    __slots__ = ("power", "params")

    def __init__(self, power: float, params: tuple[float, ...]):
        try:
            if len(params) < 1:
                raise ValueError("an approximant needs at least one parameter")
        except TypeError:  # no len(): a number or an iterator
            raise ValueError(f"params must be a sequence, got {params!r}") from None
        self._store(_check_power(power), tuple(map(_float, params)))

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
        One run of ``nested_expansion``, O(K**3) at order K.  Raises
        ValueError, naming the order, unless it is a non-negative integer,
        and, naming the first one, when a coefficient is NaN or infinite: a
        non-finite parameter's, or one that leaves the float range.
        """
        order = _order(order, "expansion order", 0)
        coeffs = nested_expansion(self.params, self.power, order)
        for n, c in enumerate(coeffs):
            if not -_INF < c < _INF:
                raise ValueError(f"expansion coefficient c{n} is {c!r}, not finite")
        return TruncatedSeries(tuple(coeffs))

    def evaluate(self, x: float) -> float:
        """Value of the nested form at x >= 0.

        Raises ComplexBreakdownError, naming the offending depth, if a
        negative parameter drives some bracket base negative under a
        non-integer power, and ValueError, naming x, if x is negative or not
        finite, or, as ``nested_evaluate`` says, where a base overflows and
        logs cannot recover the value or a base is NaN.
        """
        real = x if type(x) is float else _float(x)  # a float skips the call
        if not 0.0 <= real < _INF:
            if real < 0.0:
                raise ValueError(f"argument must be non-negative, got {x!r}")
            raise ValueError(f"argument must be finite, got {x!r}")
        return nested_evaluate(self.params, self.power, real)

    def amplitude(self) -> AmplitudeResult:
        """Large-argument power law of this form.

        The amplitude is the product of A_n**(s**n) over the depth, and the
        exponent is the finite geometric sum of powers.  All parameters must
        be strictly positive for the fractional powers to be real.  Raises
        ValueError, naming the depth, when a factor or the product leaves the
        float range.
        """
        b, k = _power_law(self.params, self.power), len(self.params)
        # the form's power passed its check when it was built or fitted
        return AmplitudeResult(b, _exponent(self.power, k), k)

    def asymptote(self, x: float) -> float:
        """B_k * x**beta_k, the large-argument law at a point x > 0, as
        ``amplitude().estimate(0.0, x)``; its ValueError names x, and an int
        x beyond the float range converts in logs."""
        _float(x)  # ValueError unless x is a number
        if not 0.0 < x < _INF:
            if x <= 0.0:
                raise ValueError(f"asymptote requires x > 0, got {x!r}")
            raise ValueError(f"argument must be finite, got {x!r}")
        return self.amplitude().estimate(0.0, x)

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

    Built from the innermost bracket outward, one ``_power`` per level:
    level i (0-based, outermost first) is cut at order - i, the innermost
    bracket 1 + A x padded with zeros, and the levels past the order, which
    reach no coefficient, are left out.
    """
    depth = min(len(params), order)
    if not depth:
        return [1.0]
    s1j = _factors(s, order)
    h = _power([params[depth - 1], *[s - s] * (order - depth)], s1j)
    for a in reversed(params[: depth - 1]):
        h = _power([a * c for c in h], s1j)
    return h


def nested_evaluate(params: Sequence[float], s: float, x: float) -> float:
    """Value of the nested form at x, innermost bracket outward.

    Raises ComplexBreakdownError with the 1-based depth of the first bracket
    whose base is negative under a power other than -1 (the one integer
    power in the domain) or zero under a negative power.  From a base that
    overflows outward, the brackets are evaluated in logs, log h =
    s log(1 + e**t) with t = log A + log x + log h_inner, which tends to
    the law B_k x**beta_k; ValueError names x unless every base there is
    positive and the value is in the float range.  ValueError also names
    x, and the depth, for a base that is NaN: a NaN parameter, or an
    infinite one times a zero x or inner value.
    """
    h, depth = 1.0, len(params)
    for a in reversed(params):
        u = 1.0 + a * x * h
        if not 0.0 < u < _INF:
            if u != u:  # a * x overflowed against a zero inner value
                u = 1.0 + a * (x * h)
                if u != u:  # a NaN parameter, or an infinite one times zero
                    raise ValueError(f"the base at depth {depth} is NaN at x = {x!r}")
            if (u < 0.0 and s != -1.0) or (u == 0.0 and s < 0.0):
                raise ComplexBreakdownError(depth, x)
            if abs(u) == _INF:
                break
        h = u**s
        depth -= 1
    else:
        return h
    if not (h > 0.0 and all(a > 0.0 for a in params[:depth])):
        message = "leaves the float range and is not known to be positive"
        raise ValueError(f"a bracket base at x = {x!r} {message}")
    log_x, log_h = math.log(x), math.log(h)
    for a in reversed(params[:depth]):  # the overflowed bracket outward
        t = math.log(a) + log_x + log_h
        log_h = s * (max(t, 0.0) + math.log1p(math.exp(-abs(t))))
    try:
        h = math.exp(log_h)
    except OverflowError:
        h = _INF
    if h < _INF:  # an infinite parameter makes log_h infinite or NaN
        return h
    raise ValueError(f"the value at x = {x!r} leaves the float range")


_INF = math.inf  # a module global: faster to load per bracket than math.inf


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
    return s


def fit(series: TruncatedSeries, power: float) -> ContinuedRootApproximant:
    """Fit a nested-root form whose expansion matches the series exactly.

    The form is peeled from the outside in.  With g_1 the series and
    g_n = (1 + A_n x g_(n+1))**s, g_n**(1/s) = 1 + A_n x g_(n+1), so A_n is
    coefficient 1 of g_n**(1/s) and g_(n+1) its coefficients 2 and up
    divided by A_n: one ``_power`` per level, O(K**3) in all (at s = -1,
    Viskovatov's successive division).  The resulting depth equals the
    series order.  A_n depends only on c1..cn, by float steps that do not
    depend on K, so a fit to a truncation gives the first parameters of
    the deeper fit bit for bit.

    Args:
        series: coefficients c0..cK with c0 = 1 and K >= 1.
        power: the repeated nesting power s, non-zero with -1 <= s < 1.

    Raises:
        VanishingSensitivityError: the parameter chain is cut before the
            named order: the parameter before it is exactly zero (A1
            included, as a zero c1 fits it), or that order's parameter
            leaves the float range.  No parameter that is returned is infinite or NaN.
        ValueError: c0 != 1, K < 1, a coefficient is not finite, or power
            is 0, not finite or outside -1 <= s < 1.
    """
    s = _fit_power(series, power)
    return _form(s, _peel(series.coeffs[1:], s))


def _peel(g: Sequence[float], s: float) -> tuple[float, ...]:
    """``fit``'s parameters A1..AK from coefficients 1..K, unchecked, in
    the arithmetic of the inputs (float, or Fraction or mpmath in tests)."""
    s1j = _factors(1 / s, len(g))
    params = []
    for n in range(1, len(g) + 1):
        p = _power(g, s1j)  # g: coefficients 1 and up of g_n
        a = p[1]
        if not -math.inf < a < math.inf:
            raise VanishingSensitivityError(n, a)
        params.append(a)
        if len(p) > 2:
            if a == 0:
                raise VanishingSensitivityError(n + 1, a)
            g = [c / a for c in p[2:]]
    return tuple(params)


def _form(s: float, params: tuple[float, ...]) -> ContinuedRootApproximant:
    """The form of fitted float parameters, stored by the record's generated
    ``_store`` without the constructor's checks."""
    fitted = object.__new__(ContinuedRootApproximant)
    ContinuedRootApproximant._store(fitted, s, params)
    return fitted


def fit_sequence(
    series: TruncatedSeries, power: float, orders: Iterable[int]
) -> list[ContinuedRootApproximant]:
    """One approximant per requested depth, from truncations of a series.

    The parameters at depth k are the first k of every deeper fit, bit for
    bit, so one fit at the largest requested depth serves them all.  Raises
    ValueError unless ``orders`` iterates integers from 1 to the series order.
    """
    try:
        orders = list(orders)
    except TypeError:
        raise ValueError(f"orders must be iterable, got {orders!r}") from None
    for k in orders:
        if _order(k, "depth", 1) > series.order:
            raise ValueError(
                f"depth {k} exceeds the available series order {series.order}"
            )
    if not orders:
        return []
    deepest = fit(TruncatedSeries(series.coeffs[: max(orders) + 1]), power)
    return [_form(deepest.power, deepest.params[:k]) for k in orders]
