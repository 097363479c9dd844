"""Truncated formal power series, and the one series-power recurrence.

A ``TruncatedSeries`` holds c0..cK; coefficients beyond the truncation are
unknown rather than zero.  ``_power`` raises a series with constant term 1
to a real power, once per level of the nested form's fit and expansion.
"""

import math
import operator
from collections.abc import Sequence

from ._record import Record


class TruncatedSeries(Record):
    """Coefficients c0..cK of a power series truncated at order K."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]):
        try:
            if len(coeffs) == 0:
                raise ValueError("a truncated series needs at least the constant term")
        except TypeError:  # no len(): a number or an iterator
            raise ValueError(f"coeffs must be a sequence, got {coeffs!r}") from None
        self._store(tuple(map(_float, coeffs)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: float) -> float:
        """Value of the truncating polynomial at a point (Horner scheme)."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _float(value: float) -> float:
    """A real number as a float: the package's one reading of a real argument
    or a problem-file number.  A float returns at the first test; an int
    beyond the float range reads as the infinity of its sign.  A bool, text
    and what ``float()`` refuses (None, a list) are a ValueError naming it."""
    if type(value) is float:
        return value
    try:
        if type(value) is bool or isinstance(value, (str, bytes, bytearray)):
            raise TypeError
        return float(value)
    except TypeError:
        raise ValueError(f"expected a number, got {value!r}") from None
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _order(value: int, name: str, lowest: int) -> int:
    """An order or depth as an int, or ValueError naming it unless >= lowest.
    A bool is not an order, though ``operator.index`` reads it as 0 or 1."""
    try:
        if type(value) is bool:
            raise TypeError
        order = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if order < lowest:
        bound = f"at least {lowest}" if lowest else "non-negative"
        raise ValueError(f"{name} must be {bound}, got {order}")
    return order


def _positive(value: float, name: str) -> float:
    """The value as ``_float`` reads it; ValueError naming it unless > 0."""
    number = _float(value)
    if not number > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return number


def _factors(s: float, n: int) -> list[float]:
    """(s + 1) j for j = 1..n, from which ``_power`` at exponent s forms its
    factors (s + 1) j - m, for series of up to n coefficients past the
    constant.  The levels of a nested form share one list."""
    return [(s + 1) * j for j in range(1, n + 1)]


def _power(u: Sequence[float], s1j: Sequence[float]) -> list[float]:
    """Coefficients 0..K of u**s from coefficients 1..K of u, whose
    constant term is 1, with ``s1j`` from ``_factors(s, n)``, n >= max(K, 1).

    The recurrence of u h' = s u' h: h[m] is the sum over j = 1..m of
    ((s + 1) j - m) u[j] h[m - j], summed from zero in ascending j, divided
    by m; O(K^2).  The nested form's expansion and fit run it once per
    level.  It runs in the arithmetic of its inputs: float, and for the
    tests Fraction or mpmath numbers.
    """
    zero = s1j[0] - s1j[0]  # +0.0 for floats, and not NaN beside an infinite u
    one = zero + 1
    h = [one]
    m = zero  # the inputs' type: a float minus an int takes a slow path
    for k in range(len(u)):  # h[m] for m = k + 1
        m += one
        acc = zero
        for j in range(k):
            acc += (s1j[j] - m) * u[j] * h[k - j]
        # the term j = m, whose h[0] = 1 leaves its product unchanged
        h.append((acc + (s1j[k] - m) * u[k]) / m)
    return h
