"""Truncated formal power series with a fixed order.

Every operation returns a series of the same order as its inputs; there is
no implicit order promotion, so coefficients beyond the truncation are
simply unknown rather than zero.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from ._record import Record, _set


def _finite_float(value, lead: str) -> float:
    """``float(value)``, or ValueError "<lead>, got <value>" when that is
    not finite or, for an int too large for a float, does not exist."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{lead}, got {value!r}")
    return x


class TruncatedSeries(Record):
    """Coefficients c0..cK of a power series truncated at order K."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]):
        if len(coeffs) == 0:
            raise ValueError("a truncated series needs at least the constant term")
        _set(self, "coeffs", tuple(map(float, coeffs)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[float]:
        return iter(self.coeffs)

    def __getitem__(self, n: int) -> float:
        return self.coeffs[n]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated to the common order.

        Both operands must have the same order; mixing orders would silently
        drop information, so it is an error instead.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.order != self.order:
            raise ValueError(
                f"cannot multiply series of different orders "
                f"({self.order} and {other.order})"
            )
        a, b = self.coeffs, other.coeffs
        n = len(a)
        out = [0.0] * n
        for i in range(n):
            ai = a[i]
            for j in range(n - i):
                out[i + j] += ai * b[j]
        return TruncatedSeries(tuple(out))

    def power(self, exponent: float) -> "TruncatedSeries":
        """Raise the series to a real power.

        The constant term must be exactly 1, which makes the result
        well-defined termwise for any finite real exponent.  One run of
        ``_power``, O(K^2).
        """
        u = self.coeffs
        if u[0] != 1.0:
            raise ValueError(f"series power requires constant term 1, got {u[0]!r}")
        s = _finite_float(exponent, "series power requires a finite exponent")
        return TruncatedSeries(_power(u[1:], _factors(s, len(u) - 1)))

    def evaluate(self, x: float) -> float:
        """Value of the truncating polynomial at a point (Horner scheme)."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _factors(s: float, n: int) -> list[float]:
    """(s + 1) j for j = 1..n, from which ``_power`` at exponent s forms its
    factors (s + 1) j - m, for series of up to n coefficients past the
    constant.  The levels of a nested form share one list."""
    return [(s + 1.0) * j for j in range(1, n + 1)]


def _power(u: Sequence[float], s1j: Sequence[float]) -> list[float]:
    """Coefficients 0..K of u**s from coefficients 1..K of u, whose
    constant term is 1, with ``s1j`` from ``_factors(s, n)``, n >= K.

    The recurrence of u h' = s u' h: h[m] is the sum over j = 1..m of
    ((s + 1) j - m) u[j] h[m - j], summed from 0.0 in ascending j, divided
    by m; O(K^2).  ``TruncatedSeries.power`` runs it once, and the nested
    form's expansion and fit once per level.
    """
    h = [1.0]
    m = 0.0  # a float, so that every operation is float by float
    for k in range(len(u)):  # h[m] for m = k + 1
        m += 1.0
        acc = 0.0
        for j in range(k):
            acc += (s1j[j] - m) * u[j] * h[k - j]
        # the term j = m, whose h[0] = 1.0 leaves its product unchanged
        h.append((acc + (s1j[k] - m) * u[k]) / m)
    return h
