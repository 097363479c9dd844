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
        well-defined termwise for any finite real exponent.  The power
        recurrence of ``_Expansion``, with the series as its one bracket,
        takes O(K^2).
        """
        u = self.coeffs
        if u[0] != 1.0:
            raise ValueError(f"series power requires constant term 1, got {u[0]!r}")
        s = _finite_float(exponent, "series power requires a finite exponent")
        if len(u) == 1:
            return self
        expansion = _Expansion(s, ())
        for c in u[:-1]:  # order n stores order n - 1's coefficient
            expansion.step(c)
        return TruncatedSeries(expansion.coefficients(u[-1]))

    def evaluate(self, x: float) -> float:
        """Value of the truncating polynomial at a point (Horner scheme)."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class _Expansion:
    """Taylor coefficients of the nested form, built one order at a time.

    Level i (0-based, outermost first) is the bracket U_i = 1 + A_i x H_(i+1)
    and its power H_i = U_i**s; ``us[i]`` holds U_i's coefficients from
    index 1 up and ``hs[i]`` H_i's newest first, down to index 1, the
    constant 1 left implicit.  ``params`` holds A_i of every level but the
    innermost, whose bracket coefficients the caller supplies;
    ``TruncatedSeries.power`` is the case of one level.  Order n appends
    index m = n - i at every level by the recurrence of u h' = s u' h:
    h[m] = (sum over j = 1..m of ((s + 1) j - m) u[j] h[m - j]) / m, summed
    from 0.0 in ascending j.  ``partial[i]`` keeps the terms j < m, the
    j = m term's factor h[0] = 1 left out, so only each level's new bracket
    coefficient is left to choose.  Each order is one walk over the levels,
    innermost first: ``step`` stores the previous order at the coefficient
    the caller chose, then forms the order's sums and finishes each level
    at the innermost new bracket coefficient 0 and 1, returning both trials
    of the whole form.  ``coefficients`` reads the last order's coefficient
    and returns it after those in ``hs[0]``, c0..cK of the whole form.
    """

    __slots__ = ("s1", "s1j", "params", "us", "hs", "factors", "last", "partial")

    def __init__(self, power: float, params: Sequence[float]):
        self.s1 = power + 1.0
        self.s1j: list[float] = []  # s1j[j - 1] is (s + 1) j
        self.params = params
        self.us: list[list[float]] = []
        self.hs: list[list[float]] = []
        # factors[m][j - 1] is the factor (s + 1) j - m of the recurrence
        self.factors: list[list[float]] = [[]]
        self.last: list[float] = [0.0]  # last[m] is factors[m][-1]; m >= 1
        self.partial: list[float] = []  # one per level of the latest order

    def step(self, t: float) -> tuple[float, float]:
        """Store the previous order with innermost new bracket coefficient
        t (ignored at order 1), add the innermost level up to
        len(params) + 1, and return coefficient n of the whole form at the
        innermost new bracket coefficient 0 and 1.
        """
        factors, last, n, s1j = self.factors, self.last, len(self.factors), self.s1j
        s1j.append(self.s1 * n)
        factors.append(row := [x - n for x in s1j])
        last.append(row[-1])
        us, hs, params, partial = self.us, self.hs, self.params, self.partial
        i = len(partial) - 1  # the previous order's innermost level
        t0, t1 = 0.0, 1.0
        if i < len(params):
            # a new innermost level at index 1: its sum is empty, and
            # (0.0 + f * t) / 1 is 0.0 + f * t exactly
            us.append([])
            hs.append([])
            partial.append(0.0)
            fm = last[1]
            h0, h1 = 0.0 + fm * t0, 0.0 + fm * t1
            if i < 0:
                return h0, h1
            a = params[i]
            t0, t1 = a * h0, a * h1
        m = n - i
        while True:
            u, h = us[i], hs[i]
            k = m - 1
            stored = (partial[i] + last[k] * t) / k
            u.append(t)
            h.insert(0, stored)
            f = factors[m]
            acc = 0.0
            for j in range(k):
                acc += f[j] * u[j] * h[j]
            partial[i] = acc
            fm = f[-1]
            h0, h1 = (acc + fm * t0) / m, (acc + fm * t1) / m
            if not i:
                return h0, h1
            i -= 1
            m += 1
            a = params[i]
            t, t0, t1 = a * stored, a * h0, a * h1

    def coefficients(self, t: float) -> tuple[float, ...]:
        """Coefficients c0..cK of the whole form, K the latest order, at
        innermost new bracket coefficient t.  No order follows, so nothing
        is stored."""
        last, partial, params = self.last, self.partial, self.params
        i = len(partial) - 1
        m = len(last) - 1 - i
        h = (partial[i] + last[m] * t) / m
        for i in range(i - 1, -1, -1):
            m += 1
            h = (partial[i] + last[m] * (params[i] * h)) / m
        return (1.0, *reversed(self.hs[0]), h)
