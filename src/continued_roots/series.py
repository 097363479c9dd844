"""Truncated formal power series with a fixed order.

Every operation returns a series of the same order as its inputs; there is
no implicit order promotion, so coefficients beyond the truncation are
simply unknown rather than zero.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from ._record import Record, _set


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
        well-defined termwise for any real exponent.  The power recurrence
        of ``_Expansion``, with the series as its one bracket, takes O(K^2).
        """
        u = self.coeffs
        if u[0] != 1.0:
            raise ValueError(f"series power requires constant term 1, got {u[0]!r}")
        expansion = _Expansion(float(exponent), ())
        h = [1.0]
        for n in range(1, len(u)):
            expansion.begin()
            h.append(expansion.frontier(u[n]))
        return TruncatedSeries(tuple(h))

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
    index m = n - i at every level, innermost first, by the recurrence of
    u h' = s u' h: h[m] = (sum over j = 1..m of ((s + 1) j - m) u[j]
    h[m - j]) / m, summed from 0.0 in ascending j.  ``begin`` sums the
    terms j < m once by zipping factors[m], us[i] and hs[i], and takes 0.0
    for a level it adds, whose sum is empty; the j = m term's factor
    h[0] = 1 is left out.  ``trials`` and ``frontier`` finish the order.
    """

    __slots__ = ("s1", "params", "us", "hs", "factors", "partial")

    def __init__(self, power: float, params: Sequence[float]):
        self.s1 = power + 1.0
        self.params = params
        self.us: list[list[float]] = []
        self.hs: list[list[float]] = []
        # factors[m][j - 1] is the factor (s + 1) j - m of the recurrence
        self.factors: list[list[float]] = [[]]

    def begin(self) -> None:
        """Start the next order, adding innermost levels up to len(params) + 1."""
        factors, s1, n = self.factors, self.s1, len(self.factors)
        factors.append(row := [])
        for j in range(1, n + 1):
            row.append(s1 * j - n)
        partial = self.partial = []
        for us, hs, f in zip(self.us, self.hs, reversed(factors)):
            acc = 0.0
            for fj, u, h in zip(f, us, hs):
                acc += fj * u * h
            partial.append(acc)
        if len(self.us) <= len(self.params):
            self.us.append([])
            self.hs.append([])
            partial.append(0.0)

    def trials(self) -> tuple[float, float]:
        """Coefficient n of the whole form when the innermost level's new
        bracket coefficient is 0 and when it is 1."""
        factors, partial, params = self.factors, self.partial, self.params
        i = len(partial) - 1
        m = len(factors) - 1 - i
        f, p = factors[m][-1], partial[i]
        h0, h1 = (p + f * 0.0) / m, (p + f) / m
        for i in range(i - 1, -1, -1):
            m += 1
            a, f, p = params[i], factors[m][-1], partial[i]
            h0, h1 = (p + f * (a * h0)) / m, (p + f * (a * h1)) / m
        return h0, h1

    def frontier(self, t: float) -> float:
        """Coefficient n of the whole form when the innermost level's new
        bracket coefficient is t; stores every level's new ones."""
        factors, partial, params = self.factors, self.partial, self.params
        us, hs = self.us, self.hs
        i = len(partial) - 1
        m = len(factors) - 1 - i
        h = (partial[i] + factors[m][-1] * t) / m
        us[i].append(t)
        hs[i].insert(0, h)
        for i in range(i - 1, -1, -1):
            m += 1
            u = params[i] * h
            h = (partial[i] + factors[m][-1] * u) / m
            us[i].append(u)
            hs[i].insert(0, h)
        return h
