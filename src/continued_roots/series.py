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

    @classmethod
    def from_coefficients(cls, coefficients: Sequence[float]) -> "TruncatedSeries":
        """Build a series from any sequence of coefficients c0..cK."""
        return cls(tuple(coefficients))

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
        well-defined termwise for any real exponent.  Uses the power
        recurrence: differentiating h = u**s gives u h' = s u' h, and
        matching coefficients yields each h[m] from the earlier ones, in
        O(K^2) total: ``_Expansion`` with the series as its one bracket.
        """
        u = self.coeffs
        if u[0] != 1.0:
            raise ValueError(f"series power requires constant term 1, got {u[0]!r}")
        expansion = _Expansion(float(exponent), ())
        h = [1.0]
        for n in range(1, len(u)):
            expansion.begin(n == 1)
            h.append(expansion.frontier(u[n], True))
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
    and its power H_i = U_i**s; ``us[i]`` and ``hs[i]`` hold the
    coefficients found so far.  Order n appends index m = n - i at every
    level, innermost first, by the recurrence of u h' = s u' h:
    h[m] = (sum over j = 1..m of ((s + 1) j - m) u[j] h[m - j]) / m, summed
    from 0.0 in ascending j.  ``begin`` sums the terms j < m once, so
    ``frontier`` can be run for several values of the innermost level's new
    bracket coefficient.  ``params`` holds A_i of every outer level.
    ``TruncatedSeries.power`` is the case of one level.
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
