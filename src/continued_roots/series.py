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
        O(K^2) total.
        """
        u = self.coeffs
        if u[0] != 1.0:
            raise ValueError(f"series power requires constant term 1, got {u[0]!r}")
        s = float(exponent)
        h = [1.0] * len(u)
        for m in range(1, len(u)):
            acc = 0.0
            for j in range(1, m + 1):
                acc += ((s + 1.0) * j - m) * u[j] * h[m - j]
            h[m] = acc / m
        return TruncatedSeries(tuple(h))

    def evaluate(self, x: float) -> float:
        """Value of the truncating polynomial at a point (Horner scheme)."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc
