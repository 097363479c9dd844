"""Pure-Python kernels for truncated-series and nested-root arithmetic.

These are the package's only kernels.  They operate on plain lists of
floats.

A series is represented by its coefficients ``c[0..K]`` for a fixed
truncation order ``K``.  No function here validates arguments beyond what
the algorithm needs; callers hold the contracts.
"""

from __future__ import annotations


def cauchy_product(a: list[float], b: list[float]) -> list[float]:
    """Product of two same-length coefficient lists, truncated to that length."""
    n = len(a)
    out = [0.0] * n
    for i in range(n):
        ai = a[i]
        for j in range(n - i):
            out[i + j] += ai * b[j]
    return out


def fractional_power(u: list[float], s: float) -> list[float]:
    """Coefficients of u**s for a series u with constant term exactly 1.

    Uses the standard power recurrence: differentiate h = u**s to get
    u h' = s u' h and match coefficients, which yields each h[m] from the
    earlier ones in O(K^2) total.
    """
    n = len(u)
    h = [0.0] * n
    h[0] = 1.0
    for m in range(1, n):
        acc = 0.0
        for j in range(1, m + 1):
            acc += ((s + 1.0) * j - m) * u[j] * h[m - j]
        h[m] = acc / m
    return h


def nested_expansion(params: list[float], s: float, order: int) -> list[float]:
    """Taylor coefficients, through ``order``, of the nested-root form.

    The form is (1 + A1 x (1 + A2 x (... (1 + Ak x)**s ...)**s)**s with the
    same power s at every level.  Built from the innermost bracket outward;
    ``params`` must be non-empty.
    """
    n = order + 1
    u = [0.0] * n
    u[0] = 1.0
    if n > 1:
        u[1] = params[-1]
    for i in range(len(params) - 2, -1, -1):
        p = fractional_power(u, s)
        v = [0.0] * n
        v[0] = 1.0
        a = params[i]
        for j in range(1, n):
            v[j] = a * p[j - 1]
        u = v
    return fractional_power(u, s)


def nested_evaluate(
    params: list[float], s: float, x: float, integer_power: bool
) -> tuple[float, int]:
    """Evaluate the nested-root form at a point, innermost bracket outward.

    Returns ``(value, 0)`` on success.  If some bracket base is negative
    under a non-integer power, or zero under a negative power, returns
    ``(nan, depth)`` with the 1-based depth of the offending bracket.
    """
    k = len(params)
    u = 1.0 + params[k - 1] * x
    for m in range(k, 1, -1):
        if (u < 0.0 and not integer_power) or (u == 0.0 and s < 0.0):
            return (float("nan"), m)
        u = 1.0 + params[m - 2] * x * u**s
    if (u < 0.0 and not integer_power) or (u == 0.0 and s < 0.0):
        return (float("nan"), 1)
    return (u**s, 0)
