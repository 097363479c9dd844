"""High-precision reference computations, independent of the package.

Everything here runs in mpmath at ``DPS`` decimal digits and shares no code
with ``continued_roots``.  The fit uses a different algorithm from the
package: it keeps every bracket's series and appends one coefficient per
level and order with the J.C.P. Miller power recurrence, and it solves each
order with the analytic slope s**n * A1 * ... * A(n-1) instead of a
differenced one.  The benchmark compares the package's float64 results with
these values and derives its tolerances from the error estimates below.

The nested form is

    f(x) = (1 + A1 x (1 + A2 x (... (1 + Ak x)**s ...)**s)**s.
"""

from __future__ import annotations

import random

import mpmath

DPS = 60
UNIT_ROUNDOFF = 2.0**-53

_ctx = mpmath.MPContext()
_ctx.dps = DPS
mpf = _ctx.mpf


def to_mp(value) -> mpmath.mpf:
    return mpf(value)


def expand_with_error(params, s, order: int) -> tuple[list, list]:
    """Expansion coefficients and a running-error bound (Higham, ch. 3.3)
    on the absolute error of computing them in float64.

    The bound follows the power recurrence level by level, from the exact
    magnitudes: each factor (s + 1) j - m carries three roundings, each
    product two, each partial sum and each division one, and the error of
    the inputs u[j] and h[m - j] is carried through.  It is first order in
    the unit roundoff and assumes the parameters are exact floats.
    """
    u_ = UNIT_ROUNDOFF
    s = to_mp(s)
    a = [to_mp(p) for p in params]

    def power(u, eu, n):
        h, eh = [mpf(1)] + [mpf(0)] * n, [mpf(0)] * (n + 1)
        for m in range(1, n + 1):
            acc = err = mpf(0)
            for j in range(1, min(m, len(u) - 1) + 1):
                f = (s + 1) * j - m
                term = f * u[j] * h[m - j]
                acc += term
                err += (
                    abs(f) * (eu[j] * abs(h[m - j]) + abs(u[j]) * eh[m - j])
                    + u_ * (2 * (abs(s) + 1) * j + abs(f)) * abs(u[j] * h[m - j])
                    + u_ * (2 * abs(term) + abs(acc))
                )
            h[m] = acc / m
            eh[m] = err / m + u_ * abs(h[m])
        return h, eh

    u, eu = [mpf(1), a[-1]], [mpf(0), mpf(0)]
    for ai in reversed(a[:-1]):
        p, ep = power(u, eu, order - 1) if order >= 1 else ([mpf(1)], [mpf(0)])
        u = [mpf(1)] + [ai * c for c in p[:order]]
        eu = [mpf(0)] + [abs(ai) * e + u_ * abs(ai * c) for c, e in zip(p[:order], ep[:order])]
    return power(u, eu, order)


def expand(params, s, order: int) -> list:
    """Taylor coefficients c0..c_order of the nested form."""
    return expand_with_error(params, s, order)[0]


class ZeroSlope(ArithmeticError):
    """The exact affine slope of some order is zero: an earlier parameter is 0."""


def fit(coeffs, s) -> list:
    """Exact (to DPS digits) order-by-order fit of the nested form.

    Level i holds u_i = 1 + A_i x u_(i+1)**s and p_i = u_(i+1)**s, with
    f = u_1**s stored as p_0.  Adding A_n changes only the top coefficient
    of each level, u_i[n - i + 1], so every order costs O(n**2) work.
    """
    s = to_mp(s)
    c = [to_mp(v) for v in coeffs]
    order = len(c) - 1
    params: list = []
    u: list[list] = [[]]  # u[i] for i = 1..n (index 0 unused)
    p: list[list] = []  # p[i] = u[i+1]**s for i = 0..n-1

    def push(n: int, a_n) -> None:
        # Append the top coefficient of every level for order n.
        u.append([mpf(1), a_n])
        p.append([mpf(1)])
        for i in range(n, 0, -1):
            m = n - i + 1
            if i < n:
                u[i].append(params[i - 1] * p[i][m - 1])
            ui, hi = u[i], p[i - 1]
            acc = mpf(0)
            for j in range(1, m + 1):
                acc += ((s + 1) * j - m) * ui[j] * hi[m - j]
            hi.append(acc / m)

    def pop(n: int) -> None:
        u.pop()
        p.pop()
        for i in range(n - 1, 0, -1):
            u[i].pop()
            p[i - 1].pop()

    slope = s
    for n in range(1, order + 1):
        push(n, mpf(0))
        at_zero = p[0][n]
        pop(n)
        if slope == 0:
            raise ZeroSlope(n)
        a_n = (c[n] - at_zero) / slope
        params.append(a_n)
        push(n, a_n)
        slope *= s * a_n
    return params


def log_sensitivity(params, s, x) -> list[float]:
    """|d ln f / d ln A_n| at x for each parameter, by a central difference."""
    delta = mpf("1e-25")
    out = []
    for n in range(len(params)):
        values = []
        for sign in (1, -1):
            moved = [to_mp(a) for a in params]
            moved[n] *= 1 + sign * delta
            values.append(evaluate(moved, s, x)[0])
        if values[0] is None or values[1] is None:
            out.append(float("inf"))
        else:
            out.append(float(abs(_ctx.log(values[0] / values[1])) / (2 * delta)))
    return out


def amplitude(params, s):
    """Large-argument amplitude prod A_n**(s**n); None unless all A_n > 0."""
    s = to_mp(s)
    if any(to_mp(a) <= 0 for a in params):
        return None
    out = mpf(1)
    for n, a in enumerate(params, start=1):
        out *= to_mp(a) ** (s**n)
    return out


def finite_exponent(s, k: int):
    """beta_k = (s - s**(k+1)) / (1 - s)."""
    s = to_mp(s)
    return (s - s ** (k + 1)) / (1 - s)


def evaluate(params, s, x, safety: float = 16.0):
    """Value of the nested form at x, with a float64 error estimate.

    Returns ``(value, depth, bound, ambiguous)``.  ``depth`` is 0 when the
    form is real at x, else the 1-based depth of the first bracket whose
    base is negative under a non-integer power (or zero under a negative
    power), and ``value`` is then None.  ``bound`` is a first-order
    estimate, in units of the unit roundoff, of the relative error of a
    float64 evaluation that rounds each operation once, innermost bracket
    outward.  ``ambiguous`` is true when some bracket base lies within
    ``safety`` times its own rounding error of zero, so that a float64
    evaluation may decide breakdown either way.
    """
    s = to_mp(s)
    x = to_mp(x)
    a = [to_mp(v) for v in params]
    integer_power = s == int(s)

    def broken(t):
        return (t < 0 and not integer_power) or (t == 0 and s < 0)

    def step(q, err_q):
        # Absolute error of t = 1 + q from the error of q and one rounding
        # for the sum, then the relative error in units of u.
        t = 1 + q
        abs_err = UNIT_ROUNDOFF * (abs(q) * err_q + abs(t))
        err = abs_err / abs(t) / UNIT_ROUNDOFF if t != 0 else mpf("inf")
        return t, err, abs(t) <= safety * abs_err

    # One rounding for a * x.
    t, err, ambiguous = step(a[-1] * x, 1)
    for m in range(len(a), 1, -1):
        if broken(t):
            return None, m, err, ambiguous
        # pow contributes |s| times the base's error plus about 2 ulps, the
        # two products one rounding each.
        t, err, near_zero = step(a[m - 2] * x * t**s, abs(s) * err + 4)
        ambiguous = ambiguous or near_zero
    if broken(t):
        return None, 1, err, ambiguous
    return t**s, 0, abs(s) * err + 2, ambiguous


def string_coefficients(order: int) -> list:
    """Taylor coefficients of 1 + g**2/32 + (g/4) sqrt(1 + g**2/64)."""
    c = [mpf(0)] * (order + 1)
    c[0] = mpf(1)
    if order >= 2:
        c[2] += mpf(1) / 32
    m = 0
    while 2 * m + 1 <= order:
        c[2 * m + 1] += _ctx.binomial(mpf(1) / 2, m) / (4 * mpf(64) ** m)
        m += 1
    return c


def relerr(got: float, want) -> float:
    """|got - want| / |want| as a float (absolute error when want is 0)."""
    want = to_mp(want)
    diff = abs(to_mp(got) - want)
    return float(diff / abs(want)) if want != 0 else float(diff)


def condition(coeffs, s, params, probes: int = 3) -> list[float]:
    """Componentwise relative condition number of each fitted parameter.

    ``params`` is ``fit(coeffs, s)``.  Perturbs every coefficient by a
    random sign times 1e-30 of its size, refits at full precision and takes
    the largest relative response of each parameter over a few probes,
    divided by 1e-30: how far a relative change of u in the inputs moves
    the exact fit, in units of u.
    """
    rng = random.Random(1)
    delta = mpf("1e-30")
    out = [0.0] * len(params)
    for _ in range(probes):
        moved = [coeffs[0]] + [to_mp(c) * (1 + delta * rng.choice((-1, 1))) for c in coeffs[1:]]
        for i, (a, b) in enumerate(zip(params, fit(moved, s))):
            out[i] = max(out[i], float(abs(b - a) / abs(a) / delta))
    return out
