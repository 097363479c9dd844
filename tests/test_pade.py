"""Equivalence of the power -1 form with its rational reduction.

Every reciprocal nesting collapses to a ratio of polynomials whose degrees
split the depth as evenly as possible: numerator floor(k/2), denominator
ceil(k/2).  These tests check the collapse symbolically at low depth and
numerically everywhere else, and check the paper's claim that the s = -1
fit is the Pade approximant against mpmath's independent algorithm.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from continued_roots import (
    ContinuedRootApproximant,
    TruncatedSeries,
    fit,
    problem,
    problem_names,
)

from oracles import power, product

positive_params = st.lists(
    st.floats(min_value=0.05, max_value=2.0), min_size=1, max_size=6
)


def rational_value(numerator, denominator, x):
    num = TruncatedSeries(tuple(numerator)).evaluate(x)
    den = TruncatedSeries(tuple(denominator)).evaluate(x)
    return num / den


def test_degrees_split_depth():
    for k in range(1, 7):
        approx = ContinuedRootApproximant(-1.0, tuple([1.0] * k))
        numerator, denominator = approx.to_rational()
        assert len(numerator) - 1 == k // 2
        assert len(denominator) - 1 == (k + 1) // 2


def test_constant_terms_are_one():
    approx = ContinuedRootApproximant(-1.0, (0.3, 0.9, 1.7, 0.2, 1.1))
    numerator, denominator = approx.to_rational()
    assert numerator[0] == 1.0
    assert denominator[0] == 1.0


def test_depth_three_collapse():
    # (1 + a x / (1 + b x / (1 + c x)))**-1
    #   = (1 + (b + c) x) / (1 + (a + b + c) x + a c x**2)
    a, b, c = 0.5, 1.5, 0.25
    numerator, denominator = ContinuedRootApproximant(
        -1.0, (a, b, c)
    ).to_rational()
    assert numerator == pytest.approx([1.0, b + c], abs=1e-15)
    assert denominator == pytest.approx([1.0, a + b + c, a * c], abs=1e-15)


def test_taylor_coefficients_agree():
    # the rational form and the nesting have the same expansion through
    # the fitted depth
    params = (0.8, 0.4, 1.2, 0.6)
    approx = ContinuedRootApproximant(-1.0, params)
    numerator, denominator = approx.to_rational()
    k = len(params)
    pad = lambda c: tuple(c) + (0.0,) * (k + 1 - len(c))
    num = TruncatedSeries(pad(numerator))
    den = TruncatedSeries(pad(denominator))
    rational_series = product(num, TruncatedSeries(tuple(power(den.coeffs, -1.0))))
    direct_series = approx.expand(k)
    assert rational_series.coeffs == pytest.approx(
        direct_series.coeffs, rel=1e-12, abs=1e-12
    )


@given(positive_params)
def test_pointwise_equivalence(params):
    approx = ContinuedRootApproximant(-1.0, tuple(params))
    numerator, denominator = approx.to_rational()
    for i in range(20):
        x = 10.0 * i / 19.0
        direct = approx.evaluate(x)
        collapsed = rational_value(numerator, denominator, x)
        assert abs(direct - collapsed) <= 1e-10 * abs(collapsed)


def test_seeded_sweep_all_depths():
    rng = random.Random(1729)
    for k in range(1, 7):
        for _ in range(50):
            params = tuple(rng.uniform(0.1, 2.0) for _ in range(k))
            approx = ContinuedRootApproximant(-1.0, params)
            numerator, denominator = approx.to_rational()
            for i in range(20):
                x = 10.0 * i / 19.0
                direct = approx.evaluate(x)
                collapsed = rational_value(numerator, denominator, x)
                assert abs(direct - collapsed) <= 1e-10 * abs(collapsed)


def pade_difference(coeffs):
    """Largest difference between the coefficients of the s = -1 fit's
    reduction and ``mpmath.pade`` of the same series at 40 digits, relative
    to the largest coefficient, and the depth k."""
    mpmath = pytest.importorskip("mpmath")
    k = len(coeffs) - 1
    numerator, denominator = fit(TruncatedSeries(tuple(coeffs)), -1.0).to_rational()
    with mpmath.workdps(40):
        p, q = mpmath.pade([mpmath.mpf(c) for c in coeffs], k // 2, (k + 1) // 2)
        want = [*p, *q]
        got = [*numerator, *denominator]
        assert len(got) == len(want)
        largest = max(abs(w) for w in want)
        return float(max(abs(g - w) for g, w in zip(got, want)) / largest), k


# The difference grows with the conditioning of the fit, about 5x per
# depth.  Over 300 forms drawn as in test_fit_is_mpmath_pade_on_a_corpus its
# largest ratio to UNIT_ROUNDOFF * 5**k was 0.20 (k = 11; the largest
# difference 1.5e-9 at k = 12, the median 1.5e-14), and on the built-in
# problems 0.0031 (nls_coherent_modes, k = 3; the largest difference
# 3.1e-15, fluid_membrane at k = 6); the bound below leaves a factor 5.
UNIT_ROUNDOFF = 2.0**-53


def pade_bound(k):
    return UNIT_ROUNDOFF * 5.0**k


@pytest.mark.parametrize("name", problem_names())
def test_fit_is_mpmath_pade_on_the_builtin_problems(name):
    series = problem(name)
    top = min(12, series.max_order or 12)
    for k in range(1, top + 1):
        difference, k = pade_difference(series.coefficients(k))
        assert difference <= pade_bound(k), k


def test_fit_is_mpmath_pade_on_a_corpus():
    # A log-uniform in [0.6, 1.6], depths 1..12
    rng = random.Random(26)
    for _ in range(300):
        k = rng.randint(1, 12)
        params = tuple(math.exp(rng.uniform(math.log(0.6), math.log(1.6))) for _ in range(k))
        coeffs = ContinuedRootApproximant(-1.0, params).expand(k).coeffs
        difference, k = pade_difference(coeffs)
        assert difference <= pade_bound(k), (k, params)
