"""Equivalence of the power -1 form with its rational reduction.

Every reciprocal nesting collapses to a ratio of polynomials whose degrees
split the depth as evenly as possible: numerator floor(k/2), denominator
ceil(k/2).  These tests check the collapse symbolically at low depth and
numerically everywhere else.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from continued_roots import ContinuedRootApproximant, TruncatedSeries

from oracles import product

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
    rational_series = product(num, den.power(-1.0))
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
