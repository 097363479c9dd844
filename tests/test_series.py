"""Truncated-series arithmetic: examples, contracts, and invariants."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from continued_roots import TruncatedSeries, fit

from oracles import fractional_power, power, power_via_exp_log, product

# Test envelope for the tight (1e-12) identities: magnitude-1 coefficients
# and |s| <= 2 keep intermediate coefficient growth moderate at order 8.
coefficients = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
unit_series = st.lists(coefficients, min_size=0, max_size=8).map(
    lambda tail: TruncatedSeries((1.0, *tail))
)
powers = st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
)


class TestConstruction:
    def test_constant_only(self):
        series = TruncatedSeries((1.0,))
        assert series.order == 0
        assert series.coeffs == (1.0,)

    def test_short_expansion(self):
        series = TruncatedSeries((1.0, 0.25, 0.03125))
        assert series.order == 2
        assert series.coeffs[2] == 0.03125

    def test_longer_expansion(self):
        coeffs = [1.0, 1.0, -1 / 8, 1 / 32, -1 / 128, 3 / 2048]
        series = TruncatedSeries(tuple(coeffs))
        assert series.order == 5
        assert list(series.coeffs) == coeffs

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_coefficients_coerced_to_float(self):
        series = TruncatedSeries((1, 2, 3))
        assert all(isinstance(c, float) for c in series.coeffs)

    def test_huge_int_is_an_infinity(self):
        # an int such as 10**400 raised a bare OverflowError ("int too large
        # to convert to float"); it is now the infinity of its sign, which
        # fit rejects
        series = TruncatedSeries((1, 10**400, -(10**400), math.nan))
        assert series.coeffs[:3] == (1.0, math.inf, -math.inf)
        assert math.isnan(series.coeffs[3])
        message = "^fit requires finite coefficients; c1 is inf$"
        with pytest.raises(ValueError, match=message):
            fit(series, 0.5)

    def test_frozen(self):
        series = TruncatedSeries((1.0, 2.0))
        with pytest.raises(AttributeError):
            series.coeffs = (3.0,)


class TestProduct:
    def test_square_of_binomial(self):
        one_plus_x = TruncatedSeries((1.0, 1.0, 0.0))
        assert product(one_plus_x, one_plus_x).coeffs == (1.0, 2.0, 1.0)

    def test_multiply_by_one(self):
        series = TruncatedSeries((1.0, 1.0, 0.0, 0.0))
        unit = TruncatedSeries((1.0, 0.0, 0.0, 0.0))
        assert product(series, unit).coeffs == series.coeffs

    def test_truncation_drops_high_order(self):
        left = TruncatedSeries((1.0, 1.0, -1.0))
        right = TruncatedSeries((1.0, -1.0, 0.0))
        assert product(left, right).coeffs == (1.0, 0.0, -2.0)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError, match="different orders"):
            product(TruncatedSeries((1.0, 1.0)), TruncatedSeries((1.0, 1.0, 1.0)))

    def test_only_series_multiply(self):
        with pytest.raises(TypeError):
            product(TruncatedSeries((1.0, 1.0)), 2)

    @given(st.data())
    def test_commutative(self, data):
        order = data.draw(st.integers(min_value=0, max_value=8))
        tails = st.lists(coefficients, min_size=order, max_size=order)
        a = TruncatedSeries((1.0, *data.draw(tails)))
        b = TruncatedSeries((1.0, *data.draw(tails)))
        left = product(a, b).coeffs
        right = product(b, a).coeffs
        assert all(abs(x - y) <= 1e-12 for x, y in zip(left, right))

    @given(st.data())
    def test_associative(self, data):
        order = data.draw(st.integers(min_value=0, max_value=8))
        tails = st.lists(coefficients, min_size=order, max_size=order)
        a = TruncatedSeries((1.0, *data.draw(tails)))
        b = TruncatedSeries((1.0, *data.draw(tails)))
        c = TruncatedSeries((1.0, *data.draw(tails)))
        left = product(product(a, b), c).coeffs
        right = product(a, product(b, c)).coeffs
        assert all(abs(x - y) <= 1e-12 for x, y in zip(left, right))


class TestPower:
    def test_square_root_of_binomial(self):
        series = TruncatedSeries((1.0, 1.0, 0.0))
        assert power(series.coeffs, 0.5) == pytest.approx(
            (1.0, 0.5, -0.125), abs=1e-15
        )

    def test_reciprocal_of_binomial(self):
        series = TruncatedSeries((1.0, 1.0, 0.0, 0.0))
        assert power(series.coeffs, -1.0) == pytest.approx(
            (1.0, -1.0, 1.0, -1.0), abs=1e-15
        )

    def test_fractional_power_of_trinomial(self):
        # Frozen reference: exact coefficients of (1+x+x^2)**(2/5) are
        # 1, 2/5, 7/25, -22/125, 19/625, all dyadic-free but exactly
        # representable products of small rationals.
        series = TruncatedSeries((1.0, 1.0, 1.0, 0.0, 0.0))
        expected = (1.0, 0.4, 0.28, -0.176, 0.0304)
        assert power(series.coeffs, 0.4) == pytest.approx(expected, abs=1e-15)
        oracle = power_via_exp_log([1.0, 1.0, 1.0, 0.0, 0.0], 0.4)
        assert power(series.coeffs, 0.4) == pytest.approx(oracle, abs=1e-13)

    @given(unit_series, powers)
    def test_power_times_inverse_power_is_unit(self, series, s):
        unit = product(
            TruncatedSeries(tuple(power(series.coeffs, s))),
            TruncatedSeries(tuple(power(series.coeffs, -s))),
        ).coeffs
        assert abs(unit[0] - 1.0) <= 1e-12
        assert all(abs(c) <= 1e-12 for c in unit[1:])

    @given(unit_series)
    def test_power_one_is_identity(self, series):
        assert power(series.coeffs, 1.0) == pytest.approx(
            series.coeffs, abs=1e-14
        )

    @given(unit_series)
    def test_power_zero_is_unit(self, series):
        result = power(series.coeffs, 0.0)
        assert result[0] == 1.0
        assert all(c == 0.0 for c in result[1:])

    @given(
        unit_series,
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    def test_power_composition(self, series, a, b):
        outer = power(power(series.coeffs, a), b)
        direct = power(series.coeffs, a * b)
        assert all(abs(x - y) <= 1e-10 for x, y in zip(outer, direct))

    @given(
        st.lists(st.floats(min_value=-3.0, max_value=3.0), max_size=30),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    # the constant alone, with no order to walk, and one order, whose step
    # stores nothing and whose coefficient comes from the last-order store
    @example([], 0.5)
    @example([0.75], -1.5)
    # an infinite coefficient: the kernel's zero comes from the factors,
    # where one drawn from the coefficients would be NaN
    @example([math.inf, 0.5], -0.5)
    def test_power_matches_former_kernel_bitwise(self, tail, s):
        series = TruncatedSeries((1.0, *tail))
        assert [c.hex() for c in power(series.coeffs, s)] == [
            c.hex() for c in fractional_power(list(series.coeffs), s)
        ]

    @given(unit_series, powers)
    def test_power_matches_exp_log_oracle(self, series, s):
        oracle = power_via_exp_log(list(series.coeffs), s)
        assert all(
            abs(x - y) <= 1e-11 for x, y in zip(power(series.coeffs, s), oracle)
        )


class TestEvaluate:
    def test_polynomial_value(self):
        series = TruncatedSeries((1.0, 2.0, 3.0))
        assert series.evaluate(2.0) == 1.0 + 4.0 + 12.0

    def test_value_at_zero_is_constant_term(self):
        series = TruncatedSeries((1.0, 5.0, -7.0))
        assert series.evaluate(0.0) == 1.0

    def test_matches_direct_sum(self):
        series = TruncatedSeries((1.0, -0.5, 0.25, -0.125))
        x = 0.7
        expected = sum(c * x**n for n, c in enumerate(series.coeffs))
        assert series.evaluate(x) == pytest.approx(expected, rel=1e-15)


def test_geometric_series_power_identity():
    # (1-x)**-1 truncates to the geometric series at any order
    order = 10
    series = TruncatedSeries((1.0, -1.0) + (0.0,) * (order - 1))
    assert power(series.coeffs, -1.0) == pytest.approx(
        tuple(1.0 for _ in range(order + 1)), abs=1e-13
    )


def test_sqrt_numerical_consistency():
    # the truncation evaluated at small x approaches the closed form
    series = TruncatedSeries((1.0, 1.0) + (0.0,) * 14)
    root = TruncatedSeries(tuple(power(series.coeffs, 0.5)))
    x = 0.01
    assert root.evaluate(x) == pytest.approx(math.sqrt(1.0 + x), abs=1e-15)
