"""Truncated-series arithmetic: examples, contracts, and invariants."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from continued_roots import TruncatedSeries

from oracles import fractional_power, power_via_exp_log

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
        assert series[2] == 0.03125

    def test_longer_expansion(self):
        coeffs = [1.0, 1.0, -1 / 8, 1 / 32, -1 / 128, 3 / 2048]
        series = TruncatedSeries(tuple(coeffs))
        assert series.order == 5
        assert list(series) == coeffs

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_coefficients_coerced_to_float(self):
        series = TruncatedSeries((1, 2, 3))
        assert all(isinstance(c, float) for c in series.coeffs)

    def test_frozen(self):
        series = TruncatedSeries((1.0, 2.0))
        with pytest.raises(AttributeError):
            series.coeffs = (3.0,)


class TestProduct:
    def test_square_of_binomial(self):
        one_plus_x = TruncatedSeries((1.0, 1.0, 0.0))
        assert (one_plus_x * one_plus_x).coeffs == (1.0, 2.0, 1.0)

    def test_multiply_by_one(self):
        series = TruncatedSeries((1.0, 1.0, 0.0, 0.0))
        unit = TruncatedSeries((1.0, 0.0, 0.0, 0.0))
        assert (series * unit).coeffs == series.coeffs

    def test_truncation_drops_high_order(self):
        left = TruncatedSeries((1.0, 1.0, -1.0))
        right = TruncatedSeries((1.0, -1.0, 0.0))
        assert (left * right).coeffs == (1.0, 0.0, -2.0)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError, match="different orders"):
            TruncatedSeries((1.0, 1.0)) * TruncatedSeries((1.0, 1.0, 1.0))

    def test_only_series_multiply(self):
        with pytest.raises(TypeError):
            TruncatedSeries((1.0, 1.0)) * 2

    @given(st.data())
    def test_commutative(self, data):
        order = data.draw(st.integers(min_value=0, max_value=8))
        tails = st.lists(coefficients, min_size=order, max_size=order)
        a = TruncatedSeries((1.0, *data.draw(tails)))
        b = TruncatedSeries((1.0, *data.draw(tails)))
        left = (a * b).coeffs
        right = (b * a).coeffs
        assert all(abs(x - y) <= 1e-12 for x, y in zip(left, right))

    @given(st.data())
    def test_associative(self, data):
        order = data.draw(st.integers(min_value=0, max_value=8))
        tails = st.lists(coefficients, min_size=order, max_size=order)
        a = TruncatedSeries((1.0, *data.draw(tails)))
        b = TruncatedSeries((1.0, *data.draw(tails)))
        c = TruncatedSeries((1.0, *data.draw(tails)))
        left = ((a * b) * c).coeffs
        right = (a * (b * c)).coeffs
        assert all(abs(x - y) <= 1e-12 for x, y in zip(left, right))


class TestPower:
    def test_square_root_of_binomial(self):
        series = TruncatedSeries((1.0, 1.0, 0.0))
        assert series.power(0.5).coeffs == pytest.approx(
            (1.0, 0.5, -0.125), abs=1e-15
        )

    def test_reciprocal_of_binomial(self):
        series = TruncatedSeries((1.0, 1.0, 0.0, 0.0))
        assert series.power(-1.0).coeffs == pytest.approx(
            (1.0, -1.0, 1.0, -1.0), abs=1e-15
        )

    def test_fractional_power_of_trinomial(self):
        # Frozen reference: exact coefficients of (1+x+x^2)**(2/5) are
        # 1, 2/5, 7/25, -22/125, 19/625, all dyadic-free but exactly
        # representable products of small rationals.
        series = TruncatedSeries((1.0, 1.0, 1.0, 0.0, 0.0))
        expected = (1.0, 0.4, 0.28, -0.176, 0.0304)
        assert series.power(0.4).coeffs == pytest.approx(expected, abs=1e-15)
        oracle = power_via_exp_log([1.0, 1.0, 1.0, 0.0, 0.0], 0.4)
        assert series.power(0.4).coeffs == pytest.approx(oracle, abs=1e-13)

    def test_non_unit_constant_rejected(self):
        with pytest.raises(ValueError, match="constant term 1"):
            TruncatedSeries((2.0, 1.0)).power(0.5)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_rejected(self, exponent):
        # the recurrence would return NaN or infinite coefficients
        message = f"^series power requires a finite exponent, got {exponent!r}$"
        with pytest.raises(ValueError, match=message):
            TruncatedSeries((1.0, 0.5, -0.25)).power(exponent)

    @given(unit_series, powers)
    def test_power_times_inverse_power_is_unit(self, series, s):
        product = series.power(s) * series.power(-s)
        assert abs(product[0] - 1.0) <= 1e-12
        assert all(abs(c) <= 1e-12 for c in product.coeffs[1:])

    @given(unit_series)
    def test_power_one_is_identity(self, series):
        assert series.power(1.0).coeffs == pytest.approx(
            series.coeffs, abs=1e-14
        )

    @given(unit_series)
    def test_power_zero_is_unit(self, series):
        result = series.power(0.0).coeffs
        assert result[0] == 1.0
        assert all(c == 0.0 for c in result[1:])

    @given(
        unit_series,
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    def test_power_composition(self, series, a, b):
        outer = series.power(a).power(b)
        direct = series.power(a * b)
        assert all(
            abs(x - y) <= 1e-10 for x, y in zip(outer.coeffs, direct.coeffs)
        )

    @given(
        st.lists(st.floats(min_value=-3.0, max_value=3.0), max_size=30),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    # the constant alone, with no order to walk, and one order, whose step
    # stores nothing and whose coefficient comes from the last-order store
    @example([], 0.5)
    @example([0.75], -1.5)
    def test_power_matches_former_kernel_bitwise(self, tail, s):
        series = TruncatedSeries((1.0, *tail))
        assert [c.hex() for c in series.power(s).coeffs] == [
            c.hex() for c in fractional_power(list(series.coeffs), s)
        ]

    @given(unit_series, powers)
    def test_power_matches_exp_log_oracle(self, series, s):
        oracle = power_via_exp_log(list(series.coeffs), s)
        assert all(
            abs(x - y) <= 1e-11 for x, y in zip(series.power(s).coeffs, oracle)
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
    assert series.power(-1.0).coeffs == pytest.approx(
        tuple(1.0 for _ in range(order + 1)), abs=1e-13
    )


def test_sqrt_numerical_consistency():
    # the truncation evaluated at small x approaches the closed form
    series = TruncatedSeries((1.0, 1.0) + (0.0,) * 14)
    root = series.power(0.5)
    x = 0.01
    assert root.evaluate(x) == pytest.approx(math.sqrt(1.0 + x), abs=1e-15)
