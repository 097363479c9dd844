"""Fitting, evaluation, and asymptotics of the nested-root form."""

import copy
import math
import pickle
import random
import re
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from continued_roots import (
    AmplitudeResult,
    ComplexBreakdownError,
    ContinuedRootApproximant,
    ContinuedRootError,
    ExponentTarget,
    RealnessError,
    TruncatedSeries,
    VanishingSensitivityError,
    backend_name,
    exponent_to_power,
    finite_order_exponent,
    fit,
    fit_sequence,
    power_to_exponent,
    problem,
    sequence_report,
    string_coefficients,
    string_coefficients_exact,
)
from continued_roots import _backend, approximant

from oracles import (
    Bounded,
    affine_fit,
    assert_power_rejected,
    expansion_with_error,
    fractional_power,
    nested_evaluate,
    nested_expansion,
    power,
    power_in_domain,
    reference_fit,
)

# Powers and parameters bounded away from 0 keep the instance family
# well conditioned at typical depths.
nonzero_powers = st.one_of(
    st.floats(min_value=0.1, max_value=0.95),
    st.floats(min_value=-0.95, max_value=-0.1),
)
nonzero_params = st.one_of(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=-2.0, max_value=-0.05),
)
param_lists = st.lists(nonzero_params, min_size=1, max_size=8)

# The fit must reproduce the reference peel on any input of the power's
# domain, the reciprocal power -1 included.
any_powers = st.one_of(nonzero_powers, st.just(-1.0))
# Powers outside the domain -1 <= s < 1, s != 0, which every entry point
# rejects alike: the ranges and values the bitwise tests once drew there.
outside_powers = st.one_of(
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=-1.0, exclude_max=True),
    st.sampled_from([0.0, -0.0, 0, 1, 2, -2, math.nan, math.inf, -math.inf]),
)
deep_param_lists = st.lists(nonzero_params, min_size=1, max_size=24)
# Parameters for comparisons with the former kernels: either sign, and
# exactly zero, which cuts the chain.
any_params = st.lists(
    st.one_of(nonzero_params, st.sampled_from([0.0, -0.0])), min_size=1, max_size=24
)
free_coefficients = st.lists(
    st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=24
)


def fit_outcome(fitter, series, s):
    """Parameters as float.hex, which tells -0.0 from 0.0, or the error."""
    try:
        return [a.hex() for a in fitter(series, s).params]
    except ContinuedRootError as err:
        cut = getattr(err, "cut", None)
        return (
            type(err),
            getattr(err, "order", None),
            None if cut is None else cut.hex(),
            str(err),
        )


class TestExponentAlgebra:
    def test_exponent_to_power_examples(self):
        assert exponent_to_power(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert exponent_to_power(2.0 / 3.0) == pytest.approx(0.4, abs=1e-15)
        assert exponent_to_power(0.0) == 0.0
        assert exponent_to_power(1.0) == 0.5

    def test_exponent_to_power_domain(self):
        with pytest.raises(ValueError, match="-1/2"):
            exponent_to_power(-0.5)
        with pytest.raises(ValueError):
            exponent_to_power(-3.0)

    @pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
    def test_exponent_to_power_rejects_non_finite(self, exponent):
        # inf / (1 + inf) would be NaN rather than an error
        message = f"^target exponent must be finite, got {exponent!r}$"
        with pytest.raises(ValueError, match=message):
            exponent_to_power(exponent)

    @pytest.mark.parametrize(
        "exponent",
        [9007199779152872.0, 1e16, 1e17, 2.0**63, 10**400],
        ids=["first", "1e16", "1e17", "2**63", "10**400"],
    )
    def test_exponent_to_power_rejects_a_beta_whose_power_rounds_to_one(
        self, exponent
    ):
        # beta / (1 + beta) rounds to 1.0 from 9007199779152872.0 up; an int
        # beyond the float range has no float sum at all
        message = (
            f"target exponent must leave beta / (1 + beta) below 1, got {exponent!r}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exponent_to_power(exponent)

    def test_exponent_to_power_just_below_the_rounding(self):
        assert exponent_to_power(math.nextafter(9007199779152872.0, 0.0)) < 1.0

    def test_power_to_exponent_examples(self):
        assert power_to_exponent(0.5) == pytest.approx(1.0, abs=1e-15)
        assert power_to_exponent(0.0) == 0.0
        assert power_to_exponent(-1.0 / 3.0) == pytest.approx(-0.25, abs=1e-15)

    def test_power_to_exponent_domain(self):
        for bad in (1.0, -1.0, 2.5):
            with pytest.raises(ValueError, match="s"):
                power_to_exponent(bad)

    @given(st.floats(min_value=-0.49, max_value=10.0))
    def test_round_trip_through_power(self, beta):
        # the back map amplifies the rounding of the intermediate power
        # by a factor that grows with beta, so the bound scales with it
        assert power_to_exponent(exponent_to_power(beta)) == pytest.approx(
            beta, abs=1e-14 * max(1.0, abs(beta))
        )

    @given(st.floats(min_value=-0.999, max_value=0.999))
    def test_round_trip_through_exponent(self, s):
        assert exponent_to_power(power_to_exponent(s)) == pytest.approx(
            s, abs=1e-14
        )

    def test_finite_order_examples(self):
        assert finite_order_exponent(2.0 / 3.0, 2) == pytest.approx(
            10.0 / 9.0, abs=1e-15
        )
        assert finite_order_exponent(-1.0, 2) == 0.0
        assert finite_order_exponent(-1.0, 3) == -1.0

    def test_finite_order_approaches_target(self):
        s = exponent_to_power(2.0)
        assert finite_order_exponent(s, 200) == pytest.approx(2.0, abs=1e-12)

    @given(
        st.one_of(
            st.floats(min_value=-0.95, max_value=-0.05),
            st.floats(min_value=0.05, max_value=0.95),
        ),
        st.integers(min_value=1, max_value=30),
    )
    def test_finite_order_matches_direct_sum(self, s, k):
        direct = sum(s**n for n in range(1, k + 1))
        assert finite_order_exponent(s, k) == pytest.approx(direct, abs=1e-12)

    def test_finite_order_domain(self):
        with pytest.raises(ValueError, match="order"):
            finite_order_exponent(0.5, 0)

    @pytest.mark.parametrize("order", [2.5, 3.0, "3", None], ids=repr)
    def test_finite_order_non_integer_order_rejected(self, order):
        # 2.5 gave 0.8232233047033631 with no error
        message = f"^order must be an integer, got {re.escape(repr(order))}$"
        with pytest.raises(ValueError, match=message):
            finite_order_exponent(0.5, order)

    def test_finite_order_beyond_float_range_names_the_order(self):
        order = 10**400
        with pytest.raises(ValueError, match=f"^order {order} leaves the float"):
            finite_order_exponent(0.5, order)

    @pytest.mark.parametrize("k", [1, 2, 3, 1000, 10**6])
    def test_finite_order_within_the_float_range(self, k):
        # in the domain |s**(k+1)| <= 1 and 1 - s >= 2**-53, so the
        # quotient is at most 2**54; s just below 1 comes closest
        s = math.nextafter(1.0, 0.0)
        assert abs(finite_order_exponent(s, k)) <= 2.0**54
        assert abs(finite_order_exponent(-1.0, k)) <= 1.0


class TestExponentTarget:
    def test_holds_amplitude(self):
        target = ExponentTarget(2.0, 0.064683)
        assert target.amplitude == 0.064683

    def test_amplitude_optional(self):
        assert ExponentTarget(1.0).amplitude is None

    def test_exponent_domain(self):
        with pytest.raises(ValueError, match="-1/2"):
            ExponentTarget(-0.5)

    def test_exponent_whose_power_rounds_to_one_rejected(self):
        message = "target exponent must leave beta / (1 + beta) below 1, got 1e+17"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExponentTarget(1e17)

    @pytest.mark.parametrize("amplitude", [0, 0.0, -0.0])
    def test_zero_amplitude_rejected(self, amplitude):
        # it is the baseline of the percent error
        with pytest.raises(ValueError, match="known amplitude must be non-zero"):
            ExponentTarget(1.0, amplitude)

    @pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, exponent):
        message = f"^target exponent must be finite, got {exponent!r}$"
        with pytest.raises(ValueError, match=message):
            ExponentTarget(exponent, 1.0)

    @pytest.mark.parametrize(
        "amplitude",
        [math.inf, -math.inf, math.nan, pytest.param(10**400, id="10**400")],
    )
    def test_non_finite_amplitude_rejected(self, amplitude):
        # a non-finite baseline would make every percent error NaN
        message = f"^known amplitude must be finite, got {amplitude!r}$"
        with pytest.raises(ValueError, match=message):
            ExponentTarget(2.0, amplitude)


    @pytest.mark.parametrize(
        "amplitude",
        [sys.float_info.max, -sys.float_info.max, int(sys.float_info.max)],
        ids=["max", "-max", "int"],
    )
    def test_largest_finite_amplitude_accepted(self, amplitude):
        assert ExponentTarget(2.0, amplitude).amplitude is amplitude


class TestConstruction:
    def test_order_and_realness(self):
        approx = ContinuedRootApproximant(0.5, (1.0, 2.0, 0.0))
        assert approx.order == 3
        assert approx.is_real_valued

    def test_negative_param_not_real(self):
        assert not ContinuedRootApproximant(0.5, (1.0, -2.0)).is_real_valued

    def test_needs_parameters(self):
        with pytest.raises(ValueError, match="parameter"):
            ContinuedRootApproximant(0.5, ())

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_rejected(self, power):
        # expand would return non-finite coefficients; fit rejects the same
        message = f"^nesting power must be finite, got {power!r}$"
        with pytest.raises(ValueError, match=message):
            ContinuedRootApproximant(power, (1.0, 0.5))

    def test_non_finite_params_allowed(self):
        approx = ContinuedRootApproximant(0.5, (math.nan, math.inf, -math.inf))
        assert approx.order == 3

    def test_huge_int_param_is_an_infinity(self):
        # an int such as 10**400 raised a bare OverflowError ("int too large
        # to convert to float"); the form now holds it as the infinity of
        # its sign
        approx = ContinuedRootApproximant(0.5, (10**400, -(10**400), 2))
        assert approx.params == (math.inf, -math.inf, 2.0)
        with pytest.raises(ValueError, match="^expansion coefficient c1 is inf, "):
            approx.expand(2)


# An int too large for a float is not finite either: each entry point that
# takes a power says so in its own words, not with a bare OverflowError.
@pytest.mark.parametrize("power", [10**400, -(10**400)], ids=["+", "-"])
@pytest.mark.parametrize(
    "call, lead",
    [
        (
            lambda p: fit(TruncatedSeries((1.0, 0.5, 0.1)), p),
            "nesting power must be finite",
        ),
        (
            lambda p: ContinuedRootApproximant(p, (1.0,)),
            "nesting power must be finite",
        ),
    ],
    ids=["fit", "constructor"],
)
def test_huge_int_power_is_a_value_error(call, lead, power):
    with pytest.raises(ValueError, match=f"^{re.escape(lead)}, got {power}$"):
        call(power)


@pytest.mark.parametrize(
    "power, message",
    [
        (2.5, "nesting power must satisfy -1 <= s < 1, got 2.5"),
        (1.0, "nesting power must satisfy -1 <= s < 1, got 1.0"),
        (-1.5, "nesting power must satisfy -1 <= s < 1, got -1.5"),
        (0.0, "nesting power must be non-zero"),
        (math.nan, "nesting power must be finite, got nan"),
        (math.inf, "nesting power must be finite, got inf"),
        (10**400, f"nesting power must be finite, got {10**400}"),
    ],
    ids=["2.5", "1.0", "-1.5", "0.0", "nan", "inf", "10**400"],
)
def test_one_check_rejects_a_power_outside_the_domain(power, message):
    assert not power_in_domain(power)
    assert_power_rejected(power)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ContinuedRootApproximant(power, (1.0,))


# the former out-of-domain draws of the bitwise tests, TestDeepBitwise's
# s = 2.5 and evaluate's integer powers among them
@given(outside_powers)
@example(2.5)
@example(3.0)
@example(-2.0)
def test_every_entry_point_rejects_a_power_outside_the_domain(power):
    assert not power_in_domain(power)
    assert_power_rejected(power)


@pytest.mark.parametrize(
    "power",
    [-1.0, -1, math.nextafter(-1.0, 0.0), -1e-3, 1e-3, 0.5, math.nextafter(1.0, 0.0)],
)
def test_every_power_in_the_domain_is_accepted(power):
    assert power_in_domain(power)
    series = TruncatedSeries((1.0, 0.5, 0.1))
    assert fit(series, power).power == float(power)
    assert ContinuedRootApproximant(power, (1.0, 0.5)).power == float(power)
    assert math.isfinite(finite_order_exponent(power, 2))


class TestExpand:
    def test_depth_one(self):
        approx = ContinuedRootApproximant(0.4, (2.5,))
        series = approx.expand(1)
        assert series.coeffs[0] == 1.0
        assert series.coeffs[1] == pytest.approx(1.0, abs=1e-15)

    def test_depth_two_closed_form(self):
        # (1 + A1 x (1 + A2 x)**s)**s has linear coefficient s*A1 and
        # quadratic coefficient s*A1*A2*s + s*(s-1)/2*A1**2
        s, a1, a2 = 0.7, 1.3, -0.4
        series = ContinuedRootApproximant(s, (a1, a2)).expand(2)
        assert series.coeffs[1] == pytest.approx(s * a1, rel=1e-14)
        expected_2 = s * a1 * a2 * s + s * (s - 1.0) / 2.0 * a1 * a1
        assert series.coeffs[2] == pytest.approx(expected_2, rel=1e-13)

    def test_linear_coefficient_ignores_deeper_params(self):
        s = 2.0 / 3.0
        for inner in (0.0, 1.0, 7.5):
            series = ContinuedRootApproximant(s, (0.375, inner)).expand(1)
            assert series.coeffs[1] == pytest.approx(0.25, abs=1e-15)

    def test_beyond_depth_is_induced_not_zero(self):
        series = ContinuedRootApproximant(0.5, (1.0,)).expand(3)
        # (1+x)**0.5 continues -1/8, 1/16 beyond the fitted orders
        assert series.coeffs == pytest.approx(
            (1.0, 0.5, -0.125, 0.0625), abs=1e-15
        )

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ContinuedRootApproximant(0.5, (1.0,)).expand(-1)

    @pytest.mark.parametrize("order", [2.5, 2.0, math.nan], ids=repr)
    def test_non_integer_order_rejected(self, order):
        # range() raised a bare TypeError
        message = f"^expansion order must be an integer, got {order!r}$"
        with pytest.raises(ValueError, match=message):
            ContinuedRootApproximant(0.5, (1.0,)).expand(order)

    @pytest.mark.parametrize(
        "params, order, message",
        [
            ((math.nan,), 3, "c1 is nan"),
            ((1.0, math.inf), 3, "c2 is inf"),
            ((-math.inf,), 0, None),
            # c1 = 5e+199 is finite, c2 = 1e400 / 8 - 1e400 / 4 is not
            ((1e200, 1e200), 4, "c2 is nan"),
        ],
        ids=["nan", "inf-inner", "order-0", "overflow"],
    )
    def test_non_finite_coefficient_names_the_first(self, params, order, message):
        # each gave NaN or infinite coefficients with no error
        approx = ContinuedRootApproximant(0.5, params)
        if message is None:  # an expansion past no parameter stays 1
            assert approx.expand(order).coeffs == (1.0,)
            return
        with pytest.raises(ValueError, match=f"^expansion coefficient {message}, "):
            approx.expand(order)

    def test_fitted_form_whose_expansion_overflows(self):
        # hypothesis drew it for TestFittedExpansion: c12 was NaN
        series = TruncatedSeries((1.0, 2.757748480645497e-26, 1.0) + (0.0,) * 8)
        form = fit(series, 0.125)
        assert all(math.isfinite(a) for a in form.params)
        with pytest.raises(ValueError, match="^expansion coefficient c12 is "):
            form.expand(12)


class TestFit:
    def test_first_two_orders_closed_form(self):
        # the first benchmark expansion with s = 2/5 gives A1 = a1/s = 2.5
        # and A2 = ((1-s) a1**2 + 2 s a2) / (2 s**2 a1) = 1.5625
        series = TruncatedSeries((1.0, 1.0, -0.125))
        approx = fit(series, 0.4)
        assert approx.params[0] == pytest.approx(2.5, rel=1e-13)
        assert approx.params[1] == pytest.approx(1.5625, rel=1e-13)

    def test_polaron_series_closed_form(self):
        # s = 1/2 on the two-coefficient polaron expansion; reference
        # values come from the same closed forms evaluated by hand
        series = TruncatedSeries((1.0, 1.591962e-2, 0.806070e-3))
        approx = fit(series, 0.5)
        assert approx.params[0] == pytest.approx(3.183924e-2, rel=1e-13)
        assert approx.params[1] == pytest.approx(
            0.11718711256577732, rel=1e-13
        )
        assert approx.amplitude().amplitude == pytest.approx(
            0.1044, abs=5e-5
        )

    @given(
        nonzero_powers,
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_depth_two_matches_closed_form(self, s, a1, a2):
        approx = fit(TruncatedSeries((1.0, a1, a2)), s)
        expected_a1 = a1 / s
        expected_a2 = ((1.0 - s) * a1 * a1 + 2.0 * s * a2) / (
            2.0 * s * s * a1
        )
        assert approx.params[0] == pytest.approx(expected_a1, rel=1e-12)
        assert approx.params[1] == pytest.approx(
            expected_a2, rel=1e-10, abs=1e-12
        )

    def test_deep_fit_round_trips(self):
        coeffs = string_coefficients(13)
        series = TruncatedSeries(tuple(coeffs))
        approx = fit(series, exponent_to_power(2.0))
        back = approx.expand(13)
        for original, recovered in zip(coeffs, back.coeffs):
            assert math.isclose(
                recovered, original, rel_tol=1e-10, abs_tol=1e-14
            )

    @pytest.mark.parametrize("c1", [1e13, 2e13, 1e300])
    def test_large_linear_coefficient_fits(self, c1):
        # A1 = c1 / s, whatever the size of c1
        s = exponent_to_power(2.0)
        assert fit(TruncatedSeries((1.0, c1)), s).params == (c1 / s,)

    def test_string_depth_twenty_within_float_rounding_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        prob = problem("fluid_string")
        s = exponent_to_power(prob.target_exponent)
        coeffs = prob.coefficients(20)
        params = fit(TruncatedSeries(tuple(coeffs)), s).params
        assert params[13] == -0.8493983206028883
        with mpmath.workdps(60):
            want = affine_fit([mpmath.mpf(c) for c in coeffs], mpmath.mpf(s))
            # measured: 1.7e-12, the largest over A1..A20
            for got, a in zip(params, want):
                assert abs((got - a) / a) <= 2e-12

    def test_zero_linear_coefficient_degenerate(self):
        # a zero c1 fits A1 = 0, which cuts the chain at order 2
        assert fit(TruncatedSeries((1.0, 0.0)), 0.5).params == (0.0,)
        with pytest.raises(VanishingSensitivityError) as excinfo:
            fit(TruncatedSeries((1.0, 0.0, 0.5)), 0.5)
        assert (excinfo.value.order, excinfo.value.cut) == (2, 0.0)

    @pytest.mark.parametrize("s", [0.5, -1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_parameter_cuts_the_chain_alike_at_every_order(self, n, s):
        # the expansion of a form whose A_n is 0, one order past it
        params = (2.0, 1.0)[: n - 1] + (0.0, 1.5)
        coeffs = ContinuedRootApproximant(s, params).expand(n + 1).coeffs
        assert fit(TruncatedSeries(coeffs[: n + 1]), s).params == params[:n]
        with pytest.raises(VanishingSensitivityError) as excinfo:
            fit(TruncatedSeries(coeffs), s)
        assert (excinfo.value.order, excinfo.value.cut) == (n + 1, 0.0)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            fit(TruncatedSeries((1.0, 1.0)), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [1, 2])
    def test_non_finite_coefficient_rejected(self, bad, index):
        coeffs = [1.0, 0.5, 0.1]
        coeffs[index] = bad
        with pytest.raises(ValueError, match=f"finite coefficients; c{index} is"):
            fit(TruncatedSeries(tuple(coeffs)), 0.5)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="nesting power must be finite"):
            fit(TruncatedSeries((1.0, 0.5, 0.1)), power)

    def test_unnormalised_series_rejected(self):
        with pytest.raises(ValueError, match="constant term 1"):
            fit(TruncatedSeries((2.0, 1.0)), 0.5)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="linear"):
            fit(TruncatedSeries((1.0,)), 0.5)

    def test_vanishing_sensitivity_names_order(self):
        # choosing a2 = -(1-s) a1**2 / (2 s) forces A2 = 0, which cuts the
        # chain: the cubic coefficient then cannot respond to A3
        s, a1 = 0.5, 1.0
        a2 = -(1.0 - s) * a1 * a1 / (2.0 * s)
        with pytest.raises(VanishingSensitivityError) as excinfo:
            fit(TruncatedSeries((1.0, a1, a2, 0.1)), s)
        assert excinfo.value.order == 3

    @given(st.data())
    def test_round_trip_from_known_instance(self, data):
        s = data.draw(nonzero_powers)
        params = data.draw(param_lists)
        k = len(params)
        original = ContinuedRootApproximant(s, tuple(params))
        series = original.expand(k)
        refit = fit(series, s)
        assert refit.order == k
        back = refit.expand(k)
        for want, got in zip(series.coeffs, back.coeffs):
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)

    @given(nonzero_powers, param_lists)
    # coefficients near -1.018e4 that differ by only 3e-2: the float64
    # residual, 3.6e-12, is 1.2e-10 of the difference, so only a bound
    # built from the computation itself holds here
    @example(-0.90625, [2.0, 2.0, 1.0, 0.25, 0.25, 0.125, 1.0])
    def test_coefficient_affine_in_its_parameter(self, s, params):
        n = len(params)
        # trial 0 would make the params tuple end in zero, which is fine
        # for expansion even though it is degenerate for fitting
        lo, mid, hi = (
            Bounded(
                ContinuedRootApproximant(s, (*params[:-1], trial)).expand(n).coeffs[n],
                expansion_with_error(params[:-1] + [trial], s, n)[1],
            )
            for trial in (0.0, 1.0, 2.0)
        )
        # exactly, hi - lo - 2 (mid - lo) = hi - 2 mid + lo vanishes; each
        # value lies within its running error bound of the exact one, and
        # the combination carries those bounds through its own roundings
        residual = (hi - lo) - 2.0 * (mid - lo)
        assert abs(residual.value) <= residual.error

    @given(nonzero_powers, param_lists)
    @example(-0.90625, [2.0, 2.0, 1.0, 0.25, 0.25, 0.125, 1.0])
    def test_expansion_within_rounding_bound(self, s, params):
        # the bound that the affine check relies on, for the bits that
        # expand computes, against the same recurrence run exactly on the
        # inputs' binary values, in Fraction arithmetic
        n = len(params)
        got = ContinuedRootApproximant(s, tuple(params)).expand(n).coeffs[n]
        value, bound = expansion_with_error(params, s, n)
        assert value.hex() == got.hex()
        exact = approximant.nested_expansion([*map(Fraction, params)], Fraction(s), n)
        assert type(exact[n]) is Fraction
        assert abs(Fraction(got) - exact[n]) <= bound

    @given(st.data())
    def test_low_coefficients_insulated_from_deep_params(self, data):
        s = data.draw(nonzero_powers)
        params = list(data.draw(st.lists(nonzero_params, min_size=2, max_size=8)))
        m = data.draw(st.integers(min_value=1, max_value=len(params) - 1))
        baseline = ContinuedRootApproximant(s, tuple(params)).expand(m)
        params[m] += 1.5
        perturbed = ContinuedRootApproximant(s, tuple(params)).expand(m)
        # coefficients through order m depend only on the first m params,
        # exactly, so this holds bitwise
        assert baseline.coeffs[: m + 1] == perturbed.coeffs[: m + 1]


class TestFitMatchesReference:
    @given(any_powers, deep_param_lists)
    @example(-1.0, [1.0, -0.5, 2.0, 0.25])
    @example(0.5, [1.0, 0.0, 0.5, 1.0])
    # depths 1 and 2 with a zero parameter: the innermost level starts empty
    @example(-1.0, [0.0])
    @example(-1.0, [1.0, 0.0])
    @example(-1.0, [0.0, 1.0])
    def test_known_instance_bitwise(self, s, params):
        series = ContinuedRootApproximant(s, tuple(params)).expand(len(params))
        assert fit_outcome(fit, series, s) == fit_outcome(reference_fit, series, s)

    @given(any_powers, free_coefficients)
    # at -1 < s < 0 every factor (1/s + 1) j - m is negative, and A3's sums
    # here hold -0.0 terms or cancel: summed from +0.0, like the former
    # literal 0.0, A3 is +0.0 (it would be -0.0 from -0.0), and the cut
    # one order on names it
    @example(-0.5, [1.0, 0.5, 1.0])
    @example(-0.5, [1.0, 0.5, 1.0, 0.0])
    def test_free_series_bitwise(self, s, coeffs):
        series = TruncatedSeries((1.0, *coeffs))
        assert fit_outcome(fit, series, s) == fit_outcome(reference_fit, series, s)

    @pytest.mark.parametrize("name", ["fluid_string", "nls_coherent_modes"])
    def test_builtin_problems_bitwise(self, name):
        prob = problem(name)
        s = exponent_to_power(prob.target_exponent)
        for k in range(1, (prob.max_order or 16) + 1):
            series = TruncatedSeries(tuple(prob.coefficients(k)))
            assert fit_outcome(fit, series, s) == fit_outcome(reference_fit, series, s)

    def test_string_depth_fourteen_matches(self):
        # the slope s**14 A1...A13 is 3.8e-15, small but real: A14 is
        # negative, as in exact arithmetic
        prob = problem("fluid_string")
        series = TruncatedSeries(tuple(prob.coefficients(14)))
        got = fit_outcome(fit, series, exponent_to_power(prob.target_exponent))
        want = fit_outcome(
            reference_fit, series, exponent_to_power(prob.target_exponent)
        )
        assert got == want
        assert got[13] == (-0.8493983206028883).hex()

    @pytest.mark.parametrize(
        "s, coeffs, order",
        [
            # A1 = -1.1e-308, and 2.0 / A1 leaves the float range: the next
            # level's power meets an infinite coefficient, beside which a
            # zero drawn from the coefficients would be NaN
            (-1.0, (1.0, 1.1125369292536007e-308, 2.0), 2),
            # A1 = 2e308 itself leaves the float range
            (0.5, (1.0, 1e308, 0.1), 1),
        ],
    )
    def test_overflow_cuts_the_chain_at_its_order(self, s, coeffs, order):
        series = TruncatedSeries(coeffs)
        got = fit_outcome(fit, series, s)
        assert got == fit_outcome(reference_fit, series, s)
        assert got[:2] == (VanishingSensitivityError, order)
        assert f"parameter {order} leaves the float range" in got[3]

    def test_zero_parameter_error_matches(self):
        # A2 fits to exactly zero, so the cubic slope is exactly zero
        s = 0.5
        series = ContinuedRootApproximant(s, (1.0, 0.0, 0.5)).expand(3)
        got = fit_outcome(fit, series, s)
        assert got == fit_outcome(reference_fit, series, s)
        assert got[:3] == (VanishingSensitivityError, 3, (0.0).hex())


def _convolve(a: list, b: list) -> list:
    """Cauchy product of two series of one length, truncated to it."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


class TestExactAndHighPrecisionRuns:
    """The one recurrence and peel run on Fraction and mpmath inputs, checked
    against algebra the tests compute apart from them."""

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_powers_are_exact_products(self, seed):
        rng = random.Random(seed)
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(seed + 5)]
        full = [Fraction(1), *u]

        def power(sigma):
            return approximant._power(u, approximant._factors(Fraction(sigma), len(u)))

        assert power(2) == _convolve(full, full)
        assert power(3) == _convolve(_convolve(full, full), full)
        assert _convolve(full, power(-1)) == [1] + [0] * len(u)

    def test_string_depth_fourteen_negative_in_exact_arithmetic(self):
        # the peel of the exact series at the exact s = 2/3: A14 < 0 comes
        # from the series, not from rounding, and the float fit lies within
        # 1e-13 relative of every exact parameter (measured: at most
        # 6.3e-14, about 570 u, at A14; the bound rounds it up)
        exact = approximant._peel(string_coefficients_exact(14)[1:], Fraction(2, 3))
        assert type(exact[13]) is Fraction
        assert float(exact[13]) == -0.8493983206028345
        series = TruncatedSeries(tuple(problem("fluid_string").coefficients(14)))
        params = fit(series, exponent_to_power(2.0)).params
        assert params[13] == -0.8493983206028883
        for got, want in zip(params, exact):
            assert abs((Fraction(got) - want) / want) <= Fraction(1, 10**13)

    @staticmethod
    def assert_peel_matches_affine_fit(mpmath, coeffs, s):
        # both at 50 digits; measured: 1.5e-45 on fluid_string at K = 20 and
        # at most 1.6e-43 over 1000 draws of the corpus below
        with mpmath.workdps(50):
            got = approximant._peel([mpmath.mpf(c) for c in coeffs[1:]], mpmath.mpf(s))
            want = affine_fit([mpmath.mpf(c) for c in coeffs], mpmath.mpf(s))
            for a, b in zip(got, want, strict=True):
                assert abs((a - b) / b) <= mpmath.mpf(10) ** -42

    def test_fifty_digit_peel_matches_affine_fit_on_fluid_string(self):
        mpmath = pytest.importorskip("mpmath")
        coeffs = problem("fluid_string").coefficients(20)
        self.assert_peel_matches_affine_fit(mpmath, coeffs, exponent_to_power(2.0))

    def test_fifty_digit_peel_matches_affine_fit_on_a_corpus(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(27)
        for _ in range(40):
            k = rng.randint(1, 10)
            drawn = rng.uniform(0.1, 0.95) * rng.choice((1, -1))
            s = rng.choice([0.5, 2 / 3, 0.75, -0.5, -1.0, drawn])
            params = [rng.uniform(0.6, 1.6) * rng.choice((1, -1)) for _ in range(k)]
            coeffs = ContinuedRootApproximant(s, tuple(params)).expand(k).coeffs
            self.assert_peel_matches_affine_fit(mpmath, coeffs, s)


class TestMatchesFormerKernels:
    """The incremental expansion and ``evaluate`` against the verbatim
    former kernels in ``oracles``, compared with ``float.hex``."""

    @given(any_powers, any_params, st.integers(min_value=-24, max_value=8))
    @example(-1.0, [1.0, 0.0, 2.0], 4)
    @example(-1.0, [0.0], 0)
    @example(-1.0, [1.0, 0.0], 0)
    @example(-1.0, [0.0, 1.0], 2)
    # depth 1: at order 1 the one step stores nothing, and at order 3 the
    # orders past the depth store an innermost coefficient 0
    @example(0.5, [0.75], 0)
    @example(-0.5, [1.25], 2)
    def test_expand_bitwise(self, s, params, offset):
        order = max(0, len(params) + offset)
        got = ContinuedRootApproximant(s, tuple(params)).expand(order)
        want = nested_expansion(params, s, order)
        assert [c.hex() for c in got.coeffs] == [c.hex() for c in want]

    @given(any_powers, any_params, st.floats(min_value=0.0, max_value=50.0))
    @example(0.5, [1.0, -5.0], 1.0)
    # a bracket exactly 0 under a negative power raises
    @example(-1.0, [1.0, -1.0], 1.0)
    @example(-1.0, [-0.5], 2.0)
    # a bracket below 0 under the one integer power, -1, does not
    @example(-1.0, [1.0, -5.0], 1.0)
    @example(-1.0, [-5.0, 1.0], 1.0)
    # a NaN base raises where the former kernel gave NaN; -0.0 passes
    @example(0.5, [1.0, math.nan], 1.0)
    @example(0.5, [1.0, -0.0], 3.0)
    @example(-1.0, [-0.0], 2.0)
    # x = inf is rejected before any bracket, where the kernel gave NaN
    @example(0.5, [1.0, 2.0], math.inf)
    @example(-0.5, [-1.0, 0.5], math.inf)
    @example(0.5, [0.0], math.inf)
    def test_evaluate_bitwise(self, s, params, x):
        approx = ContinuedRootApproximant(s, tuple(params))
        if x == math.inf:
            with pytest.raises(ValueError, match="^argument must be finite, got inf$"):
                approx.evaluate(x)
            return
        # no bracket's power overflows in the domain: a positive base is
        # at least 2**-53, so here the former kernel raises nothing either
        value, depth = nested_evaluate(params, s, x, s.is_integer())
        if depth:
            with pytest.raises(ComplexBreakdownError) as excinfo:
                approx.evaluate(x)
            assert excinfo.value.depth == depth
        elif value != value:
            message = rf"^the base at depth \d+ is NaN at x = {re.escape(repr(x))}$"
            with pytest.raises(ValueError, match=message):
                approx.evaluate(x)
        else:
            assert approx.evaluate(x).hex() == value.hex()


@pytest.mark.parametrize("s", [0.5, 2.0 / 3.0, 0.75, -0.5, -1.0])
@pytest.mark.parametrize("depth", [32, 48, 64])
class TestDeepBitwise:
    """Depths past the strategies' 24, to twice the benchmark's deepest
    series, compared with ``float.hex``.  Parameters of either sign leave
    some fits failing part-way, where the error must match as well."""

    @staticmethod
    def instance(depth, s):
        rng = random.Random(depth)
        signs = (1.0, -1.0)
        params = [rng.uniform(0.05, 2.0) * rng.choice(signs) for _ in range(depth)]
        return ContinuedRootApproximant(s, tuple(params))

    def test_fit_matches_reference(self, depth, s):
        series = self.instance(depth, s).expand(depth)
        assert fit_outcome(fit, series, s) == fit_outcome(reference_fit, series, s)

    def test_expand_matches_former_kernel(self, depth, s):
        approx = self.instance(depth, s)
        want = nested_expansion(list(approx.params), s, depth + 8)
        got = approx.expand(depth + 8).coeffs
        assert [c.hex() for c in got] == [c.hex() for c in want]

    def test_power_matches_former_kernel(self, depth, s):
        coeffs = self.instance(depth, s).expand(depth).coeffs
        got = power(coeffs, s)
        want = fractional_power(list(coeffs), s)
        assert [c.hex() for c in got] == [c.hex() for c in want]


class TestKernelHooks:
    def test_expand_and_evaluate_pass_through_the_kernel_names(self, monkeypatch):
        # perfbench/tracing.py rebinds these two functions, found with
        # vars(_backend.kernels), wherever a package module holds them, and
        # reads the parameters and the order from positional arguments
        calls = []
        for attr in ("nested_expansion", "nested_evaluate"):
            original = vars(_backend.kernels)[attr]

            def wrapper(*args, _attr=attr, _original=original, **kwargs):
                calls.append((_attr, args, kwargs))
                return _original(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "continued_roots" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
        approx = ContinuedRootApproximant(0.5, (1.0, 2.0))
        approx.expand(4)
        assert calls == [("nested_expansion", (approx.params, 0.5, 4), {})]
        calls.clear()
        approx.evaluate(3.0)
        assert calls == [("nested_evaluate", (approx.params, 0.5, 3.0), {})]
        assert backend_name() == "python"

    def test_an_int_argument_reaches_the_kernel_as_a_float(self, monkeypatch):
        seen = []
        kernel = approximant.nested_evaluate

        def wrapper(params, s, x):
            seen.append(x)
            return kernel(params, s, x)

        monkeypatch.setattr(approximant, "nested_evaluate", wrapper)
        approx = ContinuedRootApproximant(0.5, (1.0, 2.0))
        assert approx.evaluate(3) == approx.evaluate(3.0)
        assert seen == [3.0, 3.0]
        assert [type(x) for x in seen] == [float, float]


class TestFitSequence:
    def test_matches_individual_fits(self):
        series = TruncatedSeries((1.0, 1.0, -0.125, 0.03125))
        fits = fit_sequence(series, 0.4, range(1, 4))
        assert [f.order for f in fits] == [1, 2, 3]
        direct = fit(TruncatedSeries((1.0, 1.0, -0.125)), 0.4)
        assert fits[1].params == direct.params

    def test_depth_beyond_series_rejected(self):
        series = TruncatedSeries((1.0, 1.0))
        with pytest.raises(ValueError, match="exceeds"):
            fit_sequence(series, 0.4, [1, 2])
        with pytest.raises(ValueError, match="exceeds"):
            fit_sequence(TruncatedSeries((1.0, 1.0, -0.125)), 0.4, [2, 5, 1])

    def test_depth_below_one_rejected(self):
        series = TruncatedSeries((1.0, 1.0, -0.125))
        with pytest.raises(ValueError, match="depth must be at least 1, got 0"):
            fit_sequence(series, 0.4, [2, 0])

    def test_no_orders_no_fits(self):
        assert fit_sequence(TruncatedSeries((1.0, 1.0)), 0.4, []) == []

    def test_unsorted_orders_are_bitwise_prefixes(self):
        series = TruncatedSeries(tuple(string_coefficients(13)))
        s = exponent_to_power(2.0)
        orders = [7, 2, 13, 5, 13, 1]
        fits = fit_sequence(series, s, orders)
        assert [f.order for f in fits] == orders
        for k, fitted in zip(orders, fits):
            want = reference_fit(TruncatedSeries(series.coeffs[: k + 1]), s)
            assert [a.hex() for a in fitted.params] == [
                a.hex() for a in want.params
            ]

    @pytest.mark.parametrize("power", [exponent_to_power(2.0), -1])
    def test_prefixes_equal_constructed_forms(self, power):
        series = TruncatedSeries((1.0, 1.0, -0.125, 0.03125, 0.5))
        orders = [3, 1, 4, 2]
        deepest = fit(series, power)
        for k, prefix in zip(orders, fit_sequence(series, power, orders)):
            built = ContinuedRootApproximant(power, deepest.params[:k])
            assert prefix == built
            assert hash(prefix) == hash(built)
            assert repr(prefix) == repr(built)
            assert pickle.loads(pickle.dumps(prefix)) == built
            assert type(prefix.power) is float
            assert type(prefix.params) is tuple
            assert [type(a) for a in prefix.params] == [float] * k
            with pytest.raises(AttributeError, match="cannot assign"):
                prefix.params = ()

    def test_failure_only_past_the_deepest_order(self):
        # A2 fits to exactly zero, which cuts the chain at order 3
        series = ContinuedRootApproximant(0.5, (1.0, 0.0, 0.5)).expand(5)
        assert [f.order for f in fit_sequence(series, 0.5, range(1, 3))] == [1, 2]
        with pytest.raises(VanishingSensitivityError) as excinfo:
            fit_sequence(series, 0.5, range(1, 6))
        assert excinfo.value.order == 3

    def test_string_fits_past_depth_fourteen(self):
        prob = problem("fluid_string")
        series = TruncatedSeries(tuple(prob.coefficients(16)))
        s = exponent_to_power(prob.target_exponent)
        fits = fit_sequence(series, s, range(2, 17))
        assert [f.order for f in fits] == list(range(2, 17))
        assert all(a > 0.0 for a in fits[11].params)
        assert fits[12].params[13] == -0.8493983206028883


# Shallow enough that every prefix of every draw expands quickly.
shallow_coefficients = st.lists(
    st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=10
)


class TestFittedExpansion:
    """A fitted form, its prefixes and their copies must expand with the
    bits of a hand-built form with the same fields."""

    @staticmethod
    def expansion(form, n):
        """The expansion's bits, or the message of the ValueError raised
        where a coefficient leaves the float range."""
        try:
            return [c.hex() for c in form.expand(n).coeffs]
        except ValueError as err:
            return str(err)

    @classmethod
    def assert_expands_as_built(cls, form, depth):
        built = ContinuedRootApproximant(form.power, form.params)
        for n in range(depth + 3):
            assert cls.expansion(form, n) == cls.expansion(built, n), n

    @given(any_powers, shallow_coefficients)
    @example(-1, [0.5, 0.25, -0.125])
    @example(0.5, [1.0])
    # from c12 on, both expansions raise
    @example(0.125, [2.757748480645497e-26, 1.0] + [0.0] * 8)
    def test_expand_bitwise_as_built(self, s, coeffs):
        series = TruncatedSeries((1.0, *coeffs))
        try:
            fitted = fit(series, s)
        except ContinuedRootError:
            assume(False)
        depth = series.order
        for form in (
            fitted,
            pickle.loads(pickle.dumps(fitted)),
            copy.copy(fitted),
            copy.deepcopy(fitted),
        ):
            self.assert_expands_as_built(form, depth)
        prefixes = fit_sequence(series, s, range(1, depth + 1))
        for k, prefix in enumerate(prefixes, 1):
            self.assert_expands_as_built(prefix, k)

    @pytest.mark.parametrize("power", [exponent_to_power(2.0), -1])
    def test_fitted_form_is_the_built_record(self, power):
        fitted = fit(TruncatedSeries((1.0, 1.0, -0.125, 0.03125)), power)
        built = ContinuedRootApproximant(power, fitted.params)
        assert fitted == built
        assert hash(fitted) == hash(built)
        assert repr(fitted) == repr(built)
        assert type(fitted).__slots__ == ("power", "params")
        with pytest.raises(AttributeError, match="cannot assign"):
            fitted.power = 0.5


class TestEvaluate:
    def test_value_at_zero_is_one(self):
        approx = ContinuedRootApproximant(0.4, (2.5, 1.5625))
        assert approx.evaluate(0.0) == 1.0

    @pytest.mark.parametrize("outer", [(), (2.0,)])
    def test_zero_bracket_under_overflowing_product_is_one(self, outer):
        # the innermost bracket is exactly 0, so the next is 1 + 1e310 * 0;
        # 1e300 * x overflows to inf first, and inf * 0 is NaN
        approx = ContinuedRootApproximant(0.5, outer + (1e300, -1e-10))
        want = ContinuedRootApproximant(0.5, outer + (0.0,)).evaluate(1e10)
        assert approx.evaluate(1e10) == want

    @pytest.mark.parametrize("s", [0.4, -1.0])
    def test_negative_zero_is_zero(self, s):
        # -0.0 is not below 0.0, so it is a valid argument
        approx = ContinuedRootApproximant(s, (2.5, -1.5625))
        assert approx.evaluate(-0.0) == approx.evaluate(0.0) == 1.0

    def test_reciprocal_form_closed_value(self):
        # power -1, params (1, 1): (1 + x/(1 + x))**-1 = (1+x)/(1+2x)
        approx = ContinuedRootApproximant(-1.0, (1.0, 1.0))
        assert approx.evaluate(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_approaches_power_law(self):
        approx = ContinuedRootApproximant(0.4, (2.5, 1.5625))
        x = 1e10
        law = approx.amplitude()
        assert approx.evaluate(x) / (
            law.amplitude * x**law.exponent
        ) == pytest.approx(1.0, abs=1e-3)

    def test_negative_argument_rejected(self):
        approx = ContinuedRootApproximant(0.4, (2.5,))
        with pytest.raises(ValueError, match="non-negative"):
            approx.evaluate(-0.1)
        with pytest.raises(ValueError, match="^argument must be non-negative, got -inf$"):
            approx.evaluate(-math.inf)

    @pytest.mark.parametrize(
        "x", [math.inf, math.nan, pytest.param(10**400, id="10**400")]
    )
    def test_non_finite_argument_rejected(self, x):
        # the form is identically 1, but the kernel gave NaN for inf and NaN,
        # and an int beyond the float range raised a bare OverflowError
        approx = ContinuedRootApproximant(0.5, (0.0,))
        with pytest.raises(ValueError, match=f"^argument must be finite, got {x!r}$"):
            approx.evaluate(x)

    @pytest.mark.parametrize(
        "x", [sys.float_info.max, int(sys.float_info.max)], ids=["float", "int"]
    )
    def test_largest_float_is_a_finite_argument(self, x):
        assert ContinuedRootApproximant(0.5, (0.0,)).evaluate(x) == 1.0

    def test_complex_breakdown_names_depth(self):
        # the inner bracket 1 - 5x goes negative past x = 0.2
        approx = ContinuedRootApproximant(0.5, (1.0, -5.0))
        assert approx.evaluate(0.1) > 0.0
        with pytest.raises(ComplexBreakdownError) as excinfo:
            approx.evaluate(1.0)
        assert excinfo.value.depth == 2

    def test_integer_power_tolerates_negative_base(self):
        # with the integer power -1 the bracket may go negative and stay real
        approx = ContinuedRootApproximant(-1.0, (1.0, -5.0))
        value = (1.0 + 1.0 * ((1.0 - 5.0) ** -1)) ** -1
        assert approx.evaluate(1.0) == pytest.approx(value, rel=1e-15)

    def test_zero_base_with_negative_power(self):
        approx = ContinuedRootApproximant(-1.0, (1.0, -1.0))
        with pytest.raises(ComplexBreakdownError) as excinfo:
            approx.evaluate(1.0)
        assert excinfo.value.depth == 2

    @given(st.data())
    def test_matches_inline_reference(self, data):
        # positive params keep every base positive, so no breakdown occurs
        s = data.draw(nonzero_powers)
        params = data.draw(
            st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=1, max_size=8)
        )
        x = data.draw(st.floats(min_value=0.0, max_value=50.0))
        approx = ContinuedRootApproximant(s, tuple(params))
        value = 1.0 + params[-1] * x
        for a in reversed(params[:-1]):
            value = 1.0 + a * x * value**s
        assert approx.evaluate(x) == pytest.approx(value**s, rel=1e-13)

    @pytest.mark.parametrize(
        "s, params, x",
        [
            # the direct loop gave 1e-150 (true 1.778e-114) and NaN (true
            # 9.306e-78): an infinite base under s < 0 gave 0, and then 0 or
            # inf * 0 in the next bracket
            (-0.5, (1.0, 1.0, 1e10), 1e300),
            (-0.5, (2.0, 3.0), 1e308),
            # fluid_string at depth 3: the direct loop gave inf
            (2 / 3, (0.375, 0.28125, 0.23697916666666666), 1e200),
            (-1.0, (0.5, 2.0, 1e300, 4.0), 1e300),
            (0.9, (1e-3, 1e5), 1e305),
        ]
        + [
            (
                rng.choice([0.5, 2 / 3, -0.5, -1.0, rng.uniform(-0.95, 0.95)]),
                tuple(
                    rng.uniform(0.05, 2.0) * 10 ** rng.uniform(-3, 30)
                    for _ in range(rng.randint(1, 12))
                ),
                10 ** rng.uniform(250, 308),
            )
            for rng in [random.Random(22)]
            for _ in range(40)
        ],
    )
    def test_overflowing_bracket_matches_mpmath(self, s, params, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            h = mpmath.mpf(1)
            for a in reversed(params):
                h = (1 + mpmath.mpf(a) * mpmath.mpf(x) * h) ** mpmath.mpf(s)
            approx = ContinuedRootApproximant(s, params)
            if h > sys.float_info.max:
                message = f"the value at x = {x!r} leaves the float range"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    approx.evaluate(x)
                return
            # each bracket's log is off by a few u times |log A| + |log x|
            # + |log h| <= 3 * 710, and |s| <= 1 does not amplify it
            tol = 4 * len(params) * 3 * 710 * 2.0**-53
            got = approx.evaluate(x)
            assert abs(got - h) <= tol * h

    def test_value_beyond_float_range_names_x(self):
        # x**2.439 at x = 1e300: the second bracket overflows, and so does
        # the value
        approx = ContinuedRootApproximant(0.9, (1.0, 1.0, 1.0))
        with pytest.raises(
            ValueError, match=r"^the value at x = 1e\+300 leaves the float range$"
        ):
            approx.evaluate(1e300)

    @pytest.mark.parametrize(
        "s, params",
        [
            # the log path ends in exp(inf), which returns inf, not an error
            (0.5, (1.0, math.inf)),
            # log h is -inf past the inner infinite parameter under s < 0,
            # and inf - inf in the next bracket makes it NaN
            (-0.5, (math.inf, math.inf)),
        ],
    )
    def test_infinite_parameter_value_names_x(self, s, params):
        with pytest.raises(
            ValueError, match=r"^the value at x = 1\.0 leaves the float range$"
        ):
            ContinuedRootApproximant(s, params).evaluate(1.0)

    @pytest.mark.parametrize(
        "params, x, depth",
        [
            ((math.inf,), 0.0, 1),
            ((math.nan,), 1.0, 1),
            ((2.0, math.nan, 1.0), 1.0, 2),
        ],
        ids=["inf-times-zero", "nan", "nan-inner"],
    )
    def test_nan_base_names_its_depth_and_x(self, params, x, depth):
        # the recomputed base is still NaN, which u**s used to pass on
        message = f"the base at depth {depth} is NaN at x = {x!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ContinuedRootApproximant(0.5, params).evaluate(x)

    @pytest.mark.parametrize(
        "s, params",
        [
            # the base 1 + 3e308 overflows, and A1 < 0 lies outside it
            (-1.0, (-2.0, 3.0)),
            # the base 1 - 3e308 overflows to -inf under the integer power
            (-1.0, (1.0, -3.0)),
        ],
    )
    def test_overflowing_base_of_unknown_sign_names_x(self, s, params):
        message = (
            r"^a bracket base at x = 1e\+308 leaves the float range "
            "and is not known to be positive$"
        )
        with pytest.raises(ValueError, match=message):
            ContinuedRootApproximant(s, params).evaluate(1e308)

    def test_overflowing_negative_base_under_fractional_power_breaks_down(self):
        with pytest.raises(ComplexBreakdownError) as excinfo:
            ContinuedRootApproximant(0.5, (1.0, -3.0)).evaluate(1e308)
        assert excinfo.value.depth == 2


class TestAmplitude:
    def test_first_benchmark_depth_two(self):
        approx = ContinuedRootApproximant(0.4, (2.5, 1.5625))
        result = approx.amplitude()
        assert result.amplitude == pytest.approx(1.549484, abs=1e-5)
        assert result.exponent == pytest.approx(0.56, abs=1e-14)
        assert result.order == 2

    def test_single_unit_param(self):
        result = ContinuedRootApproximant(0.7, (1.0,)).amplitude()
        assert result.amplitude == 1.0
        assert result.exponent == pytest.approx(0.7, abs=1e-15)

    def test_requires_positive_params(self):
        with pytest.raises(RealnessError, match="parameter 2"):
            ContinuedRootApproximant(0.5, (1.0, -0.5)).amplitude()
        with pytest.raises(RealnessError, match="parameter 1"):
            ContinuedRootApproximant(0.5, (0.0, 0.5)).amplitude()
        with pytest.raises(RealnessError, match="parameter 2 is nan"):
            ContinuedRootApproximant(0.5, (1.0, math.nan)).amplitude()

    @pytest.mark.parametrize("s", [-1.0, -0.9999999])
    def test_overflowing_factor_names_its_depth(self, s):
        # 5e-324 ** s**7 leaves the float range for s near -1, where s**7
        # is near -1 too.  The factors before it are 1, so the product is
        # finite until then.
        params = (1.0,) * 6 + (5e-324,) * 2
        message = "^the amplitude factor at depth 7 leaves the float range$"
        with pytest.raises(ValueError, match=message):
            ContinuedRootApproximant(s, params).amplitude()
        with pytest.raises(ValueError, match=message):
            ContinuedRootApproximant(s, params).asymptote(1.0)
        message = "^the amplitude factor at depth 1 leaves the float range$"
        with pytest.raises(ValueError, match=message):
            ContinuedRootApproximant(s, (5e-324,)).amplitude()

    @pytest.mark.parametrize(
        "s, params, depth",
        [
            # 1e300 ** 0.9 is 1e270, and 1e270 * 1e300 ** 0.81 is 1e513
            (0.9, (1e300, 1e300), 2),
            (0.9, (1e300,) * 4, 2),
            # 1e-300 ** -1 * 1e300 ** 1 is 1e600
            (-1.0, (1e-300, 1e300), 2),
        ],
    )
    def test_overflowing_product_names_its_depth(self, s, params, depth):
        assert math.isfinite(
            ContinuedRootApproximant(s, params[: depth - 1]).amplitude().amplitude
        )
        message = f"^the amplitude at depth {depth} leaves the float range$"
        with pytest.raises(ValueError, match=message):
            ContinuedRootApproximant(s, params).amplitude()

    @given(st.data())
    def test_product_form(self, data):
        s = data.draw(nonzero_powers)
        params = data.draw(
            st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=1, max_size=8)
        )
        result = ContinuedRootApproximant(s, tuple(params)).amplitude()
        direct = 1.0
        for n, a in enumerate(params, start=1):
            direct *= a ** (s**n)
        assert result.amplitude == pytest.approx(direct, rel=1e-13)


class TestAsymptote:
    def test_value_at_one_is_amplitude(self):
        approx = ContinuedRootApproximant(0.4, (2.5, 1.5625))
        assert approx.asymptote(1.0) == pytest.approx(
            approx.amplitude().amplitude, rel=1e-15
        )

    def test_power_law_shape(self):
        approx = ContinuedRootApproximant(0.4, (2.5, 1.5625))
        law = approx.amplitude()
        ratio = approx.asymptote(100.0) / approx.asymptote(10.0)
        assert ratio == pytest.approx(10.0**law.exponent, rel=1e-13)

    def test_positive_argument_required(self):
        with pytest.raises(ValueError, match="x > 0"):
            ContinuedRootApproximant(0.4, (2.5,)).asymptote(0.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_argument_rejected(self, x):
        # as evaluate rejects it; the law gave inf (or 0.0) at inf
        for s in (0.4, -0.5):
            message = f"^argument must be finite, got {x!r}$"
            with pytest.raises(ValueError, match=message):
                ContinuedRootApproximant(s, (2.5, 1.5625)).asymptote(x)

    @pytest.mark.parametrize(
        "s, params, x",
        [
            # x**2.439 at 1e300: the power itself overflowed, a bare
            # OverflowError
            (0.9, (1.0, 1.0, 1.0), 1e300),
            # B = 1e270 and x**0.9 = 1e90: the product is inf
            (0.9, (1e300,), 1e100),
        ],
    )
    def test_law_beyond_float_range_names_x(self, s, params, x):
        message = f"the estimate at depth {len(params)} leaves the float range "
        message += f"at match point {x!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ContinuedRootApproximant(s, params).asymptote(x)

    def test_agrees_with_evaluate_at_large_x(self):
        # criterion 9 far past the float range of the direct loop
        approx = fit(TruncatedSeries(tuple(string_coefficients(3))), 2 / 3)
        for x in (1e100, 1e150, 1e200):
            assert approx.evaluate(x) == pytest.approx(approx.asymptote(x), rel=1e-13)


class TestAmplitudeEstimate:
    def test_default_match_point_is_plain_amplitude(self):
        law = ContinuedRootApproximant(0.4, (2.5, 1.5625)).amplitude()
        assert law.estimate(2.0 / 3.0) == law.amplitude

    def test_matched_laws_agree_at_match_point(self):
        approx = ContinuedRootApproximant(2.0 / 3.0, (0.375, 0.28125))
        target = 2.0
        point = math.pi**2
        estimate = approx.amplitude().estimate(target, point)
        assert estimate * point**target == pytest.approx(
            approx.asymptote(point), rel=1e-13
        )

    @pytest.mark.parametrize(
        "amplitude", [1.25, 0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
    )
    @pytest.mark.parametrize(
        "exponent", [0.75, math.nan, math.inf, -math.inf, 1e308, -1e308]
    )
    def test_match_point_one_returns_the_amplitude_bits(self, amplitude, exponent):
        # 1.0 ** y is exactly 1.0 for every y, so match point 1 needs no branch
        result = AmplitudeResult(amplitude, exponent, 3)
        for target in (2.0, -1e308):
            got = result.estimate(target, 1.0)
            assert struct.pack("<d", got) == struct.pack("<d", amplitude)

    def test_overflowing_conversion_names_its_depth(self):
        # beta_8 = 255/256 at s = 1/2, and 1e-3 ** (beta_8 - 400) leaves
        # the float range
        law = ContinuedRootApproximant(0.5, (1.0,) * 8).amplitude()
        assert (law.amplitude, law.exponent) == (1.0, 255 / 256)
        message = "the estimate at depth 8 leaves the float range at match point 0.001"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            law.estimate(400.0, 1e-3)

    @pytest.mark.parametrize(
        "law, want",
        [
            (lambda p: AmplitudeResult(1.0, 0.5, 1).estimate(1.0, p), 1e-200),
            (lambda p: ContinuedRootApproximant(0.5, (1.0,)).asymptote(p), 1e200),
            (
                lambda p: sequence_report(
                    [ContinuedRootApproximant(0.5, (1.0,))], ExponentTarget(1.0),
                    match_point=p,
                ).rows[0].observable,
                1e-200,
            ),
        ],
        ids=["estimate", "asymptote", "sequence_report"],
    )
    def test_int_match_point_beyond_float_range_converts_in_logs(self, law, want):
        # 10**400 ** 0.5 raises OverflowError converting the int, although
        # the law, 10**(+-200), is finite
        assert law(10**400) == pytest.approx(want, rel=1e-12)

    def test_int_match_point_beyond_float_range_still_overflows(self):
        message = "the estimate at depth 1 leaves the float range at match point"
        with pytest.raises(ValueError, match=f"^{message} {10**400}$"):
            AmplitudeResult(1.0, 2.0, 1).estimate(0.0, 10**400)

    @pytest.mark.parametrize("point", [0.0, -0.0, -4.0, math.nan, -math.inf])
    def test_match_point_must_be_positive(self, point):
        # 0.0 divided by zero, -4.0 gave a complex power, NaN returned NaN
        message = f"^match point must be positive, got {point!r}$"
        with pytest.raises(ValueError, match=message):
            AmplitudeResult(1.0, 0.5, 1).estimate(1.0, point)

    @pytest.mark.parametrize("amplitude", [1e290, -1e290])
    def test_overflowing_product_names_its_depth(self, amplitude):
        # 1e10 ** (3 - 1) is 1e20, finite, but its product with 1e290 is not
        law = AmplitudeResult(amplitude, 3.0, 2)
        assert law.estimate(1.0, 1e5) == amplitude * 1e10
        message = (
            "the estimate at depth 2 leaves the float range "
            "at match point 10000000000.0"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            law.estimate(1.0, 1e10)


class TestRationalReduction:
    def test_depth_one(self):
        numerator, denominator = ContinuedRootApproximant(-1.0, (0.7,)).to_rational()
        assert numerator == [1.0]
        assert denominator == [1.0, 0.7]

    def test_depth_two_closed_form(self):
        # (1 + a1 x / (1 + a2 x))**-1 = (1 + a2 x) / (1 + (a1 + a2) x)
        a1, a2 = 0.7, 0.3
        numerator, denominator = ContinuedRootApproximant(
            -1.0, (a1, a2)
        ).to_rational()
        assert numerator == pytest.approx([1.0, a2], abs=1e-15)
        assert denominator == pytest.approx([1.0, a1 + a2], abs=1e-15)

    def test_requires_power_minus_one(self):
        with pytest.raises(ValueError, match="-1"):
            ContinuedRootApproximant(0.5, (1.0,)).to_rational()
