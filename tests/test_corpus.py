"""Built-in benchmark problems and the string closed form."""

import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from continued_roots import (
    ExponentTarget,
    TruncatedSeries,
    UnknownProblemError,
    cli,
    exponent_to_power,
    fit_sequence,
    problem,
    problem_names,
    sequence_report,
    string_coefficients,
    string_coefficients_exact,
    string_exact_f,
)

from oracles import string_coefficients_exact as former_string_coefficients_exact

# Frozen reference: exact Taylor coefficients of the string closed form,
# cross-checked against an independent computer-algebra expansion.
STRING_EXACT = [
    Fraction(1),
    Fraction(1, 4),
    Fraction(1, 32),
    Fraction(1, 512),
    Fraction(0),
    Fraction(-1, 131072),
    Fraction(0),
    Fraction(1, 16777216),
    Fraction(0),
    Fraction(-5, 8589934592),
    Fraction(0),
    Fraction(7, 1099511627776),
    Fraction(0),
    Fraction(-21, 281474976710656),
]


class TestRegistry:
    def test_names(self):
        assert problem_names() == (
            "nls_coherent_modes",
            "froehlich_polaron",
            "fluid_membrane",
            "fluid_string",
        )

    def test_unknown_name(self):
        with pytest.raises(UnknownProblemError, match="fluid_string"):
            problem("bogus")

    def test_modes_problem(self):
        modes = problem("nls_coherent_modes")
        assert modes.target_exponent == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert modes.observable_prefactor == 1.0
        assert modes.match_point == 1.0
        assert modes.max_order == 5
        assert modes.known_amplitude == 1.5
        assert modes.observable_exact == 1.5
        assert modes.coefficients(5) == [
            1.0,
            1.0,
            -0.125,
            0.03125,
            -0.0078125,
            0.00146484375,
        ]

    def test_polaron_problem(self):
        polaron = problem("froehlich_polaron")
        assert polaron.target_exponent == 1.0
        assert polaron.max_order == 2
        assert polaron.known_amplitude == 0.108513
        assert polaron.observable_exact is None
        assert polaron.coefficients(2) == [1.0, 0.01591962, 0.00080607]

    def test_membrane_problem(self):
        membrane = problem("fluid_membrane")
        assert membrane.target_exponent == 2.0
        assert membrane.observable_prefactor == pytest.approx(
            math.pi**2 / 8.0, rel=1e-15
        )
        assert membrane.match_point == pytest.approx(math.pi**2, rel=1e-15)
        assert membrane.max_order == 6
        assert membrane.coefficients(2) == [1.0, 0.25, 0.03125]
        assert membrane.coefficients(6)[5] == -0.721482e-5

    def test_string_problem(self):
        string = problem("fluid_string")
        assert string.target_exponent == 2.0
        assert string.max_order is None
        assert string.known_amplitude == 0.0625
        assert string.observable_exact == pytest.approx(
            math.pi**2 / 128.0, rel=1e-15
        )
        assert string.observable_exact == pytest.approx(0.077106, abs=5e-7)

    def test_truncation_and_range_checks(self):
        membrane = problem("fluid_membrane")
        assert len(membrane.coefficients(3)) == 4
        with pytest.raises(ValueError, match="order 6"):
            membrane.coefficients(7)
        with pytest.raises(ValueError, match="non-negative"):
            membrane.coefficients(-1)

    @pytest.mark.parametrize(
        "name",
        ["nls_coherent_modes", "froehlich_polaron", "fluid_membrane", None],
        ids=["nls_coherent_modes", "froehlich_polaron", "fluid_membrane", "file"],
    )
    def test_fixed_coefficients_are_a_tuple_of_values(self, name):
        # the built-ins with finitely many coefficients, and a problem file;
        # the twin holds an equal tuple that is a different object
        if name is None:
            path = Path(__file__).resolve().parent / "golden" / "problems" / "valid.json"
            fixed, twin = (cli.load_problem_file(str(path)) for _ in range(2))
        else:
            fixed = problem(name)
            fields = {f: getattr(fixed, f) for f in type(fixed).__slots__}
            fields["_generator"] = tuple(list(fixed._generator))
            twin = type(fixed)(**fields)
        assert type(fixed._generator) is tuple
        assert twin._generator is not fixed._generator
        assert fixed.coefficients(fixed.max_order) == list(fixed._generator)
        assert twin == fixed and hash(twin) == hash(fixed)
        again = pickle.loads(pickle.dumps(fixed))
        assert again == fixed and hash(again) == hash(fixed)
        assert again.coefficients(1) == fixed.coefficients(1)


class TestStringClosedForm:
    def test_value_at_zero(self):
        assert string_exact_f(0.0) == 1.0

    def test_value_at_eight(self):
        # g = 8 gives 1 + 2 + 2 sqrt(2) + 1/2 + ... = 3 + 2 sqrt(2)
        assert string_exact_f(8.0) == pytest.approx(
            3.0 + 2.0 * math.sqrt(2.0), rel=1e-15
        )

    def test_strong_coupling_limit(self):
        g = 1e8
        assert string_exact_f(g) / g**2 == pytest.approx(1.0 / 16.0, rel=1e-6)

    def test_known_amplitude_is_exact_limit(self):
        # f - g**2/16 -> g/2 + O(1), so the quadratic amplitude is 1/16
        string = problem("fluid_string")
        g = 1e10
        assert string_exact_f(g) / g**2 == pytest.approx(
            string.known_amplitude, rel=1e-9
        )


class TestStringCoefficients:
    def test_printed_rationals_exact(self):
        assert string_coefficients_exact(7) == STRING_EXACT[:8]

    def test_deeper_rationals_exact(self):
        assert string_coefficients_exact(13) == STRING_EXACT

    def test_even_orders_beyond_two_vanish(self):
        coeffs = string_coefficients_exact(20)
        for n in range(4, 21, 2):
            assert coeffs[n] == 0

    def test_float_conversion_is_lossless(self):
        # every coefficient is a dyadic rational, hence exact in binary
        for got, want in zip(string_coefficients(13), STRING_EXACT):
            assert got == float(want)
            assert Fraction(got) == want

    def test_integer_ratios_match_the_running_binomial(self):
        # floats from the quotient of two integers, which Python rounds
        # correctly, so each is the exact value rounded once
        exact = former_string_coefficients_exact(256)
        assert string_coefficients_exact(256) == exact
        got = [c.hex() for c in string_coefficients(256)]
        assert got == [float(c).hex() for c in exact]

    def test_partial_sum_matches_closed_form(self):
        series = TruncatedSeries(tuple(string_coefficients(8)))
        g = 0.1
        assert abs(series.evaluate(g) - string_exact_f(g)) <= 1e-12

    def test_partial_sums_converge_inside_radius(self):
        g = 0.5
        exact = string_exact_f(g)
        errors = [
            abs(
                TruncatedSeries(tuple(string_coefficients(order))).evaluate(g)
                - exact
            )
            for order in (3, 6, 12)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            string_coefficients(-1)


class TestCrossChecks:
    def test_membrane_and_string_share_low_orders(self):
        membrane = problem("fluid_membrane")
        string = problem("fluid_string")
        assert membrane.coefficients(2) == string.coefficients(2)

    def test_shared_low_orders_give_identical_observables(self):
        results = {}
        for name in ("fluid_membrane", "fluid_string"):
            prob = problem(name)
            series = TruncatedSeries(tuple(prob.coefficients(2)))
            fits = fit_sequence(
                series, exponent_to_power(prob.target_exponent), [2]
            )
            report = sequence_report(
                fits,
                ExponentTarget(prob.target_exponent, prob.known_amplitude),
                observable_prefactor=prob.observable_prefactor,
                match_point=prob.match_point,
            )
            results[name] = report.rows[0].observable
        assert results["fluid_membrane"] == results["fluid_string"]
        assert results["fluid_string"] == pytest.approx(0.047705, abs=1e-5)

    def test_membrane_known_observable_consistent(self):
        membrane = problem("fluid_membrane")
        implied = membrane.observable_prefactor * membrane.known_amplitude
        assert implied == pytest.approx(membrane.observable_exact, abs=5e-5)

    def test_string_known_observable_exact(self):
        string = problem("fluid_string")
        implied = string.observable_prefactor * string.known_amplitude
        assert implied == pytest.approx(string.observable_exact, rel=1e-15)
