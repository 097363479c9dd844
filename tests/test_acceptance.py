"""Acceptance gate: one test per criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
test name itself carries the criterion number for plain ``pytest -v`` runs.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

from continued_roots import (
    ContinuedRootApproximant,
    ExponentTarget,
    TruncatedSeries,
    exponent_to_power,
    finite_order_exponent,
    fit,
    fit_sequence,
    power_to_exponent,
    problem,
    sequence_report,
    string_coefficients,
    string_coefficients_exact,
    string_exact_f,
)

from oracles import nested_expansion


@contextlib.contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {text}")
        raise
    print(f"PASS criterion {number}: {text}")


def observable_rows(name, kmax):
    prob = problem(name)
    series = TruncatedSeries(tuple(prob.coefficients(kmax)))
    fits = fit_sequence(
        series, exponent_to_power(prob.target_exponent), range(2, kmax + 1)
    )
    report = sequence_report(
        fits,
        ExponentTarget(prob.target_exponent, prob.known_amplitude),
        observable_prefactor=prob.observable_prefactor,
        match_point=prob.match_point,
    )
    return report.rows


def test_criterion_1_modes_amplitudes():
    with criterion(1, "coherent-mode amplitudes B_2..B_5 and error column"):
        start = time.perf_counter()
        rows = observable_rows("nls_coherent_modes", 5)
        elapsed = time.perf_counter() - start
        expected_b = [1.549484, 1.554034, 1.539048, 1.523475]
        expected_err = [3.3, 3.6, 2.6, 1.6]
        assert len(rows) == 4
        for row, b, err in zip(rows, expected_b, expected_err):
            assert abs(row.amplitude - b) <= 1e-5
            assert round(row.percent_error, 1) == err
        assert elapsed < 1.0


def test_criterion_2_polaron_amplitude():
    with criterion(2, "polaron B_2 = 0.1044 and -3.8% error"):
        rows = observable_rows("froehlich_polaron", 2)
        assert len(rows) == 1
        assert abs(rows[0].amplitude - 0.1044) <= 5e-5
        assert round(rows[0].percent_error, 1) == -3.8


def test_criterion_3_membrane_observables():
    with criterion(3, "membrane observables k = 2..6 and error signs"):
        rows = observable_rows("fluid_membrane", 6)
        expected = [0.047705, 0.061904, 0.072407, 0.079569, 0.083702]
        signs = [-1, -1, -1, -1, 1]
        assert len(rows) == 5
        for row, value, sign in zip(rows, expected, signs):
            assert abs(row.observable - value) <= 1e-5
            assert math.copysign(1, row.percent_error) == sign


def test_criterion_4_string_table():
    with criterion(4, "string observables k = 2..13 and printed error column"):
        start = time.perf_counter()
        rows = observable_rows("fluid_string", 13)
        elapsed = time.perf_counter() - start
        expected = [
            0.047705,
            0.061362,
            0.070598,
            0.076155,
            0.079097,
            0.080336,
            0.080533,
            0.080141,
            0.079540,
            0.079199,
            0.079123,
            0.078363,
        ]
        # printed errors carry one decimal except the first two, which the
        # reference table prints as integers
        printed_errors = [
            (-38.0, 0),
            (-20.0, 0),
            (-8.4, 1),
            (-1.2, 1),
            (2.6, 1),
            (4.2, 1),
            (4.4, 1),
            (3.9, 1),
            (3.2, 1),
            (2.7, 1),
            (2.6, 1),
            (1.6, 1),
        ]
        assert len(rows) == 12
        for row, value, (err, digits) in zip(rows, expected, printed_errors):
            assert abs(row.observable - value) <= 1e-5
            assert round(row.percent_error, digits) == err
        assert rows[3].percent_error < 0.0 < rows[4].percent_error
        assert elapsed < 5.0


def test_criterion_5_string_coefficient_oracle():
    with criterion(5, "string coefficient generator and partial sum"):
        printed = [
            Fraction(1, 4),
            Fraction(1, 32),
            Fraction(1, 512),
            Fraction(0),
            Fraction(-1, 131072),
            Fraction(0),
            Fraction(1, 16777216),
        ]
        assert string_coefficients_exact(7)[1:] == printed
        partial = TruncatedSeries(tuple(string_coefficients(8)))
        assert abs(partial.evaluate(0.1) - string_exact_f(0.1)) <= 1e-12


def test_criterion_6_round_trip_suite():
    with criterion(6, "250 random round trips, affine dependence, insulation"):
        # instances are generated parameters-first, which keeps every
        # affine slope well conditioned; uniform coefficient draws can sit
        # arbitrarily close to a degenerate chain where no solver meets
        # 1e-10
        rng = random.Random(8675309)
        instances = 0
        while instances < 250:
            k = rng.randint(1, 8)
            s = rng.uniform(0.1, 0.99) * rng.choice((-1.0, 1.0))
            params = [
                rng.uniform(0.05, 2.0) * rng.choice((-1.0, 1.0))
                for _ in range(k)
            ]
            coeffs = nested_expansion(params, s, k)
            refit = fit(TruncatedSeries(tuple(coeffs)), s)
            back = refit.expand(k).coeffs
            for want, got in zip(coeffs, back):
                assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)

            # the k-th coefficient is affine in the k-th parameter
            head = params[:-1]
            lo, mid, hi = (
                ContinuedRootApproximant(s, (*head, t)).expand(k)[k]
                for t in (0.0, 1.0, 2.0)
            )
            assert math.isclose(
                hi - lo, 2.0 * (mid - lo), rel_tol=1e-10, abs_tol=1e-12
            )

            # coefficients below a given order never see deeper parameters
            if k >= 2:
                m = rng.randint(1, k - 1)
                perturbed = list(params)
                perturbed[m] += 1.5
                assert (
                    ContinuedRootApproximant(s, tuple(params)).expand(m)
                    == ContinuedRootApproximant(s, tuple(perturbed)).expand(m)
                )
            instances += 1
        assert instances >= 200


def test_criterion_7_pade_equivalence():
    with criterion(7, "reciprocal nesting equals its rational reduction"):
        rng = random.Random(271828)
        for k in range(1, 7):
            for _ in range(50):
                params = tuple(rng.uniform(0.1, 2.0) for _ in range(k))
                approx = ContinuedRootApproximant(-1.0, params)
                numerator, denominator = approx.to_rational()
                assert len(numerator) - 1 == k // 2
                assert len(denominator) - 1 == (k + 1) // 2
                for i in range(20):
                    x = 10.0 * i / 19.0
                    direct = approx.evaluate(x)
                    num = TruncatedSeries(tuple(numerator)).evaluate(x)
                    den = TruncatedSeries(tuple(denominator)).evaluate(x)
                    rational = num / den
                    assert abs(direct - rational) <= 1e-10 * abs(rational)


def test_criterion_8_exponent_algebra():
    with criterion(8, "exponent algebra inverse and geometric sums"):
        # the tolerance scales with |beta| above 1: the round trip through
        # the rounded power has condition number beta * (1 + beta), so a
        # flat 1e-14 is below the attainable floor near the top of the grid
        steps = 1049
        for j in range(1, steps + 1):
            beta = -0.49 + 0.01 * j
            recovered = power_to_exponent(exponent_to_power(beta))
            assert abs(recovered - beta) <= 1e-14 * max(1.0, abs(beta))
        for s in (-1.0, -0.9, -0.5, -0.3, -0.1, 0.1, 0.4, 2.0 / 3.0, 0.9, 0.95):
            for k in range(1, 31):
                direct = sum(s**n for n in range(1, k + 1))
                assert abs(finite_order_exponent(s, k) - direct) <= 1e-12


def test_criterion_9_asymptote_consistency():
    with criterion(9, "membrane depth-4 evaluate/asymptote agreement at 1e8"):
        membrane = problem("fluid_membrane")
        series = TruncatedSeries(tuple(membrane.coefficients(4)))
        approx = fit(series, exponent_to_power(membrane.target_exponent))
        x = 1e8
        ratio = approx.evaluate(x) / approx.asymptote(x)
        assert 0.999 <= ratio <= 1.001
