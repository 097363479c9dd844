"""Boundedness certificates and extrapolation reports."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from continued_roots import (
    BenchmarkProblem,
    ContinuedRootApproximant,
    ContinuedRootError,
    ExponentTarget,
    RealnessError,
    ReportRow,
    TruncatedSeries,
    depth_table,
    diagnostics,
    exponent_to_power,
    finite_order_exponent,
    fit,
    fit_sequence,
    herschfeld_terms,
    nested_radical_exponent,
    problem,
    sequence_report,
)

from oracles import assert_power_rejected, power_in_domain

contracting_powers = st.one_of(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-0.95, max_value=-0.05),
)


class TestRadicalExponents:
    def test_first_depth_is_zero(self):
        assert nested_radical_exponent(0.5, 1) == 0.0

    def test_half_power_sequence(self):
        # gamma_n * s**n for s = 1/2 runs 0, 1/2, 3/4, 7/8, ...
        s = 0.5
        products = [
            nested_radical_exponent(s, n) * s**n for n in range(1, 5)
        ]
        assert products == pytest.approx([0.0, 0.5, 0.75, 0.875], abs=1e-15)

    @given(
        contracting_powers,
        st.integers(min_value=1, max_value=20),
    )
    def test_product_telescopes(self, s, n):
        product = nested_radical_exponent(s, n) * s**n
        telescoped = (s - s**n) / (1.0 - s)
        assert product == pytest.approx(telescoped, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("s", [0.05, -0.05, 0.5, -0.9, -1.0])
    def test_finite_results_keep_the_closed_form_bits(self, s):
        for n in range(1, 300):
            try:
                want = (1.0 - s ** (n - 1)) / ((1.0 - s) * s ** (n - 1))
            except (OverflowError, ZeroDivisionError):
                break
            if not math.isfinite(want):
                break
            assert nested_radical_exponent(s, n).hex() == want.hex()

    @pytest.mark.parametrize("depth", [240, 260])
    def test_exponent_beyond_float_range_rejected(self, depth):
        # s**(depth - 1) is subnormal at 240, so the quotient is inf, and 0
        # at 260, so it divides by zero
        with pytest.raises(ValueError, match=f"depth {depth} for power 0.05"):
            nested_radical_exponent(0.05, depth)

    def test_depth_beyond_float_range_names_the_depth(self):
        depth = 10**400
        with pytest.raises(ValueError, match=f"^depth {depth} leaves the float"):
            nested_radical_exponent(0.5, depth)

    def test_domain(self):
        with pytest.raises(ValueError, match="depth"):
            nested_radical_exponent(0.5, 0)
        with pytest.raises(ValueError, match="^nesting power must be non-zero$"):
            nested_radical_exponent(0.0, 2)
        with pytest.raises(ValueError, match="must satisfy -1 <= s < 1, got 1.0$"):
            nested_radical_exponent(1.0, 2)


class TestHerschfeldTerms:
    def test_string_benchmark_certificate(self):
        # frozen reference: depth-8 fit of the string expansion, interval
        # bound 100; every term sits below the analytic cap 1406.25
        wall = problem("fluid_string")
        series = TruncatedSeries(tuple(wall.coefficients(8)))
        approximants = fit_sequence(
            series, exponent_to_power(wall.target_exponent), [8]
        )
        diag = herschfeld_terms(approximants[0], 100.0)
        assert diag.param_bound == pytest.approx(0.375, rel=1e-13)
        assert diag.bound_limit == pytest.approx(1406.25, rel=1e-12)
        assert diag.bound_terms[0] == pytest.approx(11.2035, abs=1e-4)
        assert diag.bound_terms[-1] == pytest.approx(920.055, abs=1e-3)
        assert len(diag.bound_terms) == 7
        assert diag.bounded

    def test_unit_parameters_unit_interval(self):
        approx = ContinuedRootApproximant(0.5, (1.0, 1.0, 1.0, 1.0))
        diag = herschfeld_terms(approx, 1.0)
        assert diag.bound_limit == 1.0
        assert all(t == pytest.approx(1.0, abs=1e-15) for t in diag.bound_terms)

    def test_terms_grow_toward_limit(self):
        approx = ContinuedRootApproximant(2.0 / 3.0, (0.5, 0.5, 0.5, 0.5, 0.5))
        diag = herschfeld_terms(approx, 10.0)
        assert list(diag.bound_terms) == sorted(diag.bound_terms)
        assert diag.bound_terms[-1] < diag.bound_limit

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.lists(
            st.floats(min_value=0.1, max_value=3.0), min_size=2, max_size=8
        ),
        st.floats(min_value=1.5, max_value=1e4),
    )
    def test_growing_regime_is_monotone(self, s, params, scale):
        # whenever L * max(A) > 1 and 0 < s < 1, the certificate terms
        # increase with depth and stay below the analytic limit
        variable_bound = scale / max(params)
        approx = ContinuedRootApproximant(s, tuple(params))
        diag = herschfeld_terms(approx, variable_bound)
        terms = list(diag.bound_terms)
        for earlier, later in zip(terms, terms[1:]):
            assert later >= earlier * (1.0 - 1e-12)
        assert diag.bounded

    def test_shrinking_regime_stays_capped(self):
        # L*M < 1 makes the terms decrease toward the limit instead
        approx = ContinuedRootApproximant(0.5, (0.2, 0.2, 0.2, 0.2))
        diag = herschfeld_terms(approx, 1.0)
        assert list(diag.bound_terms) == sorted(diag.bound_terms, reverse=True)
        assert diag.bounded

    def test_negative_power_overshoot_is_not_bounded(self):
        # with s = -a the depth-3 term is (L*M)**(a**3 / (1 + a)) times the
        # limit, above both the limit and the first term when L*M > 1
        approx = ContinuedRootApproximant(-0.5, (2.0, 2.0, 2.0))
        diag = herschfeld_terms(approx, 10.0)
        first, third = diag.bound_terms
        assert first < diag.bound_limit < third
        assert third == pytest.approx(
            diag.bound_limit * 20.0 ** (0.125 / 1.5), rel=1e-13
        )
        assert not diag.bounded

    def test_exponent_count_matches_depth(self):
        approx = ContinuedRootApproximant(0.5, (1.0, 0.5, 0.25))
        diag = herschfeld_terms(approx, 2.0)
        assert len(diag.radical_exponents) == 2
        assert len(diag.bound_terms) == 2

    def test_depth_one_has_no_terms(self):
        diag = herschfeld_terms(ContinuedRootApproximant(0.5, (1.0,)), 2.0)
        assert diag.bound_terms == ()
        assert diag.bounded

    @pytest.mark.parametrize("depth", [240, 260])
    def test_radical_exponent_beyond_float_range_rejected(self, depth):
        # all terms are near (L*M)**(s/(1-s)) = 1.27, but the exponents past
        # depth 237 are not finite floats; the certificate used to read
        # unbounded, or divide by zero
        approx = ContinuedRootApproximant(0.05, (1.0,) * depth)
        with pytest.raises(ValueError, match="depth 238 for power 0.05"):
            herschfeld_terms(approx, 100.0)
        assert herschfeld_terms(
            ContinuedRootApproximant(0.05, (1.0,) * 237), 100.0
        ).bounded

    def test_non_contracting_power_rejected(self):
        with pytest.raises(ValueError, match="1"):
            herschfeld_terms(ContinuedRootApproximant(-1.0, (1.0, 1.0)), 2.0)

    def test_non_positive_param_rejected(self):
        with pytest.raises(RealnessError, match="parameter 2"):
            herschfeld_terms(ContinuedRootApproximant(0.5, (1.0, -1.0)), 2.0)

    def test_nan_param_rejected(self):
        # max((1.0, nan)) is 1.0, so a NaN let through would certify
        with pytest.raises(RealnessError, match="parameter 2 is nan"):
            herschfeld_terms(ContinuedRootApproximant(0.5, (1.0, math.nan)), 2.0)

    def test_variable_bound_domain(self):
        with pytest.raises(ValueError, match="positive"):
            herschfeld_terms(ContinuedRootApproximant(0.5, (1.0,)), 0.0)

    @pytest.mark.parametrize(
        "power, params, variable_bound",
        [
            (2.0 / 3.0, (0.5, 0.25, 0.125), 1e308),  # L*M ** 2 overflows
            (-0.5, (0.25, 0.25), 5e-324),  # L*M is 0, raised to -1/2
            (0.5, (1.0, 1.0), math.inf),  # L*M is infinite
            # an int L beyond the float range, treated as an infinite one
            pytest.param(0.5, (1.0, 1.0), 10**400, id="10**400"),
        ],
    )
    def test_terms_beyond_float_range_rejected(self, power, params, variable_bound):
        approx = ContinuedRootApproximant(power, params)
        with pytest.raises(ValueError, match=r"L\*max\(A\)"):
            herschfeld_terms(approx, variable_bound)


def bits(value):
    return value.hex() if isinstance(value, float) else repr(value)


def assert_rows_alone(approximants, target, observable_prefactor=1.0, match_point=1.0):
    """Each report row, bit for bit, as ``amplitude()`` and
    ``AmplitudeResult.estimate`` give it for its approximant alone, a failed
    row where those raise a typed error or a ValueError; when they raise
    some other error, the report raises it too."""
    expected = []
    try:
        for approx in approximants:
            try:
                law = approx.amplitude()
                estimate = law.estimate(target.exponent, match_point)
                observable = observable_prefactor * estimate
                if not math.isfinite(observable):
                    raise ValueError(
                        f"the observable at depth {approx.order} leaves the float range"
                    )
                percent = None
                if target.amplitude is not None:
                    percent = (estimate - target.amplitude) / target.amplitude * 100.0
                    if not math.isfinite(percent):
                        raise ValueError(
                            f"the percent error at depth {approx.order} "
                            "leaves the float range"
                        )
            except (ContinuedRootError, ValueError) as err:
                exponent = finite_order_exponent(approx.power, approx.order)
                expected.append((approx.order, None, exponent, None, None, str(err)))
                continue
            expected.append(
                (law.order, law.amplitude, law.exponent, observable, percent, None)
            )
    except ArithmeticError as err:
        with pytest.raises(type(err)) as excinfo:
            sequence_report(approximants, target, observable_prefactor, match_point)
        assert str(excinfo.value) == str(err)
        return
    report = sequence_report(approximants, target, observable_prefactor, match_point)
    assert [tuple(map(bits, (getattr(row, f) for f in ReportRow.__slots__)))
            for row in report.rows] == [tuple(map(bits, row)) for row in expected]


class TestSequenceReport:
    def fits(self, kmax=5, name="nls_coherent_modes"):
        modes = problem(name)
        series = TruncatedSeries(tuple(modes.coefficients(kmax)))
        power = exponent_to_power(modes.target_exponent)
        return fit_sequence(series, power, range(2, kmax + 1)), modes

    def test_rows_carry_full_power_law(self):
        fits, modes = self.fits()
        target = ExponentTarget(modes.target_exponent, modes.known_amplitude)
        report = sequence_report(fits, target)
        assert [row.order for row in report.rows] == [2, 3, 4, 5]
        first = report.rows[0]
        assert first.amplitude == pytest.approx(1.549484, abs=1e-5)
        assert first.exponent == pytest.approx(
            (0.4 - 0.4**3) / 0.6, rel=1e-13
        )
        assert first.observable == pytest.approx(first.amplitude, rel=1e-15)
        assert first.percent_error == pytest.approx(3.3, abs=0.05)
        assert not any(row.failed for row in report.rows)

    def test_percent_error_absent_without_baseline(self):
        fits, modes = self.fits()
        report = sequence_report(fits, ExponentTarget(modes.target_exponent))
        assert all(row.percent_error is None for row in report.rows)

    def test_prefactor_scales_observable(self):
        fits, modes = self.fits()
        target = ExponentTarget(modes.target_exponent, modes.known_amplitude)
        plain = sequence_report(fits, target)
        scaled = sequence_report(fits, target, observable_prefactor=2.0)
        for a, b in zip(plain.rows, scaled.rows):
            assert b.observable == pytest.approx(2.0 * a.observable, rel=1e-15)
            # the error is an amplitude-level comparison, untouched by the
            # prefactor
            assert b.percent_error == pytest.approx(a.percent_error, rel=1e-15)

    def test_match_point_converts_power_law(self):
        fits, modes = self.fits()
        target = ExponentTarget(modes.target_exponent, modes.known_amplitude)
        point = 7.0
        report = sequence_report(fits, target, match_point=point)
        for fit_k, row in zip(fits, report.rows):
            law = fit_k.amplitude()
            expected = law.amplitude * point ** (
                law.exponent - modes.target_exponent
            )
            assert row.observable == pytest.approx(expected, rel=1e-13)

    def test_failed_row_is_marked_not_fatal(self):
        fits, modes = self.fits()
        target = ExponentTarget(modes.target_exponent, modes.known_amplitude)
        broken = ContinuedRootApproximant(fits[0].power, (1.0,) * 6 + (-0.5,))
        report = sequence_report(list(fits) + [broken], target)
        bad = report.rows[-1]
        assert bad.failed
        assert bad.amplitude is None
        assert bad.observable is None
        assert bad.percent_error is None
        assert bad.exponent is not None
        assert "parameter 7" in bad.error
        for row in report.rows[:-1]:
            assert not row.failed

    def test_prefix_chain_rows_equal_each_approximant_alone(self):
        fits, modes = self.fits(8, "fluid_string")
        target = ExponentTarget(modes.target_exponent, modes.known_amplitude)
        assert_rows_alone(fits, target, observable_prefactor=2.5, match_point=7.0)
        report = sequence_report(fits, target, match_point=7.0)
        for fit_k, row in zip(fits, report.rows):
            assert row.observable == fit_k.amplitude().estimate(
                modes.target_exponent, 7.0
            )

    def test_broken_chains_restart_the_product(self):
        fits, modes = self.fits(8, "fluid_string")
        s = fits[0].power
        changed = fits[2].params[:2] + (0.25,) + fits[2].params[3:]
        approximants = [
            fits[0],
            fits[1],
            ContinuedRootApproximant(s, changed),  # a changed parameter
            fits[3],  # does not extend the changed form, so it restarts
            ContinuedRootApproximant(-s, fits[4].params),  # a changed power
            ContinuedRootApproximant(s, (1.0,) * 6 + (-0.5,)),  # unrelated
            fits[6],
        ]
        target = ExponentTarget(modes.target_exponent, modes.known_amplitude)
        assert_rows_alone(approximants, target, match_point=7.0)
        assert_rows_alone(approximants, ExponentTarget(modes.target_exponent))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -0.5, math.nan, math.inf])
    def test_parameter_values_along_a_chain(self, bad):
        params = (0.7, 1.3, bad, 0.9, 1.1, 2.0)
        chain = [ContinuedRootApproximant(0.5, params[:k]) for k in range(1, 7)]
        target = ExponentTarget(1.0, 1.3)
        assert_rows_alone(chain, target, match_point=7.0)
        rows = sequence_report(chain, target).rows
        assert [row.failed for row in rows] == (
            [False, False] + [not 0.0 < bad < math.inf] * 4
        )
        for row in rows[2:]:
            if bad == math.inf:  # positive, but then B_3 is not finite
                assert row.error == "the amplitude at depth 3 leaves the float range"
            elif row.failed:
                assert row.error.endswith(f"parameter 3 is {bad!r}")

    def test_each_failed_row_names_its_own_parameter_value(self):
        # 0.0 == -0.0 and a NaN is its own prefix, so these rows form one
        # chain, yet each message shows the row's own value
        nan = math.nan
        approximants = [
            ContinuedRootApproximant(0.5, (1.0, 0.0)),
            ContinuedRootApproximant(0.5, (1.0, -0.0, 2.0)),
            ContinuedRootApproximant(0.5, (1.0, 0.0, 2.0, 3.0)),
            ContinuedRootApproximant(0.5, (1.0, 2.0, 3.0, 4.0, nan)),
            ContinuedRootApproximant(0.5, (1.0, 2.0, 3.0, 4.0, nan, 1.0)),
            ContinuedRootApproximant(0.5, (1.0, 2.0, 3.0, 4.0, math.nan, 1.0, 1.0)),
        ]
        target = ExponentTarget(1.0)
        assert_rows_alone(approximants, target)
        errors = [row.error for row in sequence_report(approximants, target).rows]
        assert [e.rsplit("; ", 1)[1] for e in errors] == [
            "parameter 2 is 0.0",
            "parameter 2 is -0.0",
            "parameter 2 is 0.0",
        ] + ["parameter 5 is nan"] * 3

    @given(
        power=st.sampled_from([0.5, 2 / 3, -0.5, -1.0]),
        params=st.lists(
            st.one_of(
                st.floats(min_value=0.05, max_value=4.0),
                st.sampled_from([0.0, -0.0, -1.5, math.nan, math.inf]),
            ),
            min_size=1,
            max_size=24,
        ),
        steps=st.lists(
            st.tuples(
                st.integers(1, 3),
                st.sampled_from(["extend", "param", "power", "unrelated"]),
                st.floats(min_value=-2.0, max_value=4.0),
            ),
            max_size=12,
        ),
    )
    def test_any_sequence_matches_each_approximant_alone(self, power, params, steps):
        approximants, depth = [], 0
        for step, edit, value in steps:
            depth += step
            if depth > len(params):
                break
            p, s = list(params[:depth]), power
            if edit == "param":
                p[depth // 2] = value
            elif edit == "power":
                s = -power
                if not power_in_domain(s):  # -(-1.0)
                    assert_power_rejected(s)
                    continue
            elif edit == "unrelated":
                p = [value] * depth
            approximants.append(ContinuedRootApproximant(s, tuple(p)))
        assert_rows_alone(approximants, ExponentTarget(1.0, 1.3), match_point=7.0)

    def test_prefix_chain_takes_one_factor_per_parameter(self, monkeypatch):
        params = tuple(0.5 + (n % 7) / 10 for n in range(64))
        chain = [ContinuedRootApproximant(2 / 3, params[:k]) for k in range(2, 65)]
        amplitude_calls, factors = [], []
        power_law = diagnostics._power_law

        def counted(params, s, done=0, b=1.0):
            factors.append(len(params) - done)
            return power_law(params, s, done, b)

        monkeypatch.setattr(
            ContinuedRootApproximant,
            "amplitude",
            lambda approx: amplitude_calls.append(approx.order),
        )
        monkeypatch.setattr(diagnostics, "_power_law", counted)
        target = ExponentTarget(2.0, 0.0625)
        report = sequence_report(chain, target)
        assert amplitude_calls == []
        assert sum(factors) == 64
        monkeypatch.undo()
        assert_rows_alone(chain, target)
        assert not any(row.failed for row in report.rows)

    def test_overflowing_amplitude_fails_its_row_naming_the_depth(self):
        # 5e-324 ** (-1)**7 leaves the float range at s = -1.  The factors
        # before it are 1, so the product is finite until then.
        params = (1.0,) * 6 + (5e-324, 2.0)
        chain = [ContinuedRootApproximant(-1.0, params[:k]) for k in (5, 7, 8)]
        chain.append(ContinuedRootApproximant(-1.0, (1.0,) * 9))
        target = ExponentTarget(1.0)
        assert_rows_alone(chain, target)
        rows = sequence_report(chain, target).rows
        assert [row.failed for row in rows] == [False, True, True, False]
        for row in rows[1:3]:
            assert row.error == "the amplitude factor at depth 7 leaves the float range"
            assert row.exponent == finite_order_exponent(-1.0, row.order)
            assert (row.amplitude, row.observable, row.percent_error) == (None,) * 3
        assert rows[3].amplitude == 1.0

    def test_overflowing_product_fails_its_row_and_the_deeper_ones(self):
        # 1e300 ** 0.9 is 1e270, and 1e270 * 1e300 ** 0.81 is 1e513
        chain = [ContinuedRootApproximant(0.9, (1e300,) * k) for k in (1, 2, 4)]
        target = ExponentTarget(1.0)
        assert_rows_alone(chain, target)
        rows = sequence_report(chain, target).rows
        assert rows[0].amplitude == 1e300**0.9
        for row in rows[1:]:
            assert row.error == "the amplitude at depth 2 leaves the float range"
            assert row.exponent == finite_order_exponent(0.9, row.order)
            assert (row.amplitude, row.observable, row.percent_error) == (None,) * 3

    def test_overflowing_estimate_fails_its_row_naming_the_depth(self):
        # beta_k < 1 at s = 1/2, and 1e-3 ** (beta_k - 400) leaves the
        # float range at every depth
        chain = [ContinuedRootApproximant(0.5, (1.0,) * k) for k in (2, 8)]
        target = ExponentTarget(400.0, 1.0)
        assert_rows_alone(chain, target, match_point=1e-3)
        rows = sequence_report(chain, target, match_point=1e-3).rows
        assert [row.error for row in rows] == [
            f"the estimate at depth {k} leaves the float range at match point 0.001"
            for k in (2, 8)
        ]
        assert not any(row.failed for row in sequence_report(chain, target).rows)

    @pytest.mark.parametrize(
        "prefactor, amplitude, name",
        [
            # B_1 = 1 and B_2 = 1e300 ** (4/9) = 2.2e133, times 1e180
            (1e180, 1.0, "observable"),
            # 100 (B_k - 1e-180) / 1e-180 is 1e182, then 2.2e315
            (1.0, 1e-180, "percent error"),
        ],
    )
    def test_overflowing_observable_or_percent_error_fails_its_row(
        self, prefactor, amplitude, name
    ):
        chain = [ContinuedRootApproximant(2 / 3, (1.0, 1e300)[:k]) for k in (1, 2)]
        target = ExponentTarget(2.0, amplitude)
        assert_rows_alone(chain, target, observable_prefactor=prefactor)
        first, second = sequence_report(chain, target, prefactor).rows
        assert not first.failed
        assert second.error == f"the {name} at depth 2 leaves the float range"
        assert second.exponent == finite_order_exponent(2 / 3, 2)
        assert second.amplitude is second.observable is second.percent_error is None

    def test_prefactor_beyond_float_range_fails_rows_as_infinity_does(self):
        # an int prefactor beyond the float range raised a bare OverflowError
        chain = [ContinuedRootApproximant(2 / 3, (1.0, 2.0)[:k]) for k in (1, 2)]
        target = ExponentTarget(2.0, 1.0)
        rows = sequence_report(chain, target, 10**400).rows
        assert rows == sequence_report(chain, target, math.inf).rows
        assert [row.error for row in rows] == [
            f"the observable at depth {k} leaves the float range" for k in (1, 2)
        ]

    def test_orders_must_increase(self):
        fits, modes = self.fits()
        target = ExponentTarget(modes.target_exponent)
        with pytest.raises(ValueError, match="increasing"):
            sequence_report([fits[1], fits[0]], target)

    def test_prefactor_domain(self):
        fits, modes = self.fits()
        target = ExponentTarget(modes.target_exponent)
        with pytest.raises(ValueError, match="positive"):
            sequence_report(fits, target, observable_prefactor=0.0)

    def test_match_point_domain(self):
        fits, modes = self.fits()
        target = ExponentTarget(modes.target_exponent)
        with pytest.raises(ValueError, match="positive"):
            sequence_report(fits, target, match_point=-1.0)


class TestDepthTable:
    def test_rows_match_a_report_of_the_fit_sequence(self):
        wall = problem("fluid_string")
        series = TruncatedSeries(tuple(wall.coefficients(13)))
        fits = fit_sequence(
            series, exponent_to_power(wall.target_exponent), range(2, 14)
        )
        report = sequence_report(
            fits,
            ExponentTarget(wall.target_exponent, wall.known_amplitude),
            observable_prefactor=wall.observable_prefactor,
            match_point=wall.match_point,
        )
        assert depth_table(wall, 13) == report

    @staticmethod
    def cut(coeffs, beta=1.0):
        """A problem of fixed coefficients whose fit may stop early."""
        return BenchmarkProblem(
            name="cut",
            target_exponent=beta,
            observable_prefactor=1.0,
            match_point=1.0,
            max_order=len(coeffs) - 1,
            known_amplitude=None,
            observable_exact=None,
            _generator=lambda order: coeffs[: order + 1],
        )

    def test_failure_fails_every_deeper_row_with_its_own_error(self):
        # at s = 1/2, 2 c3 = 2e308 leaves the float range in A3's level
        coeffs = [1.0, 0.5, 0.1, 1e308, 0.1, 0.01]
        cut = self.cut(coeffs)
        power = exponent_to_power(cut.target_exponent)
        report = depth_table(cut, 5)
        rows = report.rows
        assert [row.order for row in rows] == [2, 3, 4, 5]
        shallow = depth_table(cut, 2)
        assert shallow.rows == rows[:1]
        assert not rows[0].failed
        for row in rows[1:]:
            with pytest.raises(ContinuedRootError) as excinfo:
                fit(TruncatedSeries(tuple(coeffs[: row.order + 1])), power)
            assert row.error == str(excinfo.value)
            assert "parameter 3 leaves the float range" in row.error
            assert (row.amplitude, row.exponent, row.observable) == (None,) * 3
            assert row.percent_error is None

    def test_negative_parameter_fails_every_deeper_row_as_realness(self):
        # fluid_string's A14 is negative, as in exact arithmetic
        wall = problem("fluid_string")
        report = depth_table(wall, 16)
        rows = report.rows
        assert [row.order for row in rows] == list(range(2, 17))
        shallow = depth_table(wall, 13)
        assert shallow.rows == rows[:12]
        for row in rows[12:]:
            assert row.error == (
                "amplitude requires strictly positive parameters; "
                "parameter 14 is -0.8493983206028883"
            )
            assert row.exponent == finite_order_exponent(
                exponent_to_power(wall.target_exponent), row.order
            )
            assert (row.amplitude, row.observable, row.percent_error) == (None,) * 3

    def test_degenerate_series_fails_every_row(self):
        flat = BenchmarkProblem(
            name="flat",
            target_exponent=1.0,
            observable_prefactor=1.0,
            match_point=1.0,
            max_order=3,
            known_amplitude=None,
            observable_exact=None,
            _generator=lambda order: [1.0, 0.0, 0.5, 0.1][: order + 1],
        )
        rows = depth_table(flat, 3).rows
        assert [row.order for row in rows] == [2, 3]
        # a zero c1 fits A1 = 0, which cuts the chain at order 2
        want = "coefficient of x^2 is insensitive to parameter 2: parameter 1 is 0.0"
        assert all(row.error.startswith(want) for row in rows)

    def test_stop_at_order_one_fails_every_row_with_the_fit_error(self):
        # at s = 1/2, A1 = c1 / s = 2e308 leaves the float range
        coeffs = [1.0, 1e308, 0.1, 0.01]
        rows = depth_table(self.cut(coeffs), 3).rows
        assert [row.order for row in rows] == [2, 3]
        for row in rows:
            series = TruncatedSeries(tuple(coeffs[: row.order + 1]))
            with pytest.raises(ContinuedRootError) as excinfo:
                fit(series, exponent_to_power(1.0))
            assert row.error == str(excinfo.value)
            assert "parameter 1 leaves" in row.error

    @pytest.mark.parametrize("kmax", [13, 16])
    def test_runs_through_fit_sequence(self, monkeypatch, kmax):
        # a table that fits needs one sequence; a fit that stops early
        # needs a second, shallower one for the depths below the stop
        seen = []

        def counted(*args):
            seen.append(args)
            return fit_sequence(*args)

        monkeypatch.setattr(diagnostics, "fit_sequence", counted)
        report = depth_table(problem("fluid_string"), kmax)
        assert len(seen) == 1
        assert [row.failed for row in report.rows].count(False) == 12
        seen.clear()
        report = depth_table(self.cut([1.0, 0.5, 0.1, 1e308, 0.1]), 4)
        assert len(seen) == 2
        assert [row.failed for row in report.rows] == [False, True, True]

    def test_kmax_domain(self):
        with pytest.raises(ValueError, match="kmax"):
            depth_table(problem("fluid_string"), 1)
