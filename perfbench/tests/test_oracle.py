"""The oracle against closed forms and against itself at full precision."""

import random
from fractions import Fraction

import oracle


def test_fit_inverts_expand_to_full_precision():
    rng = random.Random(5)
    for k in (1, 2, 3, 5, 8, 16, 24):
        s = rng.uniform(0.3, 0.95) * rng.choice((-1, 1))
        params = [rng.uniform(0.25, 2.0) * rng.choice((-1, 1)) for _ in range(k)]
        fitted = oracle.fit(oracle.expand(params, s, k), s)
        assert max(float(abs(a - b) / abs(b)) for a, b in zip(fitted, params)) < 1e-35


def test_fit_is_prefix_closed():
    rng = random.Random(6)
    params = [rng.uniform(0.6, 1.6) for _ in range(12)]
    coeffs = oracle.expand(params, 2 / 3, 12)
    deep = oracle.fit(coeffs, 2 / 3)
    assert oracle.fit(coeffs[:7], 2 / 3) == deep[:6]


def test_expand_of_depth_one_is_binomial_series():
    s, a = oracle.to_mp("0.4"), oracle.to_mp("1.25")
    coeffs = oracle.expand([a], s, 6)
    for n, c in enumerate(coeffs):
        assert abs(c - oracle._ctx.binomial(s, n) * a**n) < oracle.to_mp("1e-55")


def test_evaluate_matches_the_nested_form_and_finds_breakdown():
    s = oracle.to_mp(2) / 3
    value, depth, bound, ambiguous = oracle.evaluate([1.0, 0.5, 2.0], s, 3.0)
    inner = (1 + 2 * oracle.to_mp(3)) ** s
    want = (1 + 3 * (1 + oracle.to_mp("0.5") * 3 * inner) ** s) ** s
    assert depth == 0 and not ambiguous and abs(value - want) < oracle.to_mp("1e-55")
    assert 1 < bound < 100
    # 1 - 2x goes negative past x = 1/2 at the innermost bracket (depth 2).
    assert oracle.evaluate([1.0, -2.0], s, 1.0)[:2] == (None, 2)
    assert oracle.evaluate([1.0, -2.0], s, 0.5 + 1e-17)[3]


def test_string_coefficients_match_the_printed_ones():
    printed = [Fraction(1, 4), Fraction(1, 32), Fraction(1, 512), Fraction(0), Fraction(-1, 131072), Fraction(0), Fraction(1, 16777216)]
    got = oracle.string_coefficients(7)[1:]
    for c, want in zip(got, printed):
        assert abs(c - oracle.to_mp(want.numerator) / want.denominator) < oracle.to_mp("1e-58")


def test_amplitude_and_exponent():
    s = oracle.to_mp("0.5")
    assert abs(oracle.amplitude([4.0, 16.0], s) - 4) < oracle.to_mp("1e-55")
    assert oracle.amplitude([1.0, -1.0], s) is None
    assert abs(oracle.finite_exponent(s, 3) - oracle.to_mp("0.875")) < oracle.to_mp("1e-55")
