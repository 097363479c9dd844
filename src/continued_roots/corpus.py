"""Built-in benchmark problems.

Four strong-coupling extrapolation problems with known weak-coupling
expansions and known (or numerically established) large-argument limits:

* ``nls_coherent_modes``: ground-state energy factor of trapped coherent
  modes versus coupling, limit amplitude 3/2 with exponent 2/3.
* ``froehlich_polaron``: optical-polaron ground-state energy versus
  coupling, linear in the strong-coupling limit.
* ``fluid_membrane``: pressure of a membrane between rigid walls versus
  wall separation; the limit amplitude is a Monte Carlo estimate.
* ``fluid_string``: the exactly solvable one-dimensional analogue, where
  every quantity is available in closed form.

The two wall problems quote their strong-coupling observables at the
reference argument pi**2, which is where the finite-depth power law is
matched to the target one; the ``match_point`` field records that
convention (1 for the problems quoted directly at the amplitude level).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from ._record import Record, _set
from .errors import UnknownProblemError


class BenchmarkProblem(Record):
    """A named expansion with its extrapolation target and conventions.

    ``known_amplitude`` is the reference amplitude of x**target_exponent
    used as the error baseline; ``observable_exact`` is the published value
    of prefactor * amplitude where one exists.  ``max_order`` is None when
    coefficients can be generated to any order.
    """

    __slots__ = (
        "name", "target_exponent", "observable_prefactor", "match_point",
        "max_order", "known_amplitude", "observable_exact", "_generator",
    )

    def __init__(
        self, name: str, target_exponent: float, observable_prefactor: float,
        match_point: float, max_order: int | None, known_amplitude: float | None,
        observable_exact: float | None, _generator: Callable[[int], list[float]],
    ):
        _set(self, "name", name)
        _set(self, "target_exponent", target_exponent)
        _set(self, "observable_prefactor", observable_prefactor)
        _set(self, "match_point", match_point)
        _set(self, "max_order", max_order)
        _set(self, "known_amplitude", known_amplitude)
        _set(self, "observable_exact", observable_exact)
        _set(self, "_generator", _generator)

    def coefficients(self, order: int) -> list[float]:
        """Expansion coefficients c0..c_order.

        Raises ValueError when the problem has only finitely many known
        coefficients and more are requested.
        """
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        if self.max_order is not None and order > self.max_order:
            raise ValueError(
                f"problem {self.name!r} has coefficients only through order "
                f"{self.max_order}, got {order}"
            )
        return self._generator(order)


def string_exact_f(g: float) -> float:
    """Closed-form energy factor of the string between walls, any g >= 0."""
    return 1.0 + g * g / 32.0 + (g / 4.0) * math.sqrt(1.0 + g * g / 64.0)


def string_coefficients_exact(order: int) -> list[Fraction]:
    """Exact rational Taylor coefficients of the string closed form.

    Only three terms sit outside the square root; the rest follow from the
    binomial series of sqrt(1 + g**2/64) shifted by the g/4 prefactor, so
    every coefficient is an exact dyadic rational.
    """
    from fractions import Fraction

    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    if order >= 2:
        coeffs[2] = Fraction(1, 32)
    binom = Fraction(1)  # running value of C(1/2, m)
    m = 0
    while 2 * m + 1 <= order:
        coeffs[2 * m + 1] += binom / (4 * 64**m)
        m += 1
        binom *= (Fraction(1, 2) - (m - 1)) / m
    return coeffs


def string_coefficients(order: int) -> list[float]:
    """Float Taylor coefficients of the string closed form, any order."""
    return [float(c) for c in string_coefficients_exact(order)]


def _fixed(coeffs: Sequence[float]) -> Callable[[int], list[float]]:
    def generator(order: int) -> list[float]:
        return list(coeffs[: order + 1])

    return generator


_PI_SQUARED = math.pi**2

_PROBLEMS = {
    "nls_coherent_modes": BenchmarkProblem(
        name="nls_coherent_modes",
        target_exponent=2.0 / 3.0,
        observable_prefactor=1.0,
        match_point=1.0,
        max_order=5,
        known_amplitude=1.5,
        observable_exact=1.5,
        _generator=_fixed(
            [1.0, 1.0, -1.0 / 8.0, 1.0 / 32.0, -1.0 / 128.0, 3.0 / 2048.0]
        ),
    ),
    "froehlich_polaron": BenchmarkProblem(
        name="froehlich_polaron",
        target_exponent=1.0,
        observable_prefactor=1.0,
        match_point=1.0,
        max_order=2,
        known_amplitude=0.108513,
        observable_exact=None,
        _generator=_fixed([1.0, 1.591962e-2, 0.806070e-3]),
    ),
    "fluid_membrane": BenchmarkProblem(
        name="fluid_membrane",
        target_exponent=2.0,
        observable_prefactor=_PI_SQUARED / 8.0,
        match_point=_PI_SQUARED,
        max_order=6,
        known_amplitude=0.064683,
        observable_exact=0.0798,
        _generator=_fixed(
            [
                1.0,
                1.0 / 4.0,
                1.0 / 32.0,
                2.176347e-3,
                0.552721e-4,
                -0.721482e-5,
                -1.777848e-6,
            ]
        ),
    ),
    "fluid_string": BenchmarkProblem(
        name="fluid_string",
        target_exponent=2.0,
        observable_prefactor=_PI_SQUARED / 8.0,
        match_point=_PI_SQUARED,
        max_order=None,
        known_amplitude=1.0 / 16.0,
        observable_exact=_PI_SQUARED / 128.0,
        _generator=string_coefficients,
    ),
}


def problem_names() -> tuple[str, ...]:
    """Names of the built-in problems, in registry order."""
    return tuple(_PROBLEMS)


def problem(name: str) -> BenchmarkProblem:
    """Look up a built-in problem by name."""
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise UnknownProblemError(name, problem_names()) from None
