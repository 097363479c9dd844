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

import math

from ._record import Record
from .errors import UnknownProblemError
from .series import _order


class BenchmarkProblem(Record):
    """A named expansion with its extrapolation target and conventions.

    ``known_amplitude`` is the reference amplitude of x**target_exponent
    used as the error baseline; ``observable_exact`` is the published value
    of prefactor * amplitude where one exists.  ``max_order`` is None when
    coefficients can be generated to any order.  ``_generator`` is the tuple
    of finitely many coefficients, so that the problem compares, hashes and
    pickles by value, or a function of the order that returns c0..c_order.
    """

    __slots__ = (
        "name", "target_exponent", "observable_prefactor", "match_point",
        "max_order", "known_amplitude", "observable_exact", "_generator",
    )

    def coefficients(self, order: int) -> list[float]:
        """Expansion coefficients c0..c_order.

        Raises ValueError unless the order is a non-negative integer, at
        most ``max_order`` when the problem knows only that many.
        """
        order = _order(order, "order", 0)
        if self.max_order is not None and order > self.max_order:
            raise ValueError(
                f"problem {self.name!r} has coefficients only through order "
                f"{self.max_order}, got {order}"
            )
        generator = self._generator
        if isinstance(generator, tuple):
            return list(generator[: order + 1])
        return generator(order)


def string_exact_f(g: float) -> float:
    """Closed-form energy factor of the string between walls, any g >= 0."""
    return 1.0 + g * g / 32.0 + (g / 4.0) * math.sqrt(1.0 + g * g / 64.0)


def _string_ratios(order: int) -> list[tuple[int, int]]:
    """Taylor coefficients of the string closed form as integer ratios.

    Only three terms sit outside the square root; the rest follow from the
    binomial series of sqrt(1 + g**2/64) shifted by the g/4 prefactor:
    c_(2m+1) = C(1/2, m) / (4 * 64**m), where
    C(1/2, m) = (-1)**(m+1) C(2m, m) / ((2m - 1) 4**m).
    """
    order = _order(order, "order", 0)
    ratios = [(1, 1)] + [(0, 1)] * order
    if order >= 2:
        ratios[2] = (1, 32)
    for m in range((order + 1) // 2):
        num = (-1) ** (m + 1) * math.comb(2 * m, m)
        ratios[2 * m + 1] = (num, (2 * m - 1) * 4 ** (4 * m + 1))
    return ratios


def string_coefficients_exact(order: int) -> "list[Fraction]":
    """Exact Taylor coefficients of the string closed form, all dyadic."""
    from fractions import Fraction

    return [Fraction(num, den) for num, den in _string_ratios(order)]


def string_coefficients(order: int) -> list[float]:
    """Float Taylor coefficients of the string closed form, any order, each
    correctly rounded, as Python's true division of integers is.  Raises
    ValueError unless the order is a non-negative integer."""
    return [num / den for num, den in _string_ratios(order)]


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
        _generator=(1.0, 1.0, -1.0 / 8.0, 1.0 / 32.0, -1.0 / 128.0, 3.0 / 2048.0),
    ),
    "froehlich_polaron": BenchmarkProblem(
        name="froehlich_polaron",
        target_exponent=1.0,
        observable_prefactor=1.0,
        match_point=1.0,
        max_order=2,
        known_amplitude=0.108513,
        observable_exact=None,
        _generator=(1.0, 1.591962e-2, 0.806070e-3),
    ),
    "fluid_membrane": BenchmarkProblem(
        name="fluid_membrane",
        target_exponent=2.0,
        observable_prefactor=_PI_SQUARED / 8.0,
        match_point=_PI_SQUARED,
        max_order=6,
        known_amplitude=0.064683,
        observable_exact=0.0798,
        _generator=(
            1.0, 1.0 / 4.0, 1.0 / 32.0, 2.176347e-3, 0.552721e-4, -0.721482e-5,
            -1.777848e-6,
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
