"""Exception types raised by fitting, evaluation, and reporting.

Each class carries a stable ``kind`` string used by the CLI when it emits
machine-readable error objects.
"""

from __future__ import annotations


class ContinuedRootError(Exception):
    """Base class for failures specific to continued-root arithmetic."""

    kind = "error"


class DegenerateSeriesError(ContinuedRootError):
    """The linear coefficient is zero, so the parameter chain has no anchor."""

    kind = "degenerate-input"


class VanishingSensitivityError(ContinuedRootError):
    """A Taylor coefficient stopped responding to its parameter.

    Happens when an earlier parameter fitted to exactly zero cuts the chain:
    the affine equation for the named order has (numerically) zero slope.
    """

    kind = "vanishing-sensitivity"

    def __init__(self, order: int, slope: float):
        super().__init__(order, slope)
        self.order, self.slope = order, slope

    def __str__(self) -> str:
        return (
            f"coefficient of x^{self.order} is insensitive to parameter "
            f"{self.order} (affine slope {self.slope:.3e}); cannot solve for it"
        )


class ComplexBreakdownError(ContinuedRootError):
    """A bracket base went negative under a non-integer power."""

    kind = "complex-breakdown"

    def __init__(self, depth: int, x: float):
        super().__init__(depth, x)
        self.depth, self.x = depth, x

    def __str__(self) -> str:
        return (
            f"bracket at depth {self.depth} has a non-positive base at "
            f"x = {self.x:g}; the value is not real"
        )


class RealnessError(ContinuedRootError):
    """An operation requiring positive parameters met a non-positive one."""

    kind = "realness"


class UnknownProblemError(ContinuedRootError):
    """Requested benchmark problem does not exist."""

    kind = "not-found"

    def __init__(self, name: str, valid: tuple[str, ...]):
        super().__init__(name, valid)
        self.name, self.valid = name, valid

    def __str__(self) -> str:
        return f"unknown problem {self.name!r}; valid names: {', '.join(self.valid)}"
