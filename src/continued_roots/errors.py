"""Exception types raised by fitting, evaluation, and reporting.

Each class carries a stable ``kind`` string used by the CLI when it emits
machine-readable error objects.  ``Exception`` builds the ones with fields
from their positional arguments, each field a read-only view of ``args``.
"""

from __future__ import annotations


def _arg(index: int, doc: str) -> property:
    """Read-only field that is ``args[index]``."""
    return property(lambda self: self.args[index], doc=doc)


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
    order = _arg(0, "Order whose coefficient does not respond.")
    slope = _arg(1, "The affine slope found at that order.")

    def __str__(self) -> str:
        return (
            f"coefficient of x^{self.order} is insensitive to parameter "
            f"{self.order} (affine slope {self.slope:.3e}); cannot solve for it"
        )


class ComplexBreakdownError(ContinuedRootError):
    """A bracket base went negative under a non-integer power."""

    kind = "complex-breakdown"
    depth = _arg(0, "1-based depth of the first bracket that is not real.")
    x = _arg(1, "The argument at which it broke down.")

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
    name = _arg(0, "The name asked for.")
    valid = _arg(1, "Every valid problem name.")

    def __str__(self) -> str:
        return f"unknown problem {self.name!r}; valid names: {', '.join(self.valid)}"
