"""Exception types raised by fitting, evaluation, and reporting.

Each class carries a stable ``kind`` string used by the CLI when it emits
machine-readable error objects.  ``Exception`` builds the ones with fields
from their positional arguments, each field a read-only view of ``args``.
"""


def _arg(index: int, doc: str) -> property:
    """Read-only field that is ``args[index]``."""
    return property(lambda self: self.args[index], doc=doc)


class ContinuedRootError(Exception):
    """Base class for failures specific to continued-root arithmetic."""

    kind = "error"


class VanishingSensitivityError(ContinuedRootError):
    """The parameter chain is cut before the named order, so no parameter
    of that order can be fitted.

    Either the parameter before it fitted to exactly zero, so the
    coefficient of the named order no longer responds to its parameter,
    or that order's parameter leaves the float range (it, or a division
    by an earlier parameter, overflowed).  ``cut`` is the value that cut
    the chain: the zero, or the infinite or NaN parameter.
    """

    kind = "vanishing-sensitivity"
    order = _arg(0, "Order whose parameter cannot be fitted.")
    cut = _arg(1, "The zero parameter before that order, or its own non-finite one.")

    def __str__(self) -> str:
        n, cut = self.order, self.cut
        if cut == 0.0:
            return (
                f"coefficient of x^{n} is insensitive to parameter {n}: "
                f"parameter {n - 1} is {cut!r}; cannot solve for it"
            )
        return f"parameter {n} leaves the float range ({cut!r}); cannot solve for it"


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
