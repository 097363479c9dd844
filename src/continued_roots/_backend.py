"""The kernel module and its name, as the benchmark reads them.

``perfbench/`` wraps ``kernels.nested_expansion`` and
``kernels.nested_evaluate`` and reports ``backend_name()``.  Both functions
live in ``approximant``, which calls them by their module-level names, so
the wrappers see every call.
"""

from . import approximant as kernels


def backend_name() -> str:
    """Name of the kernel implementation; always ``"python"``."""
    return "python"
