"""The kernel module and its name, as the benchmark reads them.

The package has one kernel implementation, ``_kernels_py``, which its
modules import directly.  This module remains because ``perfbench/``
wraps the functions of ``kernels`` and reports ``backend_name()``.
"""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel implementation; always ``"python"``."""
    return "python"
