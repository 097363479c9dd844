"""Reference operations that measure how fast the machine runs right now.

The benchmark divides each measured time by the time of a reference
operation taken next to it and reports the quotient times the reference
operation's reference time: seconds as if the machine ran the reference
operation in that time.  On a shared virtual machine the speed of the same
work moves by tens of percent within seconds as other tenants load the
host; the quotient moves by a few percent.  Neither reference runs any of
the package.

* ``calibration()`` does the kind of work the package does in-process: a
  power-series recurrence on floats, small objects and a float power.
* ``bare_interpreter()`` starts ``python -c pass``, the floor of every
  command-line process.
"""

# This module imports only sys and time: the import probe in run.py loads
# it into a fresh interpreter before it times ``import continued_roots``.
import sys
import time

# Reference time of one calibration() call, in seconds.
CALIBRATION_REF_S = 5.0e-4
# Reference time of one bare interpreter start, in seconds.
INTERPRETER_REF_S = 0.11


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def calibration() -> float:
    """Wall time of one pass of the fixed loop, in seconds."""
    start = time.perf_counter()
    u = [1.0] + [0.5 / (i + 1) for i in range(24)]
    total = 0.0
    for rep in range(6):
        s = 0.1 * rep - 0.3
        h = [0.0] * 25
        h[0] = 1.0
        for m in range(1, 25):
            acc = 0.0
            for j in range(1, m + 1):
                acc += ((s + 1.0) * j - m) * u[j] * h[m - j]
            h[m] = acc / m
        pairs = [_Pair(x, 2.0 * x) for x in h]
        total += sum(p.a * p.b for p in pairs) + (1.5 + 1e-9 * total) ** s
    return time.perf_counter() - start


def bare_interpreter(env: dict) -> float:
    """Wall time of starting and ending ``python -c pass``, in seconds."""
    import subprocess

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return time.perf_counter() - start
