"""Peak-memory worker: the package and one round's inputs, nothing else.

Reads ``{"root": ..., "ops": [...]}`` as JSON on standard input, imports
the package from ``<root>/src``, runs every operation once and prints
``{"peak_kb": ...}``, the peak resident set of this process.  A ``cli``
operation runs the module in this process, as ``python -m`` would, with
its output discarded.  The worker imports neither the oracle nor the
checks.

The peak is ``VmHWM`` from ``/proc/self/status``, which starts afresh at
``exec``.  ``ru_maxrss`` does not: it keeps the parent's resident set that
the child shared between fork and exec.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import runpy
import sys


def peak_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    payload = json.load(sys.stdin)
    root = payload["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import ops

    for op in payload["ops"]:
        if op["kind"] == "cli":
            sys.argv = ["continued_roots.cli", *op["argv"]]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
                runpy.run_module("continued_roots.cli", run_name="__main__")
        else:
            ops.run(op, root, None)
    sys.stdout.write(json.dumps({"peak_kb": peak_kb()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
