"""How fit and fit_sequence cost grows with depth K.

Run from the root of a checkout:

    python3 perfbench/scaling.py

Times ``approximant.fit`` at depth K and ``approximant.fit_sequence`` over
depths 2..K on synthetic series (parameters log-uniform in [0.6, 1.6],
beta = 2, coefficients from the oracle rounded to float64) for
K = 8, 12, ..., 40, and prints the median of three times and the log-log
slope of each.  The slopes are the exponents of the cost law: about 4 for fit and 5
for fit_sequence when every depth is refit from scratch.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEPTHS = range(8, 41, 4)
REPEATS = 3


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from continued_roots import approximant, backend_name, series

    import inputs
    from tracing import loglog_slope

    rng = random.Random(1)
    beta = 2.0
    s = inputs.power_of(beta)
    fit_ms, seq_ms = [], []
    print(f"backend={backend_name()}")
    print(f"{'K':>4} {'fit ms':>10} {'fit_sequence ms':>16}")
    for k in DEPTHS:
        params = [math.exp(rng.uniform(math.log(0.6), math.log(1.6))) for _ in range(k)]
        ts = series.TruncatedSeries(tuple(inputs.coefficients_of(params, s, k)))
        one, seq = [], []
        for _ in range(REPEATS):
            start = time.perf_counter()
            approximant.fit(ts, s)
            one.append(time.perf_counter() - start)
            start = time.perf_counter()
            approximant.fit_sequence(ts, s, range(2, k + 1))
            seq.append(time.perf_counter() - start)
        fit_ms.append((k, statistics.median(one) * 1e3))
        seq_ms.append((k, statistics.median(seq) * 1e3))
        print(f"{k:>4} {fit_ms[-1][1]:>10.3f} {seq_ms[-1][1]:>16.3f}")
    print(f"log-log slope: fit {loglog_slope(fit_ms):.2f}, fit_sequence {loglog_slope(seq_ms):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
