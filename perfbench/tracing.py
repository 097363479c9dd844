"""Spans and counters around the package's public functions.

``Tracer.install()`` replaces each traced function, in every loaded
``continued_roots`` module that holds it, with a wrapper that records a
span (name, start, end, parent) and the counts named below; ``uninstall()``
puts the originals back.  The package itself is not changed.  Spans stay in
memory and are written out by ``write()`` when the run ends; each
``install()`` starts them afresh, so the file holds the last traced round.

Self time of a span is its duration minus the durations of its direct
traced children.  ``metrics(rounds)`` reports calls, milliseconds and counts
per round of the workload, so that they do not grow with the run's length.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict

from continued_roots import _backend, approximant, corpus, diagnostics, series

# (label, owner, attribute): owner is a module whose function is rebound
# wherever the package holds it, or a class whose method is replaced.
TARGETS = (
    ("kernels.nested_expansion", _backend.kernels, "nested_expansion"),
    ("kernels.nested_evaluate", _backend.kernels, "nested_evaluate"),
    ("series.TruncatedSeries", series.TruncatedSeries, "__init__"),
    ("approximant.fit", approximant, "fit"),
    ("approximant.fit_sequence", approximant, "fit_sequence"),
    ("approximant.expand", approximant.ContinuedRootApproximant, "expand"),
    ("approximant.evaluate", approximant.ContinuedRootApproximant, "evaluate"),
    ("approximant.amplitude", approximant.ContinuedRootApproximant, "amplitude"),
    ("diagnostics.sequence_report", diagnostics, "sequence_report"),
    ("diagnostics.herschfeld_terms", diagnostics, "herschfeld_terms"),
    ("corpus.coefficients", corpus.BenchmarkProblem, "coefficients"),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "continued_roots" and m is not None]


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x) over (x, y) points."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def expansion_madds(params, order) -> int:
    """Inner-loop multiply-adds of nested_expansion: one power recurrence
    of order ``order`` per level, each sum_{m=1..order} m long."""
    return len(params) * order * (order + 1) // 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start ns, end ns, parent span index)
        self._stack: list[list] = []  # [span index, child ns]
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.fit_ns_by_order = defaultdict(list)
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, label, fn, after, before=None):
        index = len(self.names)
        self.names.append(label)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            state = before() if before is not None else None
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (index, start, end, parent)
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[label] += 1
                self.total_ns[label] += duration
                self.self_ns[label] += duration - frame[1]
                if after is not None:
                    after(args, result, error, duration, state)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_expansion(self, args, result, error, duration, state):
        self.counts["kernels.nested_expansion.madds"] += expansion_madds(args[0], args[2])

    def _after_fit(self, args, result, error, duration, state):
        order = args[0].order
        if result is not None:
            self.counts["approximant.fit.params_solved"] += len(result.params)
            self.fit_ns_by_order[order].append(duration)
        else:
            self.counts["approximant.fit.params_solved"] += max(getattr(error, "order", 1) - 1, 0)

    def _solved(self):
        return self.counts["approximant.fit.params_solved"]

    def _after_fit_sequence(self, args, result, error, duration, solved_before):
        # Distinct (position, value) pairs returned, against the parameters
        # that the fits inside this call solved.
        if result is None:
            return
        distinct = {(i, a) for fitted in result for i, a in enumerate(fitted.params)}
        self.counts["approximant.fit_sequence.params_returned"] += len(distinct)
        self.counts["approximant.fit_sequence.params_solved"] += self._solved() - solved_before

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Install the wrappers; spans restart, counts keep accumulating."""
        self.spans.clear()
        after = {
            "kernels.nested_expansion": self._after_expansion,
            "approximant.fit": self._after_fit,
            "approximant.fit_sequence": self._after_fit_sequence,
        }
        modules = _package_modules()
        for label, owner, attr in TARGETS:
            original = vars(owner)[attr]
            before = self._solved if label == "approximant.fit_sequence" else None
            wrapper = self._wrap(label, original, after.get(label), before)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._undo.append((module, name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def k_slope(self) -> float:
        """Log-log slope of median fit time against depth, over depths >= 4
        (shallower fits are dominated by call overhead); 0 with fewer than
        three depths."""
        points = [(k, statistics.median(ns)) for k, ns in sorted(self.fit_ns_by_order.items()) if k >= 4]
        return loglog_slope(points) if len(points) >= 3 else 0.0

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round, over ``rounds`` traced rounds: calls
        and milliseconds per traced function (self time, except
        fit_sequence, which is inclusive) and counts."""
        out = {}
        for label, _, _ in TARGETS:
            out[f"{label}.calls"] = (self.calls[label] / rounds, "count")
            total = self.total_ns[label] if label == "approximant.fit_sequence" else self.self_ns[label]
            out[f"{label}.ms"] = (total / 1e6 / rounds, "ms")
        for name in ("kernels.nested_expansion.madds", "approximant.fit.params_solved"):
            out[name] = (self.counts[name] / rounds, "count")
        solved = self.counts["approximant.fit_sequence.params_solved"]
        returned = self.counts["approximant.fit_sequence.params_returned"]
        out["approximant.fit_sequence.useful_ratio"] = (returned / solved if solved else 0.0, "1")
        out["approximant.fit.k_slope"] = (self.k_slope(), "1")
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in ns, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                index, start, end, parent = span
                handle.write(json.dumps([self.names[index], start, end, parent]) + "\n")
