"""Layered benchmark of continued-roots.

Run from the root of a checkout, with no install:

    python3 perfbench/run.py --workload deep_table --seed 1 --seconds 12 --trace 0

Workloads (closed loop, one process, one thread; ``cli`` runs one child
process at a time):

* ``deep_table``: extrapolation reports, fit_sequence over depths 2..K and
  sequence_report, on synthetic series of depth 12..32 and on the four
  built-in problems at the paper's depths, plus one fit of fluid_string at
  depth 14.
* ``fit_eval``: shallow series (depth 1..8, both signs of s and of the
  parameters), each fitted, expanded back, evaluated on a 40-point grid
  and, when real-valued, given its amplitude and certificate.
* ``cli``: ``python -m continued_roots.cli`` processes, one per
  subcommand, plus one ``eval --x nan 1``.

One round runs every case of the workload once; a run repeats whole rounds
until ``--seconds`` have passed.  Every output is checked against the
mpmath oracle (``checks.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from the wrappers in ``tracing.py`` and the tracing
overhead.  Spans of a traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import CALIBRATION_REF_S, INTERPRETER_REF_S, bare_interpreter, calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("deep_table", "fit_eval", "cli")
# Fresh interpreters timed per run for setup_s and the cli probes.
SETUP_REPEATS = 15
PROBE_REPEATS = 5
# Consecutive operations timed together between two reference operations.
# A fit_eval operation takes about 0.3 ms, less than the calibration loop,
# and timing eight at a time halved its run-to-run spread.  A cli reference
# costs two thirds of a process; one per two processes fits more rounds in
# a run and lowered the ten-run spread of ops_per_s from 0.078 to 0.044.
CHUNK = {"fit_eval": 8, "cli": 2}

# Runs in a fresh interpreter: the calibration, then the timed import, so
# that both are measured on the same CPU at nearly the same moment.
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, {bench!r})
from calibration import calibration
calibration()
cal = calibration()
t = time.perf_counter()
import {module}
elapsed = time.perf_counter() - t
if not sys.modules["continued_roots"].__file__.startswith({src!r}):
    sys.exit("continued_roots imported from outside the checkout")
print(repr(elapsed), repr(cal))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "continued_roots" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import continued_roots

    if not Path(continued_roots.__file__).resolve().is_relative_to(SRC):
        fail(f"imported continued_roots from {continued_roots.__file__}, not from {SRC}")
    return continued_roots


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def import_seconds(module: str, env: dict, repeats: int) -> list[tuple[float, float]]:
    """(import time, calibration time) pairs, each measured inside a fresh
    interpreter: the wall time of ``import module`` and of the
    calibration run just before it."""
    code = IMPORT_PROBE.format(module=module, src=str(SRC), bench=str(Path(__file__).parent))
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"import probe failed: {proc.stderr.strip()[-500:]}")
        elapsed, cal = map(float, proc.stdout.split())
        out.append((elapsed, cal))
    return out


def peak_rss_mb(workload: str, cases, env: dict) -> float:
    """Peak resident set, in MB, of a worker process that holds the program
    and its inputs: one round of an in-process workload, or the largest of
    one worker per ``cli`` command."""
    groups = [[c["op"]] for c in cases] if workload == "cli" else [[c["op"] for c in cases]]
    peak = 0.0
    for group in groups:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py"))],
            input=json.dumps({"root": str(ROOT), "ops": group}),
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            fail(f"memory worker failed: {proc.stderr.strip()[-500:]}")
        peak = max(peak, json.loads(proc.stdout)["peak_kb"] / 1024.0)
    return peak


def normalised(samples, reference_s: float = CALIBRATION_REF_S) -> float:
    """Seconds at the reference speed: the median, over samples, of each
    elapsed time divided by the time of its reference operation, times the
    reference operation's reference time."""
    return statistics.median(t / c for t, c in samples) * reference_s


class Loop:
    """Runs whole rounds of a workload's cases and checks every output.

    Between chunks of ``chunk`` consecutive operations the loop times a
    reference operation that runs none of the package: ``calibration()``
    for work inside this process, a bare interpreter start for the ``cli``
    processes.  It keeps the pair (chunk time, mean of the reference times
    before and after it).  On
    a shared two-vCPU virtual machine the speed of a round changed by up to
    40% within seconds while the ratio of the two times moved by a few
    percent only.
    """

    def __init__(self, cases, env, processes: bool, chunk: int = 1):
        import checks
        import ops

        self.cases, self.env, self.chunk = cases, env, chunk
        if processes:
            self.reference, self.reference_s = (lambda: bare_interpreter(env)), INTERPRETER_REF_S
        else:
            self.reference, self.reference_s = calibration, CALIBRATION_REF_S
        self._run, self._check = ops.run, checks.check
        self.checked: list = [None] * len(cases)  # (output, verdict) last checked
        self.wrong: list[str] = []
        self.attempted = self.failed = 0

    def round(self) -> tuple[list, float]:
        """One round: per chunk (elapsed, reference) pairs, and the round's
        wall time without the reference operations."""
        outs, pairs = [], []
        root = str(ROOT)
        cal = self.reference()
        for first in range(0, len(self.cases), self.chunk):
            start = time.perf_counter()
            for case in self.cases[first : first + self.chunk]:
                try:
                    outs.append(self._run(case["op"], root, self.env))
                except Exception as err:  # an unexpected failure counts as failed
                    outs.append({"exception": f"{type(err).__name__}: {err}"})
            elapsed = time.perf_counter() - start
            after = self.reference()
            pairs.append((elapsed, (cal + after) / 2))
            cal = after
        for i, (case, out) in enumerate(zip(self.cases, outs)):
            verdict = self.verdict(i, case, out)
            self.attempted += 1
            if verdict.status == "failed":
                self.failed += 1
            elif verdict.status == "wrong":
                self.wrong.append(f"{case['name']}: {'; '.join(verdict.problems[:3])}")
        return pairs, sum(t for t, _ in pairs)

    def verdict(self, i, case, out):
        # Outputs repeat exactly from round to round; check each new one.
        previous = self.checked[i]
        if previous is not None and previous[0] == out:
            return previous[1]
        verdict = self._check(case, out)
        self.checked[i] = (out, verdict)
        return verdict

    def accuracy(self) -> tuple[float, float]:
        """Largest parameter and value errors over the reference cases."""
        pairs = [c for case, c in zip(self.cases, self.checked) if case["reference"] and c]
        return (
            max((v.param_err for _, v in pairs), default=0.0),
            max((v.value_err for _, v in pairs), default=0.0),
        )

    def round_seconds(self, rounds) -> float:
        """Normalised seconds of one round: the sum over chunks of each
        chunk's normalised time."""
        return sum(normalised([r[0][i] for r in rounds], self.reference_s) for i in range(len(rounds[0][0])))


def cli_main_ms(cases) -> float:
    """Median wall time of in-process ``cli.main(argv)`` per subcommand,
    with standard output captured, under the tracer."""
    from continued_roots import cli

    times = []
    for case in cases:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            cli.main(case["op"]["argv"])
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_package()
    from continued_roots import backend_name

    import inputs
    import ops

    env = ops.child_env(str(ROOT))
    print(
        f"backend={backend_name()} python={platform.python_version()} "
        f"continued_roots={package.__version__} commit={commit()} "
        f"workload={args.workload} seed={args.seed} trace={args.trace}"
    )
    setup_s = normalised(import_seconds("continued_roots", env, SETUP_REPEATS))
    cases = inputs.build(args.workload, args.seed)

    loop = Loop(cases, env, processes=args.workload == "cli", chunk=CHUNK.get(args.workload, 1))
    loop.round()  # warm-up: fills caches and checks every output once
    loop.attempted = loop.failed = 0
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or (tracer and not traced) or time.perf_counter() - start < args.seconds:
        if tracer and len(traced) < len(untraced):
            tracer.install()
            try:
                traced.append(loop.round())
            finally:
                tracer.uninstall()
        else:
            untraced.append(loop.round())

    for line in loop.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    n = len(cases)
    print(
        f"rounds={len(untraced)} ops_per_round={n} "
        f"wall_ops_per_s={statistics.median(n / wall for _, wall in untraced):.6g} "
        f"normalised_ops_per_s={n / loop.round_seconds(untraced):.6g}"
    )
    if tracer is None:
        param_err, value_err = loop.accuracy()
        rss = peak_rss_mb(args.workload, cases, env)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (n / loop.round_seconds(untraced), "1/s"),
            "param_relerr_max": (param_err, "1"),
            "value_relerr_max": (value_err, "1"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        # On cli the traced rounds run child processes, which the wrappers
        # do not see; one in-process pass over the commands is its round.
        main_ms, rounds = 0.0, len(traced)
        if args.workload == "cli":
            tracer.install()
            try:
                main_ms, rounds = cli_main_ms(cases), 1
            finally:
                tracer.uninstall()
        metrics = tracer.metrics(rounds)
        metrics["trace.overhead_ratio"] = (loop.round_seconds(traced) / loop.round_seconds(untraced) - 1.0, "1")
        interpreter_ms = statistics.median(bare_interpreter(env) for _ in range(PROBE_REPEATS)) * 1e3
        metrics["cli.interpreter_ms"] = (interpreter_ms, "ms")
        import_ms = statistics.median(t for t, _ in import_seconds("continued_roots.cli", env, PROBE_REPEATS)) * 1e3
        metrics["cli.import_ms"] = (import_ms, "ms")
        metrics["cli.main_ms"] = (main_ms, "ms")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans_{args.workload}_{args.seed}.jsonl")
    result = {
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
