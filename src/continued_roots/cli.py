"""Command-line interface.

Subcommands:

* ``fit``: fit one approximant to a problem's expansion and print its
  parameters and large-argument law as JSON.
* ``table``: fit depths 2..kmax and print the extrapolation report as an
  aligned table, JSON, or CSV.
* ``eval``: evaluate a fitted approximant at given points.
* ``diagnose``: print the boundedness certificate for a fitted approximant.
* ``pade-check``: verify numerically that the power -1 form collapses to
  its equivalent rational function.

Problems come either from the built-in corpus (``--problem``) or from a
JSON problem file (``--file``) with fields ``name``, ``coefficients``
(first entry 1), ``beta`` (non-zero, > -1/2), and optional
``known_amplitude``, ``observable_prefactor`` (default 1),
``observable_exact`` and ``match_point`` (default 1).

Errors, usage errors included, are reported as a JSON object
``{"error": kind, "message": ...}`` on stdout with a non-zero exit status.
The exit status is zero exactly when no error object was emitted and no
report row failed.  Depths above ``MAX_DEPTH`` are rejected before any
coefficient is generated.  Negative values (``--x -1e5``, ``--L -inf``)
parse as values and meet the command's own check, and an ``eval`` point
whose value leaves the float range is an error that names the point.

Start-up is most of a command's cost, so ``random``, which only
``pade-check`` needs, is imported where it is used, and ``--format csv``
joins its cells without the ``csv`` module.  Exit costs too: the
interpreter's shutdown runs full garbage collections over every object it
tracks, about 2 ms each for the 12k objects of a ``table`` process
(CPython 3.11 on a shared 2-vCPU VM).  A process enters through ``run``,
which freezes the collector once ``main`` is done, so that those
collections skip every object; ``main`` leaves the collector alone, for
callers that run it in-process.
"""

import argparse
import gc
import json
import math
import re
import sys
from collections.abc import Sequence

from . import corpus
from .approximant import (
    ContinuedRootApproximant,
    exponent_to_power,
    finite_order_exponent,
    fit,
)
from .diagnostics import ReportRow, depth_table, herschfeld_terms
from .errors import ContinuedRootError, RealnessError
from .series import TruncatedSeries, _order, _positive

CSV_HEADER = ["k", "B_k", "beta_k", "observable", "percent_error"]

# Largest --order and --kmax; the fit costs O(K^3), 0.29-0.35 s at 256
# (CPython 3.11 on a shared 2-vCPU VM).
MAX_DEPTH = 256


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that ``main`` prints them as JSON errors.

    Every negative float literal (``-1e5``, ``-inf``, ``-nan``) is read as a
    value, not as an option, so the command's own check names the fault;
    argparse alone reads only ``-N`` and ``-N.N`` as numbers.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="continued-roots",
        description="Extrapolate small-argument expansions to large-argument "
        "power laws with continued-root approximants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser(
        "fit", help="fit one approximant and print its parameters"
    )
    _add_source_arguments(p_fit)
    p_fit.add_argument(
        "--order", type=int, required=True, help="nesting depth k"
    )

    p_table = sub.add_parser(
        "table", help="fit depths 2..kmax and print the extrapolation report"
    )
    _add_source_arguments(p_table)
    p_table.add_argument(
        "--kmax", type=int, required=True, help="largest nesting depth"
    )
    p_table.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output rendering (default: table)",
    )
    p_table.add_argument(
        "--out", help="write the rendering to this path instead of stdout"
    )

    p_eval = sub.add_parser(
        "eval", help="evaluate a fitted approximant at given points"
    )
    _add_source_arguments(p_eval)
    p_eval.add_argument("--order", type=int, required=True, help="nesting depth k")
    p_eval.add_argument(
        "--x",
        type=float,
        nargs="+",
        required=True,
        help="one or more evaluation points (x >= 0)",
    )

    p_diag = sub.add_parser(
        "diagnose", help="print the boundedness certificate for a fit"
    )
    _add_source_arguments(p_diag)
    p_diag.add_argument("--order", type=int, required=True, help="nesting depth k")
    p_diag.add_argument(
        "--L",
        type=float,
        default=100.0,
        dest="variable_bound",
        help="right end of the argument interval (default: 100)",
    )

    p_pade = sub.add_parser(
        "pade-check",
        help="check that the power -1 form equals its rational reduction",
    )
    p_pade.add_argument("--order", type=int, required=True, help="nesting depth k")
    p_pade.add_argument(
        "--seed", type=int, default=0, help="seed for the random parameters"
    )
    return parser


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", help="name of a built-in problem")
    group.add_argument("--file", help="path to a JSON problem file")


_FILE_FIELDS = {
    "name",
    "coefficients",
    "beta",
    "known_amplitude",
    "observable_prefactor",
    "observable_exact",
    "match_point",
}


def load_problem_file(path: str) -> corpus.BenchmarkProblem:
    """Parse and validate a JSON problem file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("problem file must contain a JSON object")
    unknown = set(data) - _FILE_FIELDS
    if unknown:
        raise ValueError(
            f"problem file has unknown fields: {', '.join(sorted(unknown))}"
        )
    for field in ("name", "coefficients", "beta"):
        if field not in data:
            raise ValueError(f"problem file is missing required field {field!r}")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ValueError("problem file field 'name' must be a non-empty string")
    coeffs = data["coefficients"]
    if (
        not isinstance(coeffs, list)
        or len(coeffs) < 2
        or not all(_is_number(c) for c in coeffs)
    ):
        raise ValueError(
            "problem file field 'coefficients' must be a list of at least "
            "two finite numbers"
        )
    coeffs = [float(c) for c in coeffs]
    if coeffs[0] != 1.0:
        raise ValueError(
            "problem file coefficients must be normalised so the first "
            f"entry is 1, got {coeffs[0]!r}"
        )
    beta = data["beta"]
    if not _is_number(beta) or not beta > -0.5:
        raise ValueError(
            f"problem file field 'beta' must be a finite number above -1/2, "
            f"got {beta!r}"
        )
    if beta == 0:  # the nesting power s = beta/(1 + beta) would be 0
        raise ValueError(f"problem file field 'beta' must be non-zero, got {beta!r}")
    # keyword arguments are evaluated in order: this is the order of checks
    return corpus.BenchmarkProblem(
        known_amplitude=_optional_number(data, "known_amplitude"),
        observable_exact=_optional_number(data, "observable_exact"),
        observable_prefactor=_optional_positive(data, "observable_prefactor"),
        match_point=_optional_positive(data, "match_point"),
        name=name,
        target_exponent=float(beta),
        max_order=len(coeffs) - 1,
        _generator=tuple(coeffs),
    )


def _optional_number(data: dict, field: str) -> float | None:
    if field not in data or data[field] is None:
        return None
    value = data[field]
    if not _is_number(value):
        raise ValueError(f"problem file field {field!r} must be a finite number")
    return float(value)


def _optional_positive(data: dict, field: str) -> float:
    """An optional positive field, 1 when absent or null."""
    value = _optional_number(data, field)
    value = 1.0 if value is None else value
    _positive(value, f"problem file field {field!r}")
    return value


def _is_number(value: object) -> bool:
    """True for a finite JSON number; JSON true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _resolve_problem(args: argparse.Namespace) -> corpus.BenchmarkProblem:
    if args.problem is not None:
        return corpus.problem(args.problem)
    return load_problem_file(args.file)


def _check_depth(option: str, value: int, lowest: int) -> None:
    """Reject a depth option outside lowest..MAX_DEPTH, naming the option."""
    if _order(value, option, lowest) > MAX_DEPTH:
        raise ValueError(f"{option} must be at most {MAX_DEPTH}, got {value}")


def _fit_order(problem: corpus.BenchmarkProblem, order: int) -> ContinuedRootApproximant:
    _check_depth("--order", order, 1)
    series = TruncatedSeries(tuple(problem.coefficients(order)))
    return fit(series, exponent_to_power(problem.target_exponent))


def _json(payload: dict) -> str:
    """Indented JSON text; a non-finite number, which JSON lacks, raises."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _print_json(payload: dict) -> None:
    sys.stdout.write(_json(payload))


def _command_fit(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    approx = _fit_order(problem, args.order)
    try:
        amplitude = approx.amplitude().amplitude
    except RealnessError:
        amplitude = None
    _print_json(
        {
            "s": approx.power,
            "A": list(approx.params),
            "is_real_valued": approx.is_real_valued,
            "B_k": amplitude,
            "beta_k": finite_order_exponent(approx.power, approx.order),
        }
    )
    return 0


def _render_table_csv(rows: Sequence[ReportRow]) -> str:
    """What ``csv.writer`` writes by default (comma-separated, CRLF line
    ends): no cell holds a comma, a quote or a line break, so none is quoted."""
    lines = [CSV_HEADER] + [[_cell(value) for value in _row_values(row)] for row in rows]
    return "".join(",".join(cells) + "\r\n" for cells in lines)


def _row_values(row: ReportRow) -> tuple:
    """A row's values in the order of ``CSV_HEADER``: every rendering's columns."""
    return (row.order, row.amplitude, row.exponent, row.observable, row.percent_error)


def _cell(value: float | None, spec: str = "") -> str:
    """A value as text, blank for None; the empty spec gives its repr."""
    return "" if value is None else format(value, spec)


def _render_table_json(
    problem: corpus.BenchmarkProblem, rows: Sequence[ReportRow]
) -> str:
    payload = {
        "problem": problem.name,
        "s": exponent_to_power(problem.target_exponent),
        "beta": problem.target_exponent,
        "observable_prefactor": problem.observable_prefactor,
        "match_point": problem.match_point,
        "known_amplitude": problem.known_amplitude,
        "observable_exact": problem.observable_exact,
        "rows": [
            {
                **dict(zip(CSV_HEADER, _row_values(row))),
                **({"error": row.error} if row.failed else {}),
            }
            for row in rows
        ],
    }
    return _json(payload)


def _render_table_human(
    problem: corpus.BenchmarkProblem, rows: Sequence[ReportRow]
) -> str:
    lines = [
        f"problem: {problem.name}",
        f"power s = {exponent_to_power(problem.target_exponent):.6f}, "
        f"target exponent = {problem.target_exponent:.6f}, "
        f"prefactor = {problem.observable_prefactor:.6f}, "
        f"match point = {problem.match_point:.6f}",
        _human_line(*CSV_HEADER),
    ]
    for row in rows:
        order, *values = _row_values(row)
        line = _human_line(order, *(_cell(value, ".6f") for value in values))
        if row.failed:
            line += f"  FAILED: {row.error}"
        lines.append(line)
    if problem.known_amplitude is not None:
        lines.append(
            f"known amplitude = {problem.known_amplitude:.6f} "
            f"(observable {problem.observable_prefactor * problem.known_amplitude:.6f})"
        )
    if problem.observable_exact is not None:
        lines.append(f"published observable = {problem.observable_exact:.6f}")
    return "\n".join(lines) + "\n"


def _human_line(order: object, *cells: str) -> str:
    return f"{order:>4} " + " ".join(f"{cell:>14}" for cell in cells)


def _command_table(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    _check_depth("--kmax", args.kmax, 2)  # a table starts at depth 2
    rows = depth_table(problem, args.kmax).rows
    if args.format == "csv":
        rendering = _render_table_csv(rows)
    elif args.format == "json":
        rendering = _render_table_json(problem, rows)
    else:
        rendering = _render_table_human(problem, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(rendering)
    else:
        sys.stdout.write(rendering)
    return 1 if any(row.failed for row in rows) else 0


def _command_eval(args: argparse.Namespace) -> int:
    for x in args.x:
        if not math.isfinite(x):
            raise ValueError(f"--x must be finite, got {x!r}")
    problem = _resolve_problem(args)
    approx = _fit_order(problem, args.order)
    points = [[x, approx.evaluate(x)] for x in args.x]
    _print_json(
        {
            "problem": problem.name,
            "order": approx.order,
            "s": approx.power,
            "points": points,
        }
    )
    return 0


def _radical_exponent(s: float, depth: int) -> float:
    """The root exponent gamma_n = (1 - s**(n-1)) / ((1 - s) * s**(n-1)) of
    the radical rewrite at depth n, which ``diagnose`` prints; ValueError,
    naming the depth, where s**(n-1) underflows and it is not finite."""
    scale = s ** (depth - 1)
    denominator = (1.0 - s) * scale
    exponent = (1.0 - scale) / denominator if denominator else math.inf
    if not math.isfinite(exponent):
        raise ValueError(
            f"the radical exponent at depth {depth} for power {s!r} is not finite"
        )
    return exponent


def _command_diagnose(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    approx = _fit_order(problem, args.order)
    diag = herschfeld_terms(approx, args.variable_bound)
    s = diag.power
    _print_json(
        {
            "problem": problem.name,
            "order": approx.order,
            "power": s,
            "variable_bound": diag.variable_bound,
            "param_bound": diag.param_bound,
            "radical_exponents": [
                _radical_exponent(s, n) for n in range(2, approx.order + 1)
            ],
            "bound_terms": diag.bound_terms,
            "bound_limit": diag.bound_limit,
            "power_valid": abs(s) < 1.0,
            "bounded": diag.bounded,
        }
    )
    return 0


def _command_pade_check(args: argparse.Namespace) -> int:
    import random

    _check_depth("--order", args.order, 1)
    rng = random.Random(args.seed)
    params = tuple(rng.uniform(0.1, 2.0) for _ in range(args.order))
    approx = ContinuedRootApproximant(-1.0, params)
    numerator, denominator = approx.to_rational()
    num = TruncatedSeries(tuple(numerator))
    den = TruncatedSeries(tuple(denominator))
    worst = 0.0
    for i in range(20):
        x = 10.0 * i / 19.0
        direct = approx.evaluate(x)
        rational = num.evaluate(x) / den.evaluate(x)
        worst = max(worst, abs(direct - rational) / abs(rational))
    verdict = "PASS" if worst < 1e-10 else "FAIL"
    _print_json(
        {
            "order": args.order,
            "seed": args.seed,
            "params": list(params),
            "numerator_degree": len(numerator) - 1,
            "denominator_degree": len(denominator) - 1,
            "max_relative_deviation": worst,
            "verdict": verdict,
        }
    )
    return 0 if verdict == "PASS" else 1


_COMMANDS = {
    "fit": _command_fit,
    "table": _command_table,
    "eval": _command_eval,
    "diagnose": _command_diagnose,
    "pade-check": _command_pade_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ContinuedRootError as err:
        _print_json({"error": err.kind, "message": str(err)})
        return 1
    except ValueError as err:
        _print_json({"error": "invalid-input", "message": str(err)})
        return 1
    except OSError as err:
        _print_json({"error": "io", "message": str(err)})
        return 1


def run() -> int:
    """The process entry of ``python -m`` and of the console script:
    ``main`` on ``sys.argv``, then ``gc.freeze()`` on every way out,
    ``--help``'s ``SystemExit`` included."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
