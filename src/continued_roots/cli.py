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
joins its cells without the ``csv`` module.  argparse, with the gettext and
locale it loads, runs only for ``--help`` and usage errors: ``_read`` reads a
well-formed argv from the option table that ``build_parser`` builds its
parser from, and declines any other, so help, usage messages and every other
output are unchanged, byte for byte.  Exit costs too: the
interpreter's shutdown runs full garbage collections over every object it
tracks, about 2 ms each for the 12k objects of a ``table`` process
(CPython 3.11 on a shared 2-vCPU VM).  A process enters through ``run``,
which freezes the collector once ``main`` is done, so that those
collections skip every object; ``main`` leaves the collector alone, for
callers that run it in-process.
"""

import gc
import json
import math
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from . import corpus
from .approximant import (
    ContinuedRootApproximant,
    exponent_to_power,
    finite_order_exponent,
    fit,
)
from .diagnostics import ReportRow, depth_table, herschfeld_terms
from .errors import ContinuedRootError, RealnessError
from .series import TruncatedSeries, _float, _order, _positive

CSV_HEADER = ["k", "B_k", "beta_k", "observable", "percent_error"]

# Largest --order and --kmax; the fit costs O(K^3), 0.29-0.35 s at 256
# (CPython 3.11 on a shared 2-vCPU VM).
MAX_DEPTH = 256


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
    coeffs = [_float(c) for c in coeffs]
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
        target_exponent=_float(beta),
        max_order=len(coeffs) - 1,
        _generator=tuple(coeffs),
    )


def _optional_number(data: dict, field: str) -> float | None:
    value = data.get(field)
    if value is not None and not _is_number(value):
        raise ValueError(f"problem file field {field!r} must be a finite number")
    return None if value is None else _float(value)


def _optional_positive(data: dict, field: str) -> float:
    """An optional positive field, 1 when absent or null."""
    value = _optional_number(data, field)
    return _positive(1.0 if value is None else value, f"problem file field {field!r}")


def _is_number(value: object) -> bool:
    """True for a finite number as ``series._float`` reads it: JSON true and
    false, text, null, a list and an int beyond the float range are not."""
    try:
        return math.isfinite(_float(value))
    except ValueError:
        return False


def _resolve_problem(args) -> corpus.BenchmarkProblem:
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


def _command_fit(args) -> int:
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


def _command_table(args) -> int:
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


def _command_eval(args) -> int:
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


def _command_diagnose(args) -> int:
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


def _command_pade_check(args) -> int:
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


# Every command's options, the one source of ``build_parser`` and ``_read``: a
# command's function, help, whether it takes the required group ``_SOURCE``, and
# further options.  An option is a flag and its ``add_argument`` keywords, which
# default to an optional str, default None, and the flag without ``--`` as dest.
_SOURCE = (
    ("--problem", dict(help="name of a built-in problem")),
    ("--file", dict(help="path to a JSON problem file")),
)
_ORDER = ("--order", dict(type=int, required=True, help="nesting depth k"))
_COMMANDS = {
    "fit": (
        _command_fit, "fit one approximant and print its parameters", True, [_ORDER],
    ),
    "table": (
        _command_table, "fit depths 2..kmax and print the extrapolation report", True, [
            ("--kmax", dict(type=int, required=True, help="largest nesting depth")),
            ("--format", dict(choices=("table", "json", "csv"), default="table",
                              help="output rendering (default: table)")),
            ("--out", dict(help="write the rendering to this path instead of stdout")),
        ],
    ),
    "eval": (
        _command_eval, "evaluate a fitted approximant at given points", True, [
            _ORDER,
            ("--x", dict(type=float, nargs="+", required=True,
                         help="one or more evaluation points (x >= 0)")),
        ],
    ),
    "diagnose": (
        _command_diagnose, "print the boundedness certificate for a fit", True, [
            _ORDER,
            ("--L", dict(type=float, default=100.0, dest="variable_bound",
                         help="right end of the argument interval (default: 100)")),
        ],
    ),
    "pade-check": (
        _command_pade_check,
        "check that the power -1 form equals its rational reduction",
        False, [
            _ORDER,
            ("--seed", dict(type=int, default=0, help="seed for the random parameters")),
        ],
    ),
}


def build_parser():
    """The argparse parser of every command, built from ``_COMMANDS``: the
    one authority for ``--help`` and for usage errors.  ``main`` builds it,
    and imports argparse, only for an argv that ``_read`` declines."""
    import argparse
    import re

    class Parser(argparse.ArgumentParser):
        """Raises usage errors, which ``main`` prints as JSON errors, and reads
        every negative float literal (``-1e5``, ``-inf``) as a value, for the
        command's own check; argparse alone reads only ``-N`` and ``-N.N``."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(r"(?i)-\.?\d|-(inf|nan)")

        def error(self, message: str):
            raise ValueError(f"{self.prog}: {message}")

    parser = Parser(
        prog="continued-roots",
        description="Extrapolate small-argument expansions to large-argument "
        "power laws with continued-root approximants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, source, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        if source:
            group = command.add_mutually_exclusive_group(required=True)
            for flag, keywords in _SOURCE:
                group.add_argument(flag, **keywords)
        for flag, keywords in options:
            command.add_argument(flag, **keywords)
    return parser


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)``, read from ``_COMMANDS`` without
    argparse, for a command and then plain ``--option value`` pairs: each
    option spelled in full and given at most once, with one value (or more for
    ``nargs``) that does not start with ``-`` and converts by its type into its
    choices; every required option, and one of ``--problem`` and ``--file``.
    None for any other argv, which argparse then parses or rejects."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, _, source, options = _COMMANDS[argv[0]]
    options = [*(_SOURCE if source else ()), *options]
    given, values = dict.fromkeys(flag for flag, _ in options), None
    for arg in argv[1:]:
        if arg[:1] == "-":
            if given.get(arg, 0) is not None:  # not an option, or given twice
                return None
            values = given[arg] = []
        elif values is None:
            return None
        else:
            values.append(arg)
    if source and (given["--problem"] is None) == (given["--file"] is None):
        return None
    args = SimpleNamespace(command=argv[0])
    for flag, keywords in options:
        strings, get = given[flag], keywords.get
        if strings is None:
            if get("required"):
                return None
            value = get("default")
        elif not strings or len(strings) > 1 and "nargs" not in keywords:
            return None
        else:
            try:
                value = [get("type", str)(string) for string in strings]
            except ValueError:
                return None
            if any(v not in get("choices", (v,)) for v in value):
                return None
            value = value if "nargs" in keywords else value[0]
        setattr(args, get("dest", flag[2:]), value)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv) or build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
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
