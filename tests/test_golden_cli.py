"""The CLI's output, byte for byte, against a committed transcript.

``golden/cli.txt`` holds, for every command below, its argv, its stdout and
its exit status, produced in-process through ``cli.main``.  A change that
alters any of them on purpose regenerates the file and shows the new bytes
as a diff:

    PYTHONPATH=src python -m pytest tests/test_golden_cli.py --update-golden

Problem files are read from ``golden/problems`` by a path relative to the
root of the checkout, so the paths in the transcript do not depend on where
the checkout lives.  Values come from libm ``pow`` through ``**``, whose last
bit may differ between C libraries; the transcript is made with glibc.
"""

import contextlib
import io
import shlex
from pathlib import Path

from continued_roots.cli import MAX_DEPTH, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"
PROBLEMS = "tests/golden/problems"
BUILTIN = ["nls_coherent_modes", "froehlich_polaron", "fluid_membrane", "fluid_string"]


def core_commands() -> list[list[str]]:
    """Every built-in problem through every subcommand: 105 commands."""
    commands = []
    for name in BUILTIN:
        for kmax in (2, 5, 13, 16):
            for fmt in ("table", "json", "csv"):
                commands.append(
                    ["table", "--problem", name, "--kmax", str(kmax), "--format", fmt]
                )
        for order in (1, 2, 5, 13):
            source = ["--problem", name, "--order", str(order)]
            commands.append(["fit", *source])
            commands.append(["eval", *source, "--x", "0.1", "1", "10", "100", "10000"])
            commands.append(["diagnose", *source])
    for order in range(1, 10):
        commands.append(["pade-check", "--order", str(order), "--seed", "7"])
    return commands


def error_commands() -> list[list[str]]:
    """Problem files, usage errors, negative values, depth limits and values
    at the edge of the float range."""
    commands = []
    for stem in (
        "valid", "not_real", "beta_zero", "zero_amplitude", "nan_coefficient",
        "infinite_beta", "huge_integer", "unnormalised", "missing_field",
        "unknown_field", "bad_beta", "boolean_prefactor", "not_object",
        "malformed", "missing",
    ):
        path = f"{PROBLEMS}/{stem}.json"
        commands.append(["table", "--file", path, "--kmax", "2"])
        commands.append(["fit", "--file", path, "--order", "2"])
    valid = ["--file", f"{PROBLEMS}/valid.json", "--order", "3"]
    commands += [
        ["table", "--file", f"{PROBLEMS}/valid.json", "--kmax", "5", "--format", "json"],
        ["eval", *valid, "--x", "0", "0.5", "50"],
        ["diagnose", *valid],
        ["eval", "--file", f"{PROBLEMS}/not_real.json", "--order", "2", "--x", "1"],
        ["diagnose", "--file", f"{PROBLEMS}/not_real.json", "--order", "2"],
        [],
        ["fit", "--problem", "fluid_string"],
        ["fit", "--order", "2"],
        ["fit", "--problem", "fluid_string", "--order", "two"],
        ["fit", "--problem", "fluid_string", "--file", "x.json", "--order", "2"],
        ["fit", "--problem", "no_such_problem", "--order", "2"],
        ["pade-check", "--order", "3", "--seed", "x"],
    ]
    string = ["--problem", "fluid_string", "--order", "3"]
    for values in (
        ["--x", "-1e5"], ["--x", "1", "-2.5E-3"], ["--x", "-inf"], ["--x", "-nan"],
        ["--x", "nan", "1"], ["--x", "1e200"],
    ):
        commands.append(["eval", *string, *values])
    for bound in ("-1e3", "-Infinity", "0", "1e308", "0.001"):
        commands.append(["diagnose", *string, "--L", bound])
    for depth in (0, MAX_DEPTH + 1, MAX_DEPTH):
        at_depth = ["--problem", "fluid_string", "--order", str(depth)]
        commands += [
            ["table", "--problem", "fluid_string", "--kmax", str(depth), "--format", "csv"],
            ["fit", *at_depth],
            ["eval", *at_depth, "--x", "1"],
            ["diagnose", *at_depth],
            ["pade-check", "--order", str(depth)],
        ]
    return commands


def transcript() -> str:
    """Each command as ``$ argv``, then its stdout, then ``[exit N]``."""
    blocks = []
    for argv in core_commands() + error_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        blocks.append(f"$ {shlex.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "\n".join(blocks)


def test_cli_output_matches_the_transcript(request, monkeypatch):
    monkeypatch.chdir(ROOT)
    got = transcript().encode("utf-8")
    if request.config.getoption("--update-golden"):
        GOLDEN.write_bytes(got)
    assert got == GOLDEN.read_bytes()
