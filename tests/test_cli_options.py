"""The CLI's option table: the argparse parser built from it prints the
former parser's help, and ``cli._read``, which reads a well-formed argv from
it without argparse, gives the former parser's namespace or declines."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continued_roots.cli import _read, build_parser

from oracles import reference_parser

REFERENCE = reference_parser()

OWN_FLAGS = {
    "fit": ["--problem", "--file", "--order"],
    "table": ["--problem", "--file", "--kmax", "--format", "--out"],
    "eval": ["--problem", "--file", "--order", "--x"],
    "diagnose": ["--problem", "--file", "--order", "--L"],
    "pade-check": ["--order", "--seed"],
}

# What argparse also reads as an option: abbreviations, --opt=value, the end
# of options, help, and every command's full flags, which may be another's.
STRAY_FLAGS = [
    "--prob", "--fi", "--ord", "--o", "--km", "--form", "--se", "--l", "--X",
    "--order=3", "--kmax=5", "--x=1", "--problem=fluid_string", "--L=-1",
    "--", "-h", "--help", "-",
    *sorted({flag for flags in OWN_FLAGS.values() for flag in flags}),
]

# Values that convert by each option's type into its choices; values that
# do not; negative numbers and "-", which argparse reads as values and the
# reader declines; and what argparse reads as an option.
GOOD_VALUES = {
    "--problem": ["fluid_string", "nope", ""],
    "--file": ["problem.json"],
    "--order": ["3", "0", "13", " 5 ", "1_0", "+4"],
    "--kmax": ["5", "2"],
    "--format": ["table", "json", "csv"],
    "--out": ["out.txt"],
    "--x": ["1", "0.5", "1e5", "inf", "nan"],
    "--L": ["100", "1e3", "nan"],
    "--seed": ["0", "9"],
}
BAD_VALUES = [
    "x", "3.5", "-1", "xml", "TABLE", "-1e5", "-inf", "-nan", "-.5", "-Infinity",
    "-", "--", "-h", "-q", "fit",
]
ANY_VALUE = sorted({v for good in GOOD_VALUES.values() for v in good}) + BAD_VALUES


@st.composite
def argvs(draw):
    """A command (or not), then options in any order: mostly the command's
    own, each once or left out, each with one value that suits it; sometimes
    a stray or repeated option, a value that does not suit, no value or
    several."""
    command = draw(st.sampled_from([*OWN_FLAGS, "", "fi", "-h", "--order"]))
    own = OWN_FLAGS.get(command, [])
    source = [flag for flag in own if flag in ("--problem", "--file")]
    flags = [f for f in own if f not in source and draw(st.sampled_from([1, 1, 1, 0]))]
    if source:  # mostly one of them, sometimes both or neither
        flags += draw(st.sampled_from([["--problem"], ["--file"]] * 3 + [source, []]))
    flags = draw(st.permutations(flags))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        stray = draw(st.sampled_from(STRAY_FLAGS + own))
        flags.insert(draw(st.integers(0, len(flags))), stray)
    argv = [command]
    for flag in flags:
        argv.append(flag)
        for _ in range(draw(st.sampled_from([1] * 8 + [0, 2, 3]))):
            suits = flag in GOOD_VALUES and draw(st.sampled_from([1] * 7 + [0]))
            values = GOOD_VALUES[flag] if suits else ANY_VALUE
            argv.append(draw(st.sampled_from(values)))
    return argv


def fields(namespace):
    """A namespace's fields by repr, so that NaN matches NaN and 3 does not
    match 3.0."""
    return {name: repr(value) for name, value in vars(namespace).items()}


WELL_FORMED = [
    ["fit", "--problem", "fluid_string", "--order", "3"],
    ["fit", "--order", "3", "--file", "problem.json"],
    ["table", "--problem", "fluid_string", "--kmax", "13"],
    ["table", "--out", "t.csv", "--format", "csv", "--kmax", "5", "--file", "p.json"],
    ["eval", "--problem", "fluid_membrane", "--order", "4", "--x", "0.5", "1", "nan"],
    ["diagnose", "--problem", "fluid_string", "--order", "8"],
    ["diagnose", "--problem", "fluid_string", "--order", "8", "--L", "1e3"],
    ["pade-check", "--order", "3"],
    ["pade-check", "--seed", "9", "--order", "3"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_reads_well_formed_argv_as_argparse_does(argv):
    assert fields(_read(argv)) == fields(REFERENCE.parse_args(argv))


# Each of the reader's ways to decline, which argparse then parses (an
# abbreviation, a repeated option, a negative value) or rejects.
@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["fi", "--problem", "fluid_string", "--order", "3"],
        ["fit", "--problem", "fluid_string", "--ord", "3"],
        ["fit", "--problem", "fluid_string", "--order=3"],
        ["fit", "--problem", "fluid_string", "--order", "3", "--order", "4"],
        ["fit", "--problem", "fluid_string", "--", "--order", "3"],
        ["fit", "-h"],
        ["fit", "fluid_string", "--problem", "fluid_string", "--order", "3"],
        ["fit", "--order", "3"],
        ["fit", "--problem", "fluid_string", "--file", "p.json", "--order", "3"],
        ["table", "--problem", "fluid_string"],
        ["fit", "--problem", "fluid_string", "--order"],
        ["fit", "--problem", "fluid_string", "--order", "3", "4"],
        ["fit", "--problem", "fluid_string", "--order", "two"],
        ["table", "--problem", "fluid_string", "--kmax", "5", "--format", "xml"],
        ["eval", "--problem", "fluid_string", "--order", "3", "--x", "-1e5"],
        ["diagnose", "--problem", "fluid_string", "--order", "3", "--L", "-inf"],
        ["pade-check", "--problem", "fluid_string", "--order", "3"],
    ],
    ids=[
        "empty", "unknown command", "abbreviation", "opt=value", "repeated",
        "end of options", "help", "value first", "no source", "both sources",
        "required missing", "no value", "two values", "bad int", "bad choice",
        "negative x", "negative L", "another command's option",
    ],
)
def test_declines_what_is_not_plain_pairs(argv):
    assert _read(argv) is None


@settings(max_examples=1000)
@given(argvs())
@example(["eval", "--problem", "fluid_string", "--order", "3", "--x", "1", "2", "3"])
@example(["fit", "--problem", "fluid_string", "--order", "-1"])
@example(["diagnose", "--file", "p.json", "--order", "3", "--L", "nan"])
@example(["fit", "--order", "3", "--problem", "-q"])
def test_reader_gives_argparse_namespace_or_declines(argv):
    read = _read(argv)
    if read is not None:
        assert fields(read) == fields(REFERENCE.parse_args(argv))


@pytest.mark.parametrize(
    "command", [[], ["fit"], ["table"], ["eval"], ["diagnose"], ["pade-check"]]
)
def test_help_is_the_former_parsers(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    helps = []
    for parser in (build_parser(), reference_parser()):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args([*command, "--help"])
        assert exit_.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith(" ".join(["usage: continued-roots", *command]))
