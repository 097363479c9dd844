"""Command-line interface: outputs, formats, error objects, exit codes."""

import csv
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from continued_roots import (
    ContinuedRootError,
    ExponentTarget,
    ReportRow,
    TruncatedSeries,
    exponent_to_power,
    finite_order_exponent,
    problem,
    sequence_report,
)
from continued_roots import cli, corpus
from continued_roots.cli import (
    MAX_DEPTH,
    _render_table_csv,
    _render_table_human,
    _radical_exponent,
    _render_table_json,
    main,
)

from oracles import reference_fit, reference_parser

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity tokens JSON does not have."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def reference_rows(prob, kmax):
    """Report rows from one reference fit per depth, a failed fit giving a
    row with only the error."""
    target = ExponentTarget(prob.target_exponent, prob.known_amplitude)
    power = exponent_to_power(prob.target_exponent)
    coeffs = prob.coefficients(kmax)
    fitted, failed = [], {}
    for k in range(2, kmax + 1):
        try:
            fitted.append(reference_fit(TruncatedSeries(tuple(coeffs[: k + 1])), power))
        except ContinuedRootError as err:
            failed[k] = str(err)
    report = sequence_report(
        fitted,
        target,
        observable_prefactor=prob.observable_prefactor,
        match_point=prob.match_point,
    )
    by_order = {row.order: row for row in report.rows}
    return [
        ReportRow(k, None, None, None, None, error=failed[k])
        if k in failed
        else by_order[k]
        for k in range(2, kmax + 1)
    ]


def write_problem(tmp_path, **overrides):
    payload = {
        "name": "custom",
        "coefficients": [1.0, 0.5],
        "beta": 1.0,
    }
    payload.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestFit:
    def test_polaron_depth_two(self, capsys):
        code, out = run_cli(
            capsys, "fit", "--problem", "froehlich_polaron", "--order", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"s", "A", "is_real_valued", "B_k", "beta_k"}
        assert payload["s"] == 0.5
        assert payload["beta_k"] == 0.75
        assert payload["is_real_valued"] is True
        assert len(payload["A"]) == 2
        assert payload["A"][0] == pytest.approx(0.03183924, rel=1e-12)
        assert payload["B_k"] == pytest.approx(0.1044, abs=5e-5)

    def test_modes_depth_five(self, capsys):
        code, out = run_cli(
            capsys, "fit", "--problem", "nls_coherent_modes", "--order", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["B_k"] == pytest.approx(1.523475, abs=1e-5)

    def test_file_problem(self, capsys, tmp_path):
        path = write_problem(tmp_path)
        code, out = run_cli(capsys, "fit", "--file", path, "--order", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == 0.5
        assert payload["A"] == [pytest.approx(1.0, rel=1e-14)]

    @pytest.mark.parametrize("c1", [1e13, 2e13, 1e300])
    def test_large_linear_coefficient_fits(self, capsys, tmp_path, c1):
        # A1 = c1 / s, whatever the size of c1
        path = write_problem(tmp_path, coefficients=[1.0, c1], beta=2.0)
        code, out = run_cli(capsys, "fit", "--file", path, "--order", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["A"] == [c1 / payload["s"]]

    def test_negative_param_nulls_amplitude(self, capsys, tmp_path):
        path = write_problem(tmp_path, coefficients=[1.0, -0.5])
        code, out = run_cli(capsys, "fit", "--file", path, "--order", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_real_valued"] is False
        assert payload["B_k"] is None

    def test_unknown_problem(self, capsys):
        code, out = run_cli(capsys, "fit", "--problem", "bogus", "--order", "2")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "not-found"
        assert "fluid_membrane" in payload["message"]

    def test_order_beyond_available(self, capsys):
        code, out = run_cli(
            capsys, "fit", "--problem", "froehlich_polaron", "--order", "9"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "invalid-input"
        assert "order 2" in payload["message"]

    def test_source_is_required(self, capsys):
        code, out = run_cli(capsys, "fit", "--order", "2")
        assert code == 1
        payload = strict_json(out)
        assert payload["error"] == "invalid-input"
        assert "--problem" in payload["message"]


class TestUsageErrors:
    # usage errors give the one JSON error object, on stdout, with exit
    # status 1; so do negative values, which the parser reads as values
    # (argparse alone reads only -N and -N.N as numbers) and the command's
    # own check then rejects
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--problem", "fluid_string", "--order", "3", "--x", "-inf"],
            ["eval", "--problem", "fluid_string", "--order", "3", "--x", "-1e5"],
            ["diagnose", "--problem", "fluid_string", "--order", "3", "--L", "-1e3"],
            ["fit", "--problem", "fluid_string", "--order", "two"],
            ["table", "--problem", "fluid_string", "--kmax", "5", "--format", "xml"],
            ["fit", "--problem", "fluid_string"],
            [],
        ],
    )
    def test_usage_error_is_a_json_object(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert strict_json(captured.out)["error"] == "invalid-input"
        assert captured.err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--x", "-1e5"], "argument must be non-negative"),
            (["eval", "--x", "1", "-2.5E-3"], "argument must be non-negative"),
            (["eval", "--x", "-inf"], "--x must be finite"),
            (["eval", "--x", "-nan"], "--x must be finite"),
            (["diagnose", "--L", "-1e3"], "variable bound must be positive"),
            (["diagnose", "--L", "-Infinity"], "variable bound must be positive"),
        ],
    )
    def test_negative_values_reach_the_command_check(self, capsys, argv, message):
        command, *values = argv
        code, out = run_cli(
            capsys, command, "--problem", "fluid_string", "--order", "3", *values
        )
        assert code == 1
        payload = strict_json(out)
        assert payload["error"] == "invalid-input"
        assert payload["message"].startswith(message)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: continued-roots fit")


@pytest.fixture
def no_coefficients(monkeypatch):
    """Fail the test if a problem generates any coefficient."""

    def refuse(self, order):
        raise AssertionError(f"coefficients({order}) generated")

    monkeypatch.setattr(corpus.BenchmarkProblem, "coefficients", refuse)


ORDER_COMMANDS = [
    ["fit", "--problem", "fluid_string"],
    ["eval", "--problem", "fluid_string", "--x", "1"],
    ["diagnose", "--problem", "fluid_string"],
    ["pade-check"],
]


class TestDepthCap:
    @pytest.mark.parametrize("argv", ORDER_COMMANDS)
    def test_order_above_cap_rejected_before_coefficients(
        self, capsys, no_coefficients, argv
    ):
        code, out = run_cli(capsys, *argv, "--order", str(MAX_DEPTH + 1))
        assert code == 1
        payload = strict_json(out)
        assert payload["error"] == "invalid-input"
        assert f"--order must be at most {MAX_DEPTH}" in payload["message"]

    @pytest.mark.parametrize("argv", ORDER_COMMANDS)
    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_rejected_before_coefficients(
        self, capsys, no_coefficients, argv, order
    ):
        code, out = run_cli(capsys, *argv, "--order", str(order))
        assert code == 1
        assert strict_json(out) == {
            "error": "invalid-input",
            "message": f"--order must be at least 1, got {order}",
        }

    def test_kmax_above_cap_rejected_before_coefficients(
        self, capsys, no_coefficients
    ):
        code, out = run_cli(
            capsys, "table", "--problem", "fluid_string", "--kmax", str(MAX_DEPTH + 1)
        )
        assert code == 1
        payload = strict_json(out)
        assert payload["error"] == "invalid-input"
        assert f"--kmax must be at most {MAX_DEPTH}" in payload["message"]

    @pytest.mark.parametrize("kmax", [1, 0, -3])
    def test_kmax_below_two_rejected_before_coefficients(
        self, capsys, no_coefficients, kmax
    ):
        code, out = run_cli(
            capsys, "table", "--problem", "fluid_string", "--kmax", str(kmax)
        )
        assert code == 1
        assert strict_json(out) == {
            "error": "invalid-input",
            "message": f"--kmax must be at least 2, got {kmax}",
        }

    def test_depth_at_cap_is_fitted(self, capsys):
        # the string fit runs to order 189, where a parameter leaves the
        # float range, so the cap is not what fails
        code, out = run_cli(
            capsys, "fit", "--problem", "fluid_string", "--order", str(MAX_DEPTH)
        )
        assert code == 1
        assert strict_json(out) == {
            "error": "vanishing-sensitivity",
            "message": "parameter 189 leaves the float range (nan); "
            "cannot solve for it",
        }


class TestProblemFileValidation:
    def test_unnormalised_coefficients(self, capsys, tmp_path):
        path = write_problem(tmp_path, coefficients=[2.0, 0.5])
        code, out = run_cli(capsys, "fit", "--file", path, "--order", "1")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "invalid-input"
        assert "1" in payload["message"]

    def test_missing_required_field(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "x", "coefficients": [1.0, 1.0]}))
        code, out = run_cli(capsys, "fit", "--file", str(path), "--order", "1")
        assert code == 1
        assert "beta" in json.loads(out)["message"]

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = write_problem(tmp_path, observable_prefacter=2.0)
        code, out = run_cli(capsys, "fit", "--file", path, "--order", "1")
        assert code == 1
        assert "observable_prefacter" in json.loads(out)["message"]

    def test_invalid_beta(self, capsys, tmp_path):
        path = write_problem(tmp_path, beta=-0.75)
        code, out = run_cli(capsys, "fit", "--file", path, "--order", "1")
        assert code == 1
        assert "beta" in json.loads(out)["message"]

    @pytest.mark.parametrize("beta", [0, 0.0, -0.0])
    @pytest.mark.parametrize("command", ["fit", "table"])
    def test_zero_beta_rejected_naming_the_field(
        self, capsys, tmp_path, command, beta
    ):
        path = write_problem(tmp_path, beta=beta)
        depth = "--order" if command == "fit" else "--kmax"
        code, out = run_cli(capsys, command, "--file", path, depth, "2")
        assert code == 1
        assert strict_json(out) == {
            "error": "invalid-input",
            "message": f"problem file field 'beta' must be non-zero, got {beta!r}",
        }

    @pytest.mark.parametrize("command", ["fit", "table"])
    def test_beta_whose_power_rounds_to_one_rejected_naming_beta(
        self, capsys, tmp_path, command
    ):
        path = write_problem(tmp_path, coefficients=[1, 0.5, 0.1], beta=1e16)
        depth = "--order" if command == "fit" else "--kmax"
        code, out = run_cli(capsys, command, "--file", path, depth, "2")
        assert code == 1
        assert strict_json(out) == {
            "error": "invalid-input",
            "message": "target exponent must leave beta / (1 + beta) below 1, "
            "got 1e+16",
        }

    def assert_rejected(self, capsys, path, field):
        code, out = run_cli(capsys, "fit", "--file", path, "--order", "2")
        assert code == 1
        payload = strict_json(out)
        assert payload["error"] == "invalid-input"
        assert field in payload["message"]

    def test_nan_coefficient_rejected(self, capsys, tmp_path):
        path = write_problem(tmp_path, coefficients=[1.0, float("nan"), 0.1])
        self.assert_rejected(capsys, path, "coefficients")

    def test_infinite_beta_rejected(self, capsys, tmp_path):
        path = write_problem(tmp_path, beta=float("inf"))
        self.assert_rejected(capsys, path, "beta")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coefficients", [1, True, 0.1]),
            ("beta", True),
            ("known_amplitude", False),
            ("match_point", True),
        ],
    )
    def test_boolean_is_not_a_number(self, capsys, tmp_path, field, value):
        overrides = {"coefficients": [1.0, 0.5, 0.1], field: value}
        self.assert_rejected(capsys, write_problem(tmp_path, **overrides), field)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("known_amplitude", float("nan")),
            ("observable_exact", float("-inf")),
            ("observable_prefactor", float("inf")),
            ("coefficients", [1, 10**400]),
        ],
    )
    def test_non_finite_number_rejected(self, capsys, tmp_path, field, value):
        overrides = {"coefficients": [1.0, 0.5, 0.1], field: value}
        self.assert_rejected(capsys, write_problem(tmp_path, **overrides), field)

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("name", "", "must be a non-empty string"),
            ("observable_prefactor", 0, "must be positive, got 0.0"),
            ("observable_prefactor", -2.5, "must be positive, got -2.5"),
            ("match_point", 0.0, "must be positive, got 0.0"),
            ("match_point", -1, "must be positive, got -1.0"),
            ("known_amplitude", "big", "must be a finite number"),
            ("observable_exact", [1.0], "must be a finite number"),
        ],
    )
    def test_invalid_field_value_rejected(self, capsys, tmp_path, field, value, rule):
        path = write_problem(tmp_path, **{field: value})
        code, out = run_cli(capsys, "fit", "--file", path, "--order", "1")
        assert code == 1
        assert strict_json(out) == {
            "error": "invalid-input",
            "message": f"problem file field {field!r} {rule}",
        }

    def test_optional_positive_fields_default_to_one(self, capsys, tmp_path):
        path = write_problem(
            tmp_path, coefficients=[1.0, 0.5, 0.1], observable_prefactor=None
        )
        code, out = run_cli(
            capsys, "table", "--file", path, "--kmax", "2", "--format", "json"
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["observable_prefactor"] == payload["match_point"] == 1.0

    def test_non_object_rejected(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out = run_cli(capsys, "fit", "--file", str(path), "--order", "1")
        assert code == 1
        assert strict_json(out) == {
            "error": "invalid-input",
            "message": "problem file must contain a JSON object",
        }

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, "fit", "--file", str(path), "--order", "1")
        assert code == 1
        assert json.loads(out)["error"] == "invalid-input"

    def test_missing_file(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "fit", "--file", str(tmp_path / "nope.json"), "--order", "1"
        )
        assert code == 1
        assert json.loads(out)["error"] == "io"


class TestTable:
    def test_string_csv(self, capsys):
        code, out = run_cli(
            capsys,
            "table",
            "--problem",
            "fluid_string",
            "--kmax",
            "13",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "B_k", "beta_k", "observable", "percent_error"]
        assert len(rows) == 13
        observables = [float(r[3]) for r in rows[1:]]
        assert observables[0] == pytest.approx(0.047705, abs=1e-5)
        assert observables[-1] == pytest.approx(0.078363, abs=1e-5)

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_matches_rows_of_the_reference_fit(self, capsys, fmt):
        # depths 14..16 fail: every row past the failure carries its error
        string = problem("fluid_string")
        rows = reference_rows(string, 16)
        assert [row.failed for row in rows] == [False] * 12 + [True] * 3
        want = {
            "table": lambda: _render_table_human(string, rows),
            "json": lambda: _render_table_json(string, rows),
            "csv": lambda: _render_table_csv(rows),
        }[fmt]()
        code, out = run_cli(
            capsys, "table", "--problem", "fluid_string", "--kmax", "16",
            "--format", fmt,
        )
        assert code == 1
        assert out == want

    def test_human_and_csv_bytes_are_pinned(self, capsys):
        # ok rows 2..13, then rows 14 and 15, which keep their exponent and
        # fail on the negative A14; the CSV module ends lines with CRLF
        failure = (
            "amplitude requires strictly positive parameters; "
            "parameter 14 is -0.8493983206028883"
        )
        blank = " " * 15  # an empty 14-wide cell and its separator
        human = [
            "problem: fluid_string",
            "power s = 0.666667, target exponent = 2.000000, "
            "prefactor = 1.233701, match point = 9.869604",
            "   k            B_k         beta_k     observable  percent_error",
            "   2       0.295919       1.111111       0.047705     -38.131289",
            "   3       0.193153       1.407407       0.061362     -20.419376",
            "   4       0.141381       1.604938       0.070598      -8.440986",
            "   5       0.112814       1.736626       0.076155      -1.233750",
            "   6       0.095837       1.824417       0.079097       2.581445",
            "   7       0.085132       1.882945       0.080336       4.189206",
            "   8       0.078047       1.921963       0.080533       4.444603",
            "   9       0.073177       1.947975       0.080141       3.935858",
            "  10       0.069801       1.965317       0.079540       3.156606",
            "  11       0.067686       1.976878       0.079199       2.713934",
            "  12       0.066438       1.984585       0.079123       2.615381",
            "  13       0.065030       1.989724       0.078363       1.629280",
            f"  14{blank}       1.993149{blank * 2}  FAILED: {failure}",
            f"  15{blank}       1.995433{blank * 2}  FAILED: {failure}",
            "known amplitude = 0.062500 (observable 0.077106)",
            "published observable = 0.077106",
        ]
        csv_lines = [
            "k,B_k,beta_k,observable,percent_error",
            "2,0.2959191570631199,1.1111111111111112,0.047704664262194815,"
            "-38.131288981684364",
            "3,0.19315324994166885,1.4074074074074072,0.061361662030640376,"
            "-20.419376291768586",
            "4,0.1413809516698047,1.604938271604938,0.07059775375777974,"
            "-8.44098594267465",
            "5,0.11281367965709162,1.7366255144032918,0.07615498542032927,"
            "-1.2337502329249572",
            "6,0.09583650170717707,1.8244170096021946,0.0790967407081514,"
            "2.5814450022525692",
            "7,0.08513160621241812,1.8829446730681296,0.08033642547111693,"
            "4.189205994598666",
            "8,0.0780473341026392,1.921963115378753,0.08053335223283599,"
            "4.444602507727979",
            "9,0.07317680768588773,1.947975410252502,0.0801410783163732,"
            "3.9358580913692487",
            "10,0.06980112479196746,1.9653169401683346,0.07954022622258018,"
            "3.156606311054566",
            "11,0.06768611983039328,1.9768779601122228,0.07919889796119871,"
            "2.713933882846531",
            "12,0.06643842136403492,1.9845853067414818,0.0791229074550362,"
            "2.615380948062973",
            "13,0.06503044839898947,1.9897235378276545,0.07836256142061103,"
            "1.6292796976858037",
            "14,,1.9931490252184363,,",
            "15,,1.9954326834789575,,",
        ]
        argv = ["table", "--problem", "fluid_string", "--kmax", "15", "--format"]
        assert run_cli(capsys, *argv, "table") == (1, "\n".join(human) + "\n")
        assert run_cli(capsys, *argv, "csv") == (1, "\r\n".join(csv_lines) + "\r\n")
        code, out = run_cli(capsys, *argv, "json")
        rows = strict_json(out)["rows"]
        assert code == 1
        assert list(rows[0]) == ["k", "B_k", "beta_k", "observable", "percent_error"]
        assert list(rows[-1]) == [
            "k", "B_k", "beta_k", "observable", "percent_error", "error",
        ]
        assert rows[-1]["error"] == failure

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_zero_known_amplitude_is_a_typed_error(self, capsys, tmp_path, fmt):
        path = write_problem(
            tmp_path, coefficients=[1.0, 0.5, 0.1], known_amplitude=0
        )
        code, out = run_cli(
            capsys, "table", "--file", path, "--kmax", "2", "--format", fmt
        )
        assert code == 1
        assert strict_json(out) == {
            "error": "invalid-input",
            "message": "known amplitude must be non-zero, got 0.0",
        }

    @pytest.mark.parametrize(
        "overrides, error",
        [
            # the estimate B_2 * 1e-10 ** (beta_2 - 2) is 4.6e8, times 1e300
            (
                {"observable_prefactor": 1e300, "known_amplitude": 1.0},
                "the observable at depth 2 leaves the float range",
            ),
            # (4.6e8 - 1e-300) / 1e-300 * 100
            (
                {"known_amplitude": 1e-300},
                "the percent error at depth 2 leaves the float range",
            ),
        ],
    )
    def test_overflowing_observable_fails_its_row(
        self, capsys, tmp_path, overrides, error
    ):
        fields = {"coefficients": [1, 0.5, 0.1], "beta": 2, "match_point": 1e-10}
        path = write_problem(tmp_path, name="big", **fields, **overrides)
        argv = ("table", "--file", path, "--kmax", "2", "--format")
        code, out = run_cli(capsys, *argv, "json")
        assert code == 1
        assert strict_json(out)["rows"] == [
            {
                "k": 2, "B_k": None, "beta_k": finite_order_exponent(2 / 3, 2),
                "observable": None, "percent_error": None, "error": error,
            }
        ]
        code, out = run_cli(capsys, *argv, "csv")
        assert code == 1
        assert list(csv.reader(io.StringIO(out)))[1][1:] == [
            "", repr(finite_order_exponent(2 / 3, 2)), "", "",
        ]
        code, out = run_cli(capsys, *argv, "table")
        assert code == 1
        assert out.splitlines()[3].endswith(f"  FAILED: {error}")
        assert "inf" not in out

    def test_error_cells_empty_without_baseline(self, capsys, tmp_path):
        path = write_problem(tmp_path, coefficients=[1.0, 0.5, 0.1])
        code, out = run_cli(
            capsys, "table", "--file", path, "--kmax", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][4] == ""
        assert float(rows[1][1]) > 0.0

    def test_polaron_single_row(self, capsys):
        code, out = run_cli(
            capsys,
            "table",
            "--problem",
            "froehlich_polaron",
            "--kmax",
            "2",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[1][0] == "2"
        assert round(float(rows[1][4]), 1) == -3.8

    def test_json_and_csv_carry_identical_numbers(self, capsys):
        code_csv, out_csv = run_cli(
            capsys,
            "table",
            "--problem",
            "fluid_membrane",
            "--kmax",
            "6",
            "--format",
            "csv",
        )
        code_json, out_json = run_cli(
            capsys,
            "table",
            "--problem",
            "fluid_membrane",
            "--kmax",
            "6",
            "--format",
            "json",
        )
        assert code_csv == code_json == 0
        csv_rows = list(csv.reader(io.StringIO(out_csv)))[1:]
        json_rows = json.loads(out_json)["rows"]
        assert len(csv_rows) == len(json_rows)
        for text_row, obj_row in zip(csv_rows, json_rows):
            assert int(text_row[0]) == obj_row["k"]
            # repr round-trips floats exactly, so parsing the CSV cell must
            # give bit-identical numbers
            assert float(text_row[1]) == obj_row["B_k"]
            assert float(text_row[2]) == obj_row["beta_k"]
            assert float(text_row[3]) == obj_row["observable"]
            assert float(text_row[4]) == obj_row["percent_error"]

    def test_json_metadata(self, capsys):
        code, out = run_cli(
            capsys,
            "table",
            "--problem",
            "fluid_string",
            "--kmax",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["problem"] == "fluid_string"
        assert payload["s"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert payload["match_point"] == pytest.approx(math.pi**2, rel=1e-15)
        assert payload["known_amplitude"] == 0.0625

    def test_human_table(self, capsys):
        code, out = run_cli(
            capsys, "table", "--problem", "nls_coherent_modes", "--kmax", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "problem: nls_coherent_modes"
        header = lines[2].split()
        assert header == ["k", "B_k", "beta_k", "observable", "percent_error"]
        first = lines[3].split()
        assert first[0] == "2"
        assert first[1] == "1.549484"
        assert any("known amplitude = 1.500000" in line for line in lines)

    def test_failed_row_sets_exit_code(self, capsys, tmp_path):
        # a strongly negative quadratic coefficient drives the second
        # parameter negative, so depth 2 has no real amplitude
        path = write_problem(tmp_path, coefficients=[1.0, 1.0, -10.0])
        code, out = run_cli(
            capsys, "table", "--file", path, "--kmax", "2", "--format", "csv"
        )
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == "2"
        assert rows[1][1] == ""
        assert rows[1][3] == ""
        assert rows[1][2] != ""

    def test_failed_row_marked_in_json_and_human(self, capsys, tmp_path):
        path = write_problem(tmp_path, coefficients=[1.0, 1.0, -10.0])
        code, out = run_cli(
            capsys, "table", "--file", path, "--kmax", "2", "--format", "json"
        )
        assert code == 1
        row = json.loads(out)["rows"][0]
        assert row["B_k"] is None
        assert "error" in row
        code, out = run_cli(capsys, "table", "--file", path, "--kmax", "2")
        assert code == 1
        assert "FAILED" in out

    def test_kmax_beyond_available_coefficients(self, capsys):
        code, out = run_cli(
            capsys, "table", "--problem", "froehlich_polaron", "--kmax", "4"
        )
        assert code == 1
        assert json.loads(out)["error"] == "invalid-input"

    def test_kmax_domain(self, capsys):
        code, out = run_cli(
            capsys, "table", "--problem", "fluid_string", "--kmax", "1"
        )
        assert code == 1
        assert "kmax" in json.loads(out)["message"]

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out = run_cli(
            capsys,
            "table",
            "--problem",
            "fluid_string",
            "--kmax",
            "4",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert rows[0][0] == "k"
        assert len(rows) == 4

    def test_out_write_failure(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "report.csv"
        code, out = run_cli(
            capsys,
            "table",
            "--problem",
            "fluid_string",
            "--kmax",
            "4",
            "--out",
            str(target),
        )
        assert code == 1
        assert json.loads(out)["error"] == "io"


class TestEval:
    def test_points(self, capsys):
        code, out = run_cli(
            capsys,
            "eval",
            "--problem",
            "fluid_string",
            "--order",
            "5",
            "--x",
            "0",
            "2.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["points"][0] == [0.0, 1.0]
        assert payload["points"][1][1] > 1.0

    def test_negative_point(self, capsys):
        code, out = run_cli(
            capsys,
            "eval",
            "--problem",
            "fluid_string",
            "--order",
            "3",
            "--x",
            "-1",
        )
        assert code == 1
        assert json.loads(out)["error"] == "invalid-input"

    def test_non_finite_points_rejected(self, capsys):
        for points in (["nan", "inf"], ["1", "nan"]):
            code, out = run_cli(
                capsys,
                "eval",
                "--problem",
                "fluid_membrane",
                "--order",
                "4",
                "--x",
                *points,
            )
            assert code == 1
            payload = strict_json(out)
            assert payload["error"] == "invalid-input"
            assert "--x" in payload["message"]

    @pytest.mark.parametrize("order", [8, 13])
    def test_value_beyond_float_range_names_the_point(self, capsys, order):
        # a finite, valid point whose value, about 1.9e383 at order 8 and
        # 5.7e396 at order 13, is beyond the float range
        code, out = run_cli(
            capsys, "eval", "--problem", "fluid_string", "--order", str(order),
            "--x", "1", "1e200",
        )
        assert code == 1
        payload = strict_json(out)
        assert payload["error"] == "invalid-input"
        assert payload["message"] == "the value at x = 1e+200 leaves the float range"

    def test_overflowing_bracket_with_a_finite_value_prints_it(self, capsys):
        # the inner bracket overflows, but the value is 5.8530670785986856e280
        # (60 digits); the brackets are evaluated in logs from there outward
        code, out = run_cli(
            capsys, "eval", "--problem", "fluid_string", "--order", "3",
            "--x", "1e100", "1e200",
        )
        assert code == 0
        points = strict_json(out)["points"]
        assert points[1][1] == pytest.approx(5.8530670785986856e280, rel=1e-13)
        # the first point's brackets stay finite: the direct loop's value
        assert points[0][1] == 1.0632680416329295e140

    def test_complex_breakdown_reported(self, capsys, tmp_path):
        path = write_problem(tmp_path, coefficients=[1.0, 1.0, -10.0])
        code, out = run_cli(
            capsys, "eval", "--file", path, "--order", "2", "--x", "5.0"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "complex-breakdown"
        assert "depth 2" in payload["message"]


class TestDiagnose:
    def test_membrane_certificate(self, capsys):
        code, out = run_cli(
            capsys, "diagnose", "--problem", "fluid_membrane", "--order", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["variable_bound"] == 100.0
        assert payload["power_valid"] is True
        assert payload["bounded"] is True
        assert len(payload["bound_terms"]) == 4
        assert payload["bound_limit"] == pytest.approx(
            (100.0 * payload["param_bound"]) ** 2.0, rel=1e-12
        )

    def test_custom_interval(self, capsys):
        code, out = run_cli(
            capsys,
            "diagnose",
            "--problem",
            "fluid_string",
            "--order",
            "8",
            "--L",
            "100",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_limit"] == pytest.approx(1406.25, rel=1e-12)
        assert max(payload["bound_terms"]) <= payload["bound_limit"] * (1 + 1e-12)

    def test_non_finite_result_is_a_typed_error(self, capsys):
        # an infinite interval makes the cap infinite, which JSON cannot hold
        code, out = run_cli(
            capsys, "diagnose", "--problem", "fluid_string", "--order", "8",
            "--L", "inf",
        )
        assert code == 1
        assert strict_json(out)["error"] == "invalid-input"

    def test_overflowing_terms_are_a_typed_error(self, capsys):
        code, out = run_cli(
            capsys, "diagnose", "--problem", "fluid_string", "--order", "8",
            "--L", "1e308",
        )
        assert code == 1
        payload = strict_json(out)
        assert payload["error"] == "invalid-input"
        assert "L*max(A)" in payload["message"]

    def test_non_real_fit_reported(self, capsys, tmp_path):
        path = write_problem(tmp_path, coefficients=[1.0, 1.0, -10.0])
        code, out = run_cli(
            capsys, "diagnose", "--file", path, "--order", "2"
        )
        assert code == 1
        assert json.loads(out)["error"] == "realness"

    @pytest.mark.parametrize("s", [0.05, -0.05, 0.5, -0.9])
    def test_radical_exponents_telescope_to_the_terms_exponents(self, s):
        # gamma_n * s**n = beta_(n-1), the exponent of bound term n
        for n in range(2, 21):
            assert _radical_exponent(s, n) * s**n == pytest.approx(
                finite_order_exponent(s, n - 1), rel=1e-12
            )

    @pytest.mark.parametrize("depth", [240, 260])
    def test_radical_exponent_beyond_float_range_names_the_depth(self, depth):
        # s**(depth - 1) is subnormal at 240, so the quotient is inf, and 0
        # at 260, so the denominator is 0; no diagnose fit gets that deep
        message = f"^the radical exponent at depth {depth} for power 0.05 is not finite$"
        with pytest.raises(ValueError, match=message):
            _radical_exponent(0.05, depth)


class TestPadeCheck:
    def test_passes(self, capsys):
        code, out = run_cli(capsys, "pade-check", "--order", "4", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "PASS"
        assert payload["max_relative_deviation"] < 1e-10
        assert payload["numerator_degree"] == 2
        assert payload["denominator_degree"] == 2

    def test_seed_changes_params(self, capsys):
        _, out_a = run_cli(capsys, "pade-check", "--order", "3", "--seed", "1")
        _, out_b = run_cli(capsys, "pade-check", "--order", "3", "--seed", "2")
        assert json.loads(out_a)["params"] != json.loads(out_b)["params"]

    def test_seed_is_reproducible(self, capsys):
        _, out_a = run_cli(capsys, "pade-check", "--order", "3", "--seed", "9")
        _, out_b = run_cli(capsys, "pade-check", "--order", "3", "--seed", "9")
        assert out_a == out_b

    def test_order_domain(self, capsys):
        code, out = run_cli(capsys, "pade-check", "--order", "0")
        assert code == 1
        assert json.loads(out)["error"] == "invalid-input"


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "continued_roots.cli",
                "table",
                "--problem",
                "nls_coherent_modes",
                "--kmax",
                "5",
                "--format",
                "csv",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("k,B_k,beta_k,observable,percent_error")

    def test_console_script(self):
        # run the declared [project.scripts] target the way the wrapper
        # that pip generates does: resolve it as an entry point, call it
        # with no arguments so it reads sys.argv, and exit with its return
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["continued-roots"]
        launcher = (
            "import sys; from importlib.metadata import EntryPoint; "
            f"main = EntryPoint(name='continued-roots', value={target!r}, "
            "group='console_scripts').load(); "
            "sys.exit(main())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "fit", "--problem", "fluid_string",
             "--order", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["s"] == pytest.approx(2.0 / 3.0)

    def test_backend_variable_selects_nothing(self):
        # there is one kernel implementation, so an environment that still
        # sets this variable must not change or break the import
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import continued_roots as cr; print(cr.backend_name())",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "CONTINUED_ROOTS_BACKEND": "compiled"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "python"

    @pytest.mark.skipif(
        shutil.which("continued-roots") is None,
        reason="package not installed: no continued-roots wrapper on PATH",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["continued-roots", "fit", "--problem", "fluid_string", "--order", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["s"] == pytest.approx(2.0 / 3.0)


class TestProcessEntry:
    """``run`` freezes the collector once ``main`` is done, so that the
    interpreter's shutdown skips its full collections; ``main`` never does."""

    @pytest.fixture
    def events(self, monkeypatch):
        events = []
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        return events

    def test_run_freezes_once_after_main_returns(self, events, monkeypatch, capsys):
        main_ = cli.main

        def recorded():
            status = main_()
            events.append(f"main returned {status}")
            return status

        monkeypatch.setattr(cli, "main", recorded)
        monkeypatch.setattr(
            sys, "argv", ["continued-roots", "fit", "--problem", "fluid_string", "--order", "2"]
        )
        assert cli.run() == 0
        assert events == ["main returned 0", "freeze"]
        assert json.loads(capsys.readouterr().out)["s"] == pytest.approx(2.0 / 3.0)

    def test_run_freezes_when_main_exits(self, events, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["continued-roots", "fit", "--help"])
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == 0
        assert events == ["freeze"]
        assert capsys.readouterr().out.startswith("usage: continued-roots fit")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--problem", "fluid_string", "--order", "2"],
            ["fit", "--problem", "no_such_problem", "--order", "2"],
            ["fit", "--order", "2"],
        ],
        ids=["fit", "error", "usage"],
    )
    def test_main_never_freezes(self, events, capsys, argv):
        main(argv)
        assert events == []

    def test_module_runs_through_run(self):
        # as python -m does, and perfbench's memory worker in-process
        probe = (
            "import gc, runpy, sys\n"
            "sys.argv = ['continued_roots.cli', 'fit', '--problem', 'fluid_string', '--order', '2']\n"
            "try:\n"
            "    runpy.run_module('continued_roots.cli', run_name='__main__')\n"
            "except SystemExit as exit_:\n"
            "    print(exit_.code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["0", "True"]


# Standard-library modules that no command needs at start-up; the package
# defers or avoids them because every CLI process would pay for them.
# argparse, with the gettext and locale that it loads, serves only --help
# and usage errors.
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}
DEFERRED_MODULES = {
    "dataclasses", "inspect", "typing", "fractions", "decimal", "csv", "random",
    "__future__", *ARGPARSE_MODULES,
}

IMPORT_PROBE = """
import sys
import continued_roots
package = set(sys.modules)
import json
encoder = set(sys.modules)
import continued_roots.cli
print(json.dumps([sorted(package), sorted(encoder), sorted(sys.modules)]))
"""


class TestStartup:
    def test_imports_leave_unneeded_modules_out(self):
        # -S keeps site (and any .pth file it runs) from loading modules first
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", IMPORT_PROBE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        package, encoder, cli = map(set, json.loads(proc.stdout))
        assert package & DEFERRED_MODULES == set()
        assert (cli - encoder) & DEFERRED_MODULES == set()

    @staticmethod
    def loaded_after(argv, modules):
        """Which of these modules a process started with -S has loaded after
        ``main(argv)``, sorted."""
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys\n"
            "from continued_roots.cli import main\n"
            f"main({argv!r})\n"
            f"print(sorted({modules!r} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_string_table_needs_no_rational_arithmetic(self):
        # fluid_string's floats come from integer quotients, not Fractions
        argv = ["table", "--problem", "fluid_string", "--kmax", "13"]
        assert self.loaded_after(argv, {"fractions", "decimal"}) == "[]"

    def test_csv_table_needs_neither_csv_nor_future(self):
        # the rendering joins its cells itself, and no module postpones its
        # annotations, so neither module is compiled or loaded
        argv = ["table", "--problem", "fluid_string", "--kmax", "13", "--format", "csv"]
        assert self.loaded_after(argv, {"__future__", "csv"}) == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--problem", "fluid_string", "--order", "13"],
            ["table", "--problem", "fluid_string", "--kmax", "13"],
            ["eval", "--problem", "fluid_membrane", "--order", "4", "--x", "0.5", "2"],
            ["diagnose", "--problem", "fluid_string", "--order", "8", "--L", "100"],
            ["pade-check", "--order", "5", "--seed", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_well_formed_commands_never_load_argparse(self, argv):
        assert self.loaded_after(argv, ARGPARSE_MODULES) == "[]"

    @pytest.mark.parametrize(
        "argv",
        [["fit", "--help"], ["table", "--problem", "fluid_string"]],
        ids=["help", "usage error"],
    )
    def test_help_and_usage_errors_load_argparse_and_print_as_before(
        self, monkeypatch, capsys, argv
    ):
        # what the former parser prints in this interpreter at 80 columns
        monkeypatch.setenv("COLUMNS", "80")
        try:
            reference_parser().parse_args(argv)
        except SystemExit:
            expected = capsys.readouterr().out
        except ValueError as err:
            error = {"error": "invalid-input", "message": str(err)}
            expected = json.dumps(error, indent=2) + "\n"
        src = Path(__file__).resolve().parent.parent / "src"
        # a process that enters as python -m does, -S as in loaded_after
        probe = (
            "import sys\n"
            "from continued_roots.cli import run\n"
            f"modules = {ARGPARSE_MODULES!r}\n"
            "before = sorted(modules & set(sys.modules))\n"
            "try:\n"
            "    run()\n"
            "finally:\n"
            "    print(before, sorted(modules & set(sys.modules)), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"},
        )
        assert proc.stdout == expected
        assert proc.stderr.splitlines()[-1] == f"[] {sorted(ARGPARSE_MODULES)}"
