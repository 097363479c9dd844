"""The package's public names, its version, and the README's quickstart."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import continued_roots
from continued_roots import approximant, cli, errors

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "AmplitudeResult",
    "BenchmarkProblem",
    "ComplexBreakdownError",
    "ContinuedRootApproximant",
    "ContinuedRootError",
    "ConvergenceDiagnostics",
    "ExponentTarget",
    "ExtrapolationReport",
    "RealnessError",
    "ReportRow",
    "TruncatedSeries",
    "UnknownProblemError",
    "VanishingSensitivityError",
    "backend_name",
    "depth_table",
    "exponent_to_power",
    "finite_order_exponent",
    "fit",
    "fit_sequence",
    "herschfeld_terms",
    "power_to_exponent",
    "problem",
    "problem_names",
    "sequence_report",
    "string_coefficients",
    "string_coefficients_exact",
    "string_exact_f",
}


def test_all_is_the_sorted_public_set():
    assert continued_roots.__all__ == sorted(PUBLIC)
    for name in continued_roots.__all__:
        assert getattr(continued_roots, name) is not None


@pytest.mark.parametrize(
    "owner, name",
    [
        (continued_roots, "best_real_order"),
        (continued_roots, "NoRealApproximantError"),
        (errors, "NoRealApproximantError"),
        (approximant, "best_real_order"),
        (continued_roots.ContinuedRootApproximant, "amplitude_estimate"),
        (continued_roots.TruncatedSeries, "from_coefficients"),
        (continued_roots.ExtrapolationReport, "any_failed"),
        (continued_roots.ExtrapolationReport, "known_observable"),
        (cli, "_check_order"),
        (continued_roots, "DegenerateSeriesError"),
        (errors, "DegenerateSeriesError"),
        (continued_roots.ConvergenceDiagnostics, "power_valid"),
        (continued_roots, "nested_radical_exponent"),
        (continued_roots.diagnostics, "nested_radical_exponent"),
        (continued_roots.ConvergenceDiagnostics, "radical_exponents"),
        (continued_roots.TruncatedSeries, "power"),
        (continued_roots.ExponentTarget, "power"),
        (approximant, "_index"),
    ],
)
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    assert continued_roots.__version__ == version


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines[:4]] == ["2", "3", "4", "5"]
    assert "parameter 14 is -0.8493983206028883" in lines[4]


def test_ci_installs_the_test_extra():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        extra = tomllib.load(handle)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    line = re.search(r"run: python -m pip install (.*)\n", workflow).group(1)
    assert shlex.split(line) == extra
