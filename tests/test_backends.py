"""Parity between the compiled kernels and the pure-Python fallback."""

import json
import math
import os
import random
import subprocess
import sys

import pytest

from continued_roots import _kernels_py as pure

try:
    from continued_roots import _kernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled kernels not built"
)


def child_env(backend=None):
    """The inherited environment with the backend override set or removed.

    Keeping the rest of the environment lets the child import the package
    the same way the test process does (from PYTHONPATH or an install).
    """
    env = dict(os.environ)
    env.pop("CONTINUED_ROOTS_BACKEND", None)
    if backend is not None:
        env["CONTINUED_ROOTS_BACKEND"] = backend
    return env


def random_unit_series(rng, order):
    return [1.0] + [rng.uniform(-1.5, 1.5) for _ in range(order)]


@needs_compiled
class TestKernelParity:
    def test_cauchy_product(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 12)
            a = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            b = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            assert compiled.cauchy_product(a, b) == pure.cauchy_product(a, b)

    def test_fractional_power(self):
        rng = random.Random(12)
        for _ in range(300):
            u = random_unit_series(rng, rng.randint(0, 12))
            s = rng.uniform(-2.0, 2.0)
            assert compiled.fractional_power(u, s) == pure.fractional_power(u, s)

    def test_nested_expansion(self):
        rng = random.Random(13)
        for _ in range(300):
            k = rng.randint(1, 8)
            params = [rng.uniform(-2.0, 2.0) for _ in range(k)]
            s = rng.uniform(-0.95, 0.95)
            order = rng.randint(0, 10)
            assert compiled.nested_expansion(
                params, s, order
            ) == pure.nested_expansion(params, s, order)

    def test_nested_evaluate_success(self):
        rng = random.Random(14)
        for _ in range(300):
            k = rng.randint(1, 8)
            params = [rng.uniform(0.05, 2.0) for _ in range(k)]
            s = rng.uniform(-0.95, 0.95)
            x = rng.uniform(0.0, 100.0)
            got_c = compiled.nested_evaluate(params, s, x, False)
            got_p = pure.nested_evaluate(params, s, x, False)
            assert got_c == got_p
            assert got_c[1] == 0

    def test_nested_evaluate_breakdown_depth(self):
        params = [1.0, 1.0, -5.0, 1.0]
        for backend in (compiled, pure):
            value, depth = backend.nested_evaluate(params, 0.5, 3.0, False)
            assert math.isnan(value)
            assert depth == 3

    def test_integer_power_negative_base(self):
        params = [1.0, -5.0]
        for x in (0.5, 1.0, 2.0):
            got_c = compiled.nested_evaluate(params, 2.0, x, True)
            got_p = pure.nested_evaluate(params, 2.0, x, True)
            assert got_c == got_p
            assert got_c[1] == 0


class TestSelection:
    @needs_compiled
    def test_default_prefers_compiled(self):
        # drop any ambient backend override so it cannot mask the
        # auto-selection behaviour under test
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import continued_roots as cr; print(cr.backend_name())",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "compiled"

    @pytest.mark.parametrize(
        "choice", ["python", pytest.param("compiled", marks=needs_compiled)]
    )
    def test_forced_backend(self, choice):
        script = (
            "import continued_roots as cr, json; "
            "from continued_roots import TruncatedSeries, fit; "
            "approx = fit(TruncatedSeries((1.0, 1.0, -0.125)), 0.4); "
            "print(json.dumps({'backend': cr.backend_name(), "
            "'params': list(approx.params)}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(choice),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["backend"] == choice
        assert payload["params"] == pytest.approx([2.5, 1.5625], rel=1e-13)

    def test_unknown_choice_rejected(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import continued_roots"],
            capture_output=True,
            text=True,
            env=child_env("gpu"),
        )
        assert proc.returncode != 0
        assert "CONTINUED_ROOTS_BACKEND" in proc.stderr


@needs_compiled
def test_full_pipeline_agrees_across_backends():
    # run the deepest benchmark table under the pure backend and compare
    # against the in-process (compiled) numbers
    script = (
        "from continued_roots.cli import main; "
        "main(['table', '--problem', 'fluid_string', '--kmax', '13', "
        "'--format', 'csv'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env("python"),
    )
    assert proc.returncode == 0, proc.stderr
    from continued_roots.cli import _render_table_csv
    from continued_roots.corpus import problem
    from continued_roots.diagnostics import depth_table

    local = _render_table_csv(depth_table(problem("fluid_string"), 13))
    pure_rows = proc.stdout.strip().splitlines()
    local_rows = local.strip().splitlines()
    assert len(pure_rows) == len(local_rows)
    for pure_line, local_line in zip(pure_rows[1:], local_rows[1:]):
        pure_cells = [float(c) for c in pure_line.split(",")]
        local_cells = [float(c) for c in local_line.split(",")]
        assert pure_cells == pytest.approx(local_cells, rel=1e-12, abs=1e-12)
