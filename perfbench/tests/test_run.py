"""Seeds reproduce inputs; every workload runs to its end; the benchmark
refuses to run without the program."""

import json
import shutil
import subprocess
import sys

import pytest

import inputs
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def ops_of(workload, seed, reference):
    return json.dumps([c["op"] for c in inputs.build(workload, seed) if c["reference"] == reference])


@pytest.mark.parametrize("workload", ["fit_eval", "cli", "deep_table"])
def test_seed_reproduces_the_inputs(workload):
    assert ops_of(workload, 11, False) == ops_of(workload, 11, False)
    assert ops_of(workload, 11, False) != ops_of(workload, 12, False)
    assert ops_of(workload, 11, True) == ops_of(workload, 12, True)


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


# Share of failed operations per round: one of twelve deep_table cases (the
# fluid_string depth-14 fit), twelve of 64 fit_eval series (the certificate
# with s < 0 at depth >= 3) and one of eleven cli processes (eval --x nan).
FAILED_PER_ROUND = {"deep_table": (1, 12), "fit_eval": (12, 64), "cli": (1, 11)}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_completes(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    failed, per_round = FAILED_PER_ROUND[workload]
    assert result["attempted"] % per_round == 0 and result["attempted"] >= per_round
    assert result["failed"] * per_round == failed * result["attempted"]
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "fit_eval", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
