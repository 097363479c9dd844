"""Each check accepts the package's output and rejects a wrong one."""

import copy
import json
import random

import pytest

import checks
import inputs
import ops
from conftest import ROOT

U = inputs.U
ENV = ops.child_env(str(ROOT))


def verdict(case, out):
    return checks.check(case, out).status


@pytest.fixture(scope="module")
def string_report():
    case = inputs.builtin_report("fluid_string")
    return case, ops.run(case["op"], str(ROOT), ENV)


@pytest.fixture(scope="module")
def synthetic_report():
    case = inputs._synthetic_report(random.Random(3), 16, 1.0, False)
    return case, ops.run(case["op"], str(ROOT), ENV)


@pytest.fixture(scope="module")
def shallow():
    rng = random.Random(4)
    cases = [inputs._shallow_case(rng, k, sign, mixed, False) for k in (3, 8) for sign in (1.0, -1.0) for mixed in (False, True)]
    return [(case, ops.run(case["op"], str(ROOT), ENV)) for case in cases]


def test_reports_pass(string_report, synthetic_report):
    for case, out in (string_report, synthetic_report):
        result = checks.check(case, out)
        assert result.status == "ok", result.problems
        assert 0.0 < result.param_err and 0.0 < result.value_err


@pytest.mark.parametrize("depth", [1, 6, 13])
def test_parameter_perturbed_by_1e_6_is_rejected(string_report, depth):
    case, out = string_report
    assert case["ref"]["tol"][depth - 1] < 1e-6
    bad = copy.deepcopy(out)
    for params in bad["params"]:
        if len(params) >= depth:
            params[depth - 1] *= 1 + 1e-6
    assert verdict(case, bad) == "wrong"


def test_deep_parameter_perturbed_within_its_envelope_is_rejected(synthetic_report):
    case, out = synthetic_report
    tol = case["ref"]["tol"][-1]
    bad = copy.deepcopy(out)
    bad["params"][-1][-1] *= 1 + 3 * tol
    assert verdict(case, bad) == "wrong"


def test_prefix_property_is_checked(synthetic_report):
    case, out = synthetic_report
    bad = copy.deepcopy(out)
    bad["params"][0][0] *= 1 + 3 * case["ref"]["tol"][0]
    assert verdict(case, bad) == "wrong"


@pytest.mark.parametrize("field", ["B_k", "beta_k", "observable"])
def test_report_row_off_by_1e_9_is_rejected(string_report, field):
    case, out = string_report
    bad = copy.deepcopy(out)
    bad["rows"][5][field] *= 1 + 1e-9
    assert verdict(case, bad) == "wrong"


def test_paper_table_is_checked(string_report):
    case, out = string_report
    bad = copy.deepcopy(out)
    # A consistent shift of the observable and its error column, within
    # the oracle check of nothing else: the paper's numbers must catch it.
    case = copy.deepcopy(case)
    case["ref"]["paper"]["observable"][3] += 2e-5
    assert verdict(case, bad) == "wrong"


def test_shallow_cases_pass_and_mutations_fail(shallow):
    for case, out in shallow:
        result = checks.check(case, out)
        assert result.status == ("failed" if case.get("known_fault") else "ok"), (case["name"], result.problems)
        real = [i for i, v in enumerate(out["values"]) if isinstance(v, float)]
        assert real
        i = real[len(real) // 2]
        x = case["op"]["grid"][i]
        _, _, bound, _ = checks.oracle.evaluate(out["params"], case["ref"]["s"], x)
        pushed = copy.deepcopy(out)
        pushed["values"][i] *= 1 + 2 * inputs.ROUNDING_SAFETY * U * float(bound)
        assert verdict(case, pushed) == "wrong", case["name"]
        moved = copy.deepcopy(out)
        moved["params"][-1] *= 1 + 1e-6
        assert verdict(case, moved) == "wrong", case["name"]
        tripped = copy.deepcopy(out)
        tripped["expanded"][-1] += 1e-6 * abs(tripped["expanded"][-1]) + 1e-9
        assert verdict(case, tripped) == "wrong", case["name"]


def test_breakdown_and_amplitude_checks(shallow):
    broke = [(c, o) for c, o in shallow if any(isinstance(v, dict) for v in o["values"])]
    real = [(c, o) for c, o in shallow if "amplitude" in o]
    assert broke and real
    case, out = broke[0]
    bad = copy.deepcopy(out)
    i = next(i for i, v in enumerate(bad["values"]) if isinstance(v, dict))
    bad["values"][i] = {"depth": bad["values"][i]["depth"] + 1, "error": "complex-breakdown"}
    assert verdict(case, bad) == "wrong"
    bad["values"][i] = 1.0
    assert verdict(case, bad) == "wrong"
    case, out = real[0]
    for field in ("amplitude", "exponent", "bound_limit"):
        bad = copy.deepcopy(out)
        bad[field] *= 1 + 1e-10
        assert verdict(case, bad) == "wrong", field
    bad = copy.deepcopy(out)
    bad["bounded"] = False
    assert verdict(case, bad) == "wrong"


def test_certificate_follows_the_documented_cap(shallow):
    faulty = [(c, o) for c, o in shallow if c.get("known_fault") == "certificate-cap"]
    assert len(faulty) == 2
    for case, out in faulty:
        assert out["bounded"] is True
        result = checks.check(case, out)
        assert result.status == "failed" and "certificate-cap" in result.problems[0]
        mended = copy.deepcopy(out)
        mended["bounded"] = False
        assert verdict(case, mended) == "ok"
        mended["bound_terms"][1] *= 1 + 1e-9
        assert verdict(case, mended) == "wrong"


def test_known_faults_count_as_failed_and_the_fix_as_ok():
    case = inputs.failing_fit()
    out = ops.run(case["op"], str(ROOT), ENV)
    assert out["error"] == "vanishing-sensitivity"
    assert verdict(case, out) == "failed"
    mended = {"params": [float(a) for a in case["ref"]["params"]]}
    assert verdict(case, mended) == "ok"
    assert -0.86 < mended["params"][-1] < -0.84
    assert verdict(case, {"params": mended["params"][:-1] + [0.85]}) == "wrong"

    (nan_case,) = [c for c in inputs.cli(1) if c.get("known_fault")]
    out = ops.run(nan_case["op"], str(ROOT), ENV)
    assert out["returncode"] == 0 and "NaN" in out["stdout"]
    assert verdict(nan_case, out) == "failed"
    typed = {"returncode": 1, "stdout": json.dumps({"error": "invalid-input", "message": "x"}), "stderr": ""}
    assert verdict(nan_case, typed) == "ok"


@pytest.fixture(scope="module")
def cli_outputs():
    cases = [c for c in inputs.cli(7) if not c.get("known_fault")]
    return [(c, ops.run(c["op"], str(ROOT), ENV)) for c in cases]


def test_cli_outputs_pass(cli_outputs):
    for case, out in cli_outputs:
        result = checks.check(case, out)
        assert result.status == "ok", (case["name"], result.problems)


def _one(cli_outputs, *words):
    return next((c, copy.deepcopy(o)) for c, o in cli_outputs if all(w in c["op"]["argv"] for w in words))


def test_cli_mutations_fail(cli_outputs):
    case, out = _one(cli_outputs, "csv")
    out["stdout"] = out["stdout"].replace("percent_error", "pct_error", 1)
    assert verdict(case, out) == "wrong"

    case, out = _one(cli_outputs, "table", "json", "fluid_string")
    out["stdout"] = out["stdout"].replace("null", "NaN", 1) if "null" in out["stdout"] else out["stdout"].replace('"B_k": 0', '"B_k": NaN', 1)
    assert verdict(case, out) == "wrong"

    case, out = _one(cli_outputs, "pade-check")
    out["stdout"] = out["stdout"].replace('"PASS"', '"FAIL"')
    assert verdict(case, out) == "wrong"

    case, out = _one(cli_outputs, "fit")
    payload = json.loads(out["stdout"])
    payload["A"][4] *= 1 + 1e-6
    out["stdout"] = json.dumps(payload)
    assert verdict(case, out) == "wrong"

    case, out = _one(cli_outputs, "eval")
    payload = json.loads(out["stdout"])
    payload["points"][1][1] *= 1 + 1e-9
    out["stdout"] = json.dumps(payload)
    assert verdict(case, out) == "wrong"

    case, out = _one(cli_outputs, "diagnose")
    payload = json.loads(out["stdout"])
    payload["bound_terms"][2] *= 1 + 1e-9
    out["stdout"] = json.dumps(payload)
    assert verdict(case, out) == "wrong"

    case, out = _one(cli_outputs, "diagnose")
    payload = json.loads(out["stdout"])
    payload["bounded"] = False
    out["stdout"] = json.dumps(payload)
    assert verdict(case, out) == "wrong"

    case, out = _one(cli_outputs, "table", "fluid_string", "--format", "table")
    lines = out["stdout"].splitlines()
    lines[5] = lines[5].replace(lines[5].split()[1], f"{float(lines[5].split()[1]) + 2e-6:.6f}", 1)
    out["stdout"] = "\n".join(lines) + "\n"
    assert verdict(case, out) == "wrong"

    case, out = _one(cli_outputs, "table", "fluid_string", "--format", "table")
    out["returncode"] = 1
    assert verdict(case, out) == "wrong"
