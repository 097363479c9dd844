"""Correctness checks of the package's outputs against the oracle.

``check(case, out)`` returns a ``Verdict``: ``status`` is ``"ok"``,
``"failed"`` (the operation raised, or showed one of the known faults
the README lists) or ``"wrong"`` (it returned a result the checks reject),
with the largest relative parameter and value errors seen, for the accuracy
metrics.

Tolerances are error envelopes computed by the oracle for each input:
the condition-based envelope of every fitted parameter (``inputs.py``) and
first-order rounding estimates for evaluation, amplitude, exponent and the
boundedness terms.  None is a stored copy of the package's output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import inputs
import oracle

U = oracle.UNIT_ROUNDOFF
RS = inputs.ROUNDING_SAFETY
CSV_HEADER = "k,B_k,beta_k,observable,percent_error"
# Relative slack of the package's comparison of a term with the cap.
CAP_SLACK = 1e-12


@dataclass
class Verdict:
    status: str = "ok"
    problems: list = field(default_factory=list)
    param_err: float = 0.0
    value_err: float = 0.0

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.status = "wrong"
            self.problems.append(message)

    def fault(self, message: str) -> None:
        """A known fault of the package: the operation counts as failed,
        unless a check has already found it wrong."""
        if self.status == "ok":
            self.status = "failed"
        self.problems.append(message)

    def param(self, got, want, tol, what) -> None:
        err = oracle.relerr(got, want)
        self.param_err = max(self.param_err, err)
        self.require(err <= tol, f"{what}: relative error {err:.3e} above {tol:.3e}")

    def value(self, got, want, tol, what) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            self.require(False, f"{what}: expected a number, got {got!r}")
            return
        err = oracle.relerr(got, want)
        self.value_err = max(self.value_err, err)
        self.require(err <= tol, f"{what}: relative error {err:.3e} above {tol:.3e}")


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


def exponent_tol(s: float, k: int) -> float:
    """Envelope of (s - s**(k+1)) / (1 - s) in float64."""
    sk = abs(s) ** (k + 1)
    # For s < 0 and odd k + 1 the numerator cancels; take that worst case.
    return RS * U * (k + 4) * (abs(s) + sk) / (abs(s) - sk)


def amplitude_tol(params_ref, tol, s: float) -> float:
    """Envelope of prod A_n**(s**n): the parameters' envelope weighted by
    |s|**n, plus one pow and one product rounding per depth, and the pow's
    sensitivity to the rounding of s**n."""
    out = 0.0
    for n, (a, t) in enumerate(zip(params_ref, tol), start=1):
        sn = abs(s) ** n
        out += sn * t + RS * U * (2.0 + sn * abs(math.log(float(a))) * (n + 1))
    return out


def expected_row(ref, k: int) -> dict:
    """Oracle values of the depth-k report row and their envelopes:
    (value, relative tolerance) for beta_k, B_k and the observable, and
    (value, absolute tolerance) for the percent error."""
    s, params, tol = ref["s"], ref["params"][:k], ref["tol"][:k]
    beta_k = oracle.finite_exponent(s, k)
    amp = oracle.amplitude(params, s)
    if amp is None:
        raise ValueError(f"oracle amplitude at depth {k} is not real")
    amp_tol = amplitude_tol(params, tol, s)
    estimate = amp * oracle.to_mp(ref["match_point"]) ** (beta_k - ref["beta"])
    # The shift beta_k - beta is rounded before the power of the match point.
    obs_tol = amp_tol + RS * U * (4.0 + abs(math.log(ref["match_point"])) * (abs(float(beta_k)) + ref["beta"]) * 2.0)
    row = {
        "beta_k": (beta_k, exponent_tol(s, k)),
        "B_k": (amp, amp_tol),
        "observable": (ref["prefactor"] * estimate, obs_tol),
    }
    known = ref["known_amplitude"]
    if known is not None:
        scale = abs(float(estimate / known))
        row["percent_error"] = ((estimate - known) / known * 100, 100.0 * (scale * obs_tol + RS * U * (1.0 + scale)))
    return row


def check_rows(v: Verdict, rows, ref, kmax: int, what: str) -> None:
    """Report rows of depths 2..kmax against the oracle and the paper."""
    v.require(len(rows) == kmax - 1, f"{what}: {len(rows)} rows for depths 2..{kmax}")
    if len(rows) != kmax - 1:
        return
    for k, row in zip(range(2, kmax + 1), rows):
        where = f"{what} k={k}"
        v.require(row["k"] == k, f"{where}: row depth {row['k']}")
        v.require(not row.get("error"), f"{where}: row failed: {row.get('error')}")
        if row.get("error"):
            continue
        want = expected_row(ref, k)
        for key in ("beta_k", "B_k", "observable"):
            v.value(row[key], *want[key], f"{where} {key}")
        if "percent_error" in want:
            value, abs_tol = want["percent_error"]
            got = row["percent_error"]
            v.require(
                isinstance(got, float) and abs(got - float(value)) <= abs_tol,
                f"{where} percent_error {got!r} vs {float(value)!r}",
            )
    paper = ref.get("paper")
    if paper:
        check_paper(v, rows, paper, what)


def check_paper(v: Verdict, rows, paper: dict, what: str) -> None:
    """The published table, as acceptance criteria 1-4 quote it."""
    tol = paper.get("B_tol", 1e-5)
    for row, b in zip(rows, paper.get("B_k", [])):
        v.require(abs(row["B_k"] - b) <= tol, f"{what} k={row['k']}: B_k {row['B_k']!r} vs paper {b}")
    for row, o in zip(rows, paper.get("observable", [])):
        v.require(abs(row["observable"] - o) <= 1e-5, f"{what} k={row['k']}: observable {row['observable']!r} vs paper {o}")
    for row, (err, digits) in zip(rows, paper.get("percent", [])):
        v.require(round(row["percent_error"], digits) == err, f"{what} k={row['k']}: percent_error {row['percent_error']!r} vs paper {err}")
    for row, sign in zip(rows, paper.get("signs", [])):
        v.require(math.copysign(1, row["percent_error"]) == sign, f"{what} k={row['k']}: sign of percent_error")


def check_params(v: Verdict, params, ref, what: str) -> None:
    want, tol = ref["params"], ref["tol"]
    v.require(len(params) <= len(want), f"{what}: {len(params)} parameters")
    for n, (got, exact, t) in enumerate(zip(params, want, tol), start=1):
        v.param(got, exact, t, f"{what} A{n}")


def check_report(case, out) -> Verdict:
    v = Verdict()
    ref, kmax = case["ref"], case["op"]["kmax"]
    v.require(out["coefficients"] == ref["coefficients"][: kmax + 1], "input coefficients differ from the oracle's")
    v.require(abs(out["power"] - ref["s"]) <= 2 * U * abs(ref["s"]), f"power {out['power']!r} vs {ref['s']!r}")
    fits = out["params"]
    v.require(len(fits) == kmax - 1, f"{len(fits)} fits for depths 2..{kmax}")
    deepest = fits[-1] if fits else []
    for k, params in zip(range(2, kmax + 1), fits):
        v.require(len(params) == k, f"depth {k} fit has {len(params)} parameters")
        check_params(v, params, ref, f"depth {k}")
        # The depth-k parameters are a prefix of the depth-K ones.
        for n, (a, b, t) in enumerate(zip(params, deepest, ref["tol"]), start=1):
            v.require(oracle.relerr(a, b) <= 2 * t, f"depth {k} A{n} is not a prefix of depth {kmax}")
    check_rows(v, out["rows"], ref, kmax, case["name"])
    return v


def check_deep_fit(case, out) -> Verdict:
    v = Verdict()
    if "error" in out:
        v.status = "failed"
        v.problems.append(f"{out['error']}: {out['message']}")
        return v
    check_params(v, out["params"], case["ref"], case["name"])
    v.require(len(out["params"]) == case["op"]["order"], "wrong depth")
    return v


def check_fit_eval(case, out) -> Verdict:
    v = Verdict()
    if "error" in out:
        v.status = "failed"
        v.problems.append(f"{out['error']}: {out['message']}")
        return v
    ref, op = case["ref"], case["op"]
    s, coeffs = ref["s"], ref["coefficients"]
    k = len(coeffs) - 1
    params = out["params"]
    v.require(len(params) == k, f"{len(params)} parameters at depth {k}")
    check_params(v, params, ref, case["name"])
    # Round trip: the fitted form reproduces its input series.  Both the
    # expansion and the fit's own solve for A_n (two expansions, a
    # subtraction and a division) round like the expansion of the fitted
    # parameters, whose running-error bound E_n the oracle computes.
    _, bound = oracle.expand_with_error(params, s, k)
    for n, (got, want) in enumerate(zip(out["expanded"], coeffs)):
        tol = RS * (float(bound[n]) * (3 + abs(params[n - 1]) if n else 0.0) + 3 * U * abs(want))
        v.require(abs(got - want) <= tol, f"round trip c{n}: {got!r} vs {want!r}, tolerance {tol:.3e}")
    for x, got in zip(op["grid"], out["values"]):
        want, depth, bound, ambiguous = oracle.evaluate(params, s, x, RS)
        if ambiguous:
            continue
        if depth:
            v.require(
                isinstance(got, dict) and got.get("depth") == depth,
                f"x={x:g}: expected breakdown at depth {depth}, got {got!r}",
            )
        else:
            v.value(got, want, RS * U * float(bound), f"x={x:g}")
    real = all(a > 0 for a in ref["params"])
    v.require(("amplitude" in out) == real, "real-valued forms, and only they, get an amplitude")
    if real and "amplitude" in out:
        amp = oracle.amplitude(params, s)
        v.value(out["amplitude"], amp, amplitude_tol(params, [0.0] * k, s), "amplitude")
        v.value(out["exponent"], oracle.finite_exponent(s, k), exponent_tol(s, k), "exponent")
        check_certificate(v, params, s, out, op["bound"], [0.0] * k)
    return v


def check_certificate(v: Verdict, params, s, out, bound: float, tol) -> None:
    """Herschfeld terms (L M)**(g_n s**n), n = 2..k, their limit, and the
    verdict ``bounded``: every term at most the cap, which ``diagnostics.py``
    documents as the larger of the limit and the first term.  A form with a
    term above that cap that the package still calls bounded shows the known
    fault ``certificate-cap``: the package caps at the largest term instead."""
    s_mp = oracle.to_mp(s)
    m_index = max(range(len(params)), key=lambda i: params[i])
    lm = oracle.to_mp(bound) * oracle.to_mp(params[m_index])
    log_lm = abs(float(oracle._ctx.log(lm)))
    m_tol = tol[m_index]
    terms = out["bound_terms"]
    v.require(len(terms) == len(params) - 1, f"{len(terms)} boundedness terms")
    want_terms = []
    for n, got in zip(range(2, len(params) + 1), terms):
        gamma = (1 - s_mp ** (n - 1)) / ((1 - s_mp) * s_mp ** (n - 1))
        e = gamma * s_mp**n
        cancel = float((1 + abs(s_mp) ** (n - 1)) / abs(1 - s_mp ** (n - 1)))
        t = abs(float(e)) * m_tol + RS * U * (2 + log_lm * abs(float(e)) * (n + 6) * cancel)
        v.value(got, lm**e, t, f"bound term n={n}")
        want_terms.append((lm**e, t))
    e = s_mp / (1 - s_mp)
    t = abs(float(e)) * m_tol + RS * U * (2 + log_lm * abs(float(e)) * 4)
    v.value(out["bound_limit"], lm**e, t, "bound limit")
    cap, cap_tol = max([(lm**e, t), *want_terms[:1]], key=lambda pair: pair[0])
    # The term that sets the cap meets it by construction.
    rest = want_terms[1:] if want_terms and cap == want_terms[0][0] else want_terms
    over = [(float(w / cap) - 1.0 - CAP_SLACK, t + cap_tol) for w, t in rest]
    if any(abs(d) <= t for d, t in over):
        return  # a term meets the cap within rounding
    expected = all(d < 0 for d, _ in over)
    if out["bounded"] is True and not expected:
        worst = max(float(w / cap) for w, _ in rest)
        v.fault(f"certificate-cap: a term is {worst:.4g} times the cap, yet bounded is True")
    else:
        v.require(out["bounded"] is expected, f"bounded is {out['bounded']!r}, expected {expected}")


def _rows_from_csv(text: str) -> list[dict]:
    def number(cell):
        return float(cell) if cell else None

    return [
        {
            "k": int(rec["k"]),
            **{key: number(rec[key]) for key in ("B_k", "beta_k", "observable", "percent_error")},
            "error": None,
        }
        for rec in csv.DictReader(io.StringIO(text))
    ]


def _check_human_table(v: Verdict, text: str, ref, kmax: int) -> None:
    """The aligned table rounds to 6 decimals; each cell must be within
    half a unit in the last place of the oracle value, plus 1e-9 of it."""
    lines = text.splitlines()
    v.require(lines[0] == f"problem: {ref['problem']}", "first line names the problem")
    rows = [line.split() for line in lines[3 : 3 + kmax - 1]]
    v.require(len(rows) == kmax - 1, "human table has a row per depth")
    for k, cells in zip(range(2, kmax + 1), rows):
        v.require(cells[0] == str(k), f"human row depth {cells[0]}")
        want = expected_row(ref, k)
        for key, cell in zip(("B_k", "beta_k", "observable", "percent_error"), cells[1:5]):
            w = float(want[key][0])
            v.require(abs(float(cell) - w) <= 5.000001e-7 + 1e-9 * abs(w), f"human k={k} {key}: {cell} vs {w}")


def check_cli(case, out) -> Verdict:
    v = Verdict()
    ref = case["ref"]
    command = ref["command"]
    text = out["stdout"]
    if command == "eval-invalid":
        try:
            payload = strict_json(text)
        except ValueError:
            payload = None
        if out["returncode"] != 0 and isinstance(payload, dict) and payload.get("error") == "invalid-input":
            return v
        v.status = "failed"
        v.problems.append(f"exit {out['returncode']}, output is {'JSON' if payload else 'not JSON'}")
        return v
    v.require(out["returncode"] == 0, f"exit status {out['returncode']}: {out['stderr'][-300:]}")
    if command == "table" and ref["format"] == "table":
        if v.status == "ok":
            _check_human_table(v, text, ref, int(case["op"]["argv"][4]))
        return v
    if command == "table" and ref["format"] == "csv":
        v.require(text.splitlines()[:1] == [CSV_HEADER], "CSV header changed")
        rows = _rows_from_csv(text)
        kmax = int(case["op"]["argv"][4])
        check_rows(v, rows, ref, kmax, case["name"])
        return v
    try:
        payload = strict_json(text)
    except ValueError as err:
        v.require(False, f"output is not strict JSON: {err}")
        return v
    if command == "table":
        kmax = int(case["op"]["argv"][4])
        v.require(payload["problem"] == ref["problem"], "problem name")
        v.require(payload["beta"] == ref["beta"], "beta")
        check_rows(v, payload["rows"], ref, kmax, case["name"])
    elif command == "fit":
        k = int(case["op"]["argv"][4])
        check_params(v, payload["A"], ref, "fit")
        v.require(len(payload["A"]) == k, "fit depth")
        v.require(payload["is_real_valued"] is True, "fit is real-valued")
        amp = oracle.amplitude(ref["params"][:k], ref["s"])
        v.value(payload["B_k"], amp, amplitude_tol(ref["params"][:k], ref["tol"][:k], ref["s"]), "fit B_k")
        v.value(payload["beta_k"], oracle.finite_exponent(ref["s"], k), exponent_tol(ref["s"], k), "fit beta_k")
    elif command == "eval":
        k = ref["order"]
        params, tol = ref["params"][:k], ref["tol"][:k]
        points = payload["points"]
        v.require([p[0] for p in points] == ref["points"], "evaluation points")
        for x, got in points:
            # Rounding of the evaluation plus the parameters' envelope
            # carried through the form's sensitivity to each of them.
            want, depth, bound, _ = oracle.evaluate(params, ref["s"], x, RS)
            sens = oracle.log_sensitivity(params, ref["s"], x)
            t = RS * U * float(bound) + sum(a * b for a, b in zip(sens, tol))
            v.value(got, want, t, f"eval x={x:g}")
    elif command == "diagnose":
        k = ref["order"]
        params, tol = ref["params"][:k], ref["tol"][:k]
        v.require(payload["order"] == k, "diagnose depth")
        s = ref["s"]
        for n, got in zip(range(2, k + 1), payload["radical_exponents"]):
            s_mp = oracle.to_mp(s)
            want = (1 - s_mp ** (n - 1)) / ((1 - s_mp) * s_mp ** (n - 1))
            v.require(oracle.relerr(got, want) <= RS * U * (n + 6) * 4, f"radical exponent n={n}")
        v.require(oracle.relerr(payload["param_bound"], max(params)) <= max(tol), "param bound")
        check_certificate(v, params, s, payload, ref["bound"], tol)
    elif command == "pade-check":
        order = ref["order"]
        v.require(payload["verdict"] == "PASS", "pade-check verdict")
        v.require(len(payload["params"]) == order, "pade-check parameter count")
        v.require(payload["numerator_degree"] == order // 2, "numerator degree")
        v.require(payload["denominator_degree"] == (order + 1) // 2, "denominator degree")
        v.require(0.0 <= payload["max_relative_deviation"] < 1e-10, "pade deviation")
    return v


CHECKERS = {"report": check_report, "deep_fit": check_deep_fit, "fit_eval": check_fit_eval, "cli": check_cli}


def check(case, out) -> Verdict:
    if "exception" in out:
        return Verdict(status="failed", problems=[out["exception"]])
    try:
        return CHECKERS[case["op"]["kind"]](case, out)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return Verdict(status="wrong", problems=[f"malformed output: {type(err).__name__}: {err}"])
