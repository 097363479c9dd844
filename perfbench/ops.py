"""The operations each workload sends to the package, and nothing else.

This module imports only the package and the standard library, so the
peak-memory worker (``worker.py``) holds the program and its inputs and no
benchmark machinery.  Every function takes plain data built by
``inputs.py`` and returns plain data for ``checks.py``; a call into the
package that raises a ``ContinuedRootError`` is returned as
``{"error": kind, "message": text}`` so the check can decide whether that
is the expected outcome.

Calls go through module attributes (``approximant.fit``, not a name bound at
import), so the wrappers that ``tracing.py`` installs see them.
"""

from __future__ import annotations

import os
import subprocess
import sys

from continued_roots import approximant, corpus, diagnostics, series
from continued_roots.errors import ContinuedRootError

def _error(err: ContinuedRootError) -> dict:
    return {"error": err.kind, "message": str(err)}


def _row(row) -> dict:
    return {
        "k": row.order,
        "B_k": row.amplitude,
        "beta_k": row.exponent,
        "observable": row.observable,
        "percent_error": row.percent_error,
        "error": row.error,
    }


def report(op: dict) -> dict:
    """One extrapolation report: fit_sequence over depths 2..K, then
    sequence_report, as the ``table`` command computes it."""
    kmax = op["kmax"]
    if "problem" in op:
        prob = corpus.problem(op["problem"])
        coeffs = prob.coefficients(kmax)
    else:
        coeffs = op["coefficients"]
    power = approximant.exponent_to_power(op["beta"])
    fits = approximant.fit_sequence(
        series.TruncatedSeries(tuple(coeffs)), power, range(2, kmax + 1)
    )
    rep = diagnostics.sequence_report(
        fits,
        approximant.ExponentTarget(op["beta"], op["known_amplitude"]),
        observable_prefactor=op["prefactor"],
        match_point=op["match_point"],
    )
    return {
        "coefficients": list(coeffs),
        "power": power,
        "params": [list(f.params) for f in fits],
        "rows": [_row(r) for r in rep.rows],
    }


def deep_fit(op: dict) -> dict:
    """One ``fit`` of a built-in problem at a given depth."""
    coeffs = corpus.problem(op["problem"]).coefficients(op["order"])
    power = approximant.exponent_to_power(op["beta"])
    try:
        fitted = approximant.fit(series.TruncatedSeries(tuple(coeffs)), power)
    except ContinuedRootError as err:
        return _error(err)
    return {"coefficients": list(coeffs), "power": power, "params": list(fitted.params)}


def fit_eval(op: dict) -> dict:
    """Fit one shallow series, expand it back, evaluate it on the grid and,
    when it is real-valued, take its amplitude and certificate."""
    coeffs = op["coefficients"]
    s = op["power"]
    try:
        approx = approximant.fit(series.TruncatedSeries(tuple(coeffs)), s)
    except ContinuedRootError as err:
        return _error(err)
    out = {
        "params": list(approx.params),
        "expanded": list(approx.expand(len(coeffs) - 1).coeffs),
        "values": [],
    }
    values = out["values"]
    for x in op["grid"]:
        try:
            values.append(approx.evaluate(x))
        except ContinuedRootError as err:
            values.append({"depth": getattr(err, "depth", None), "error": err.kind})
    if approx.is_real_valued:
        amp = approx.amplitude()
        diag = diagnostics.herschfeld_terms(approx, op["bound"])
        out["amplitude"] = amp.amplitude
        out["exponent"] = amp.exponent
        out["bound_terms"] = list(diag.bound_terms)
        out["bound_limit"] = diag.bound_limit
        out["bounded"] = diag.bounded
    return out


def child_env(root: str) -> dict:
    """The inherited environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli(op: dict, root: str, env: dict) -> dict:
    """One ``python -m continued_roots.cli`` process, run to its end."""
    proc = subprocess.run(
        [sys.executable, "-m", "continued_roots.cli", *op["argv"]],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def run(op: dict, root: str, env: dict) -> dict:
    kind = op["kind"]
    if kind == "report":
        return report(op)
    if kind == "deep_fit":
        return deep_fit(op)
    if kind == "fit_eval":
        return fit_eval(op)
    return cli(op, root, env)
