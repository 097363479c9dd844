"""Inputs of each workload, built from the seed, with their oracle references.

A workload is a list of cases.  Each case holds ``op``, the plain data that
``ops.run`` sends to the package, and ``ref``, what ``checks.py`` compares
the package's output with.  Every reference comes from ``oracle.py`` or
from the numbers the paper prints, never from the package.

Cases marked ``reference`` are the same for every seed.  The accuracy
metrics are taken over them alone, so that those metrics compare runs of
the same inputs; the seeded cases are checked just as strictly.

Parameters are drawn where the fit is well posed: every affine slope
s**n * A1 * ... * A(n-1) stays many orders of magnitude above the package's
absolute slope floor of 1e-13, so that no seeded fit can fail, and the
failure of that floor is shown by one fixed case (``fluid_string`` at
depth 14) instead.
"""

from __future__ import annotations

import functools
import math
import random

import oracle

U = oracle.UNIT_ROUNDOFF

# Safety factor between the oracle's condition estimate and the tolerance
# on a fitted parameter.  The measured ratio of float64 error to
# u * condition stayed below 80 over 280 deep synthetic series (K = 12..32).
FIT_SAFETY = 1024.0
# Safety factor on the first-order rounding estimates of evaluation,
# amplitude and exponent, which count each rounding once.
ROUNDING_SAFETY = 16.0

# (depth K, target exponent beta) of the seeded synthetic reports in one
# deep_table round.  beta = 1 (s = 1/2) is kept to K <= 16, where its
# condition number is still below 1e8; beyond that its parameters carry
# fewer than eight correct digits in float64 and no check could tell a
# wrong result from rounding.
DEEP_SEEDED = ((12, 1.0), (16, 1.0), (20, 2.0), (24, 2.0), (28, 3.0), (32, 3.0))
# The seed-independent synthetic report; it carries the accuracy metric.
DEEP_REFERENCE = ((32, 2.0),)
REFERENCE_SEED = 20121122

# The paper's depths for the built-in problems (acceptance criteria 1-4).
BUILTIN_DEPTHS = {
    "nls_coherent_modes": 5,
    "froehlich_polaron": 2,
    "fluid_membrane": 6,
    "fluid_string": 13,
}
# Published expansion coefficients of the problems with a finite list.
# They are data from the paper, repeated here so that the check does not
# read them from the package; fluid_string is computed by the oracle.
PUBLISHED_COEFFICIENTS = {
    "nls_coherent_modes": ["1", "1", "-1/8", "1/32", "-1/128", "3/2048"],
    "froehlich_polaron": ["1", "1.591962e-2", "0.806070e-3"],
    "fluid_membrane": [
        "1", "1/4", "1/32", "2.176347e-3", "0.552721e-4", "-0.721482e-5", "-1.777848e-6",
    ],
}
PROBLEM_TARGETS = {
    # beta, known amplitude, observable prefactor, match point
    "nls_coherent_modes": (2.0 / 3.0, 1.5, 1.0, 1.0),
    "froehlich_polaron": (1.0, 0.108513, 1.0, 1.0),
    "fluid_membrane": (2.0, 0.064683, math.pi**2 / 8.0, math.pi**2),
    "fluid_string": (2.0, 1.0 / 16.0, math.pi**2 / 8.0, math.pi**2),
}
# The paper's tables as acceptance criteria 1-4 quote them.
PAPER_TABLES = {
    "nls_coherent_modes": {
        "B_k": [1.549484, 1.554034, 1.539048, 1.523475],
        "percent": [(3.3, 1), (3.6, 1), (2.6, 1), (1.6, 1)],
    },
    "froehlich_polaron": {"B_k": [0.1044], "B_tol": 5e-5, "percent": [(-3.8, 1)]},
    "fluid_membrane": {
        "observable": [0.047705, 0.061904, 0.072407, 0.079569, 0.083702],
        "signs": [-1, -1, -1, -1, 1],
    },
    "fluid_string": {
        "observable": [
            0.047705, 0.061362, 0.070598, 0.076155, 0.079097, 0.080336,
            0.080533, 0.080141, 0.079540, 0.079199, 0.079123, 0.078363,
        ],
        "percent": [
            (-38.0, 0), (-20.0, 0), (-8.4, 1), (-1.2, 1), (2.6, 1), (4.2, 1),
            (4.4, 1), (3.9, 1), (3.2, 1), (2.7, 1), (2.6, 1), (1.6, 1),
        ],
    },
}
# The fit that fails today: the float64 slope at depth 14 is 3.77e-15,
# below the absolute floor 1e-13; the oracle's A14 is about -0.8494.
FAILING_FIT = ("fluid_string", 14)

# fit_eval: depths 1..8, both signs of s, and per (depth, sign) one series
# with positive parameters and one with at least one negative parameter,
# once from the fixed reference seed and once from the run's seed.  Only
# the positive series are real-valued and get a certificate, so each round
# holds the same twelve with s < 0 and depth >= 3, on which the package's
# certificate is wrong (``checks.check_certificate``).
SHALLOW_DEPTHS = range(1, 9)
# The strong end of the grid, x = 100, is also the interval of the certificate.
GRID_POINTS = 40
GRID = [10.0 ** (-3.0 + 5.0 * i / (GRID_POINTS - 1)) for i in range(GRID_POINTS)]

# cli: the evaluation points of the ``eval`` process.
CLI_EVAL_POINTS = [0.1, 1.0, 10.0, 100.0, 10000.0]


def power_of(beta: float) -> float:
    return beta / (1.0 + beta)


def coefficients_of(params, s, order) -> list[float]:
    """Float64 inputs: the oracle's expansion, each coefficient rounded once."""
    return [float(c) for c in oracle.expand(params, s, order)]


def fit_reference(coeffs, s, probes: int = 3) -> dict:
    """Oracle fit of float64 inputs and the tolerance of each parameter.

    The tolerance of A_n is FIT_SAFETY * u times the largest condition
    number of A_1..A_n: an error in an earlier parameter feeds every later
    one, so the envelope never shrinks with depth.
    """
    params = oracle.fit(coeffs, s)
    cond = oracle.condition(coeffs, s, params, probes=probes)
    tol, running = [], 1.0
    for kappa in cond:
        running = max(running, kappa)
        tol.append(FIT_SAFETY * U * running)
    return {"params": params, "tol": tol}


def _report_ref(coeffs, beta, known_amplitude, prefactor, match_point) -> dict:
    s = power_of(beta)
    ref = fit_reference(coeffs, s)
    ref.update(
        coefficients=coeffs,
        s=s,
        beta=beta,
        known_amplitude=known_amplitude,
        prefactor=prefactor,
        match_point=match_point,
    )
    return ref


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _synthetic_report(rng: random.Random, kmax: int, beta: float, reference: bool) -> dict:
    s = power_of(beta)
    params = [_log_uniform(rng, 0.6, 1.6) for _ in range(kmax)]
    coeffs = coefficients_of(params, s, kmax)
    known = float(oracle.amplitude(params, s))
    op = {
        "kind": "report",
        "coefficients": coeffs,
        "kmax": kmax,
        "beta": beta,
        "known_amplitude": known,
        "prefactor": 1.0,
        "match_point": 1.0,
    }
    ref = _report_ref(coeffs, beta, known, 1.0, 1.0)
    return {"name": f"synthetic K={kmax} beta={beta:g}", "op": op, "ref": ref, "reference": reference}


def builtin_coefficients(name: str, order: int) -> list[float]:
    if name == "fluid_string":
        return [float(c) for c in oracle.string_coefficients(order)]
    return [float(oracle.to_mp(_fraction(c))) for c in PUBLISHED_COEFFICIENTS[name][: order + 1]]


def _fraction(text: str):
    if "/" in text:
        num, den = text.split("/")
        return oracle.to_mp(num) / oracle.to_mp(den)
    return oracle.to_mp(text)


@functools.lru_cache(maxsize=None)
def builtin_report(name: str) -> dict:
    kmax = BUILTIN_DEPTHS[name]
    beta, known, prefactor, match_point = PROBLEM_TARGETS[name]
    coeffs = builtin_coefficients(name, kmax)
    op = {
        "kind": "report",
        "problem": name,
        "kmax": kmax,
        "beta": beta,
        "known_amplitude": known,
        "prefactor": prefactor,
        "match_point": match_point,
    }
    ref = _report_ref(coeffs, beta, known, prefactor, match_point)
    ref["paper"] = PAPER_TABLES[name]
    return {"name": f"{name} K={kmax}", "op": op, "ref": ref, "reference": True}


def failing_fit() -> dict:
    name, order = FAILING_FIT
    beta = PROBLEM_TARGETS[name][0]
    coeffs = builtin_coefficients(name, order)
    ref = fit_reference(coeffs, power_of(beta))
    ref.update(coefficients=coeffs, s=power_of(beta))
    op = {"kind": "deep_fit", "problem": name, "order": order, "beta": beta}
    return {
        "name": f"fit {name} K={order}",
        "op": op,
        "ref": ref,
        "reference": True,
        "known_fault": "vanishing-sensitivity",
    }


def deep_table(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ref_rng = random.Random(REFERENCE_SEED)
    cases = [_synthetic_report(rng, k, b, False) for k, b in DEEP_SEEDED]
    cases += [_synthetic_report(ref_rng, k, b, True) for k, b in DEEP_REFERENCE]
    cases += [builtin_report(name) for name in BUILTIN_DEPTHS]
    cases.append(failing_fit())
    return cases


def _shallow_case(rng: random.Random, k: int, sign: float, mixed: bool, reference: bool) -> dict:
    s = sign * rng.uniform(0.3, 0.95)
    params = [rng.uniform(0.25, 2.0) for _ in range(k)]
    if mixed:
        params = [a * rng.choice((-1.0, 1.0)) for a in params]
        if min(params) > 0:
            params[rng.randrange(k)] *= -1.0
    coeffs = coefficients_of(params, s, k)
    ref = fit_reference(coeffs, s, probes=2)
    ref.update(coefficients=coeffs, s=s)
    op = {"kind": "fit_eval", "coefficients": coeffs, "power": s, "grid": GRID, "bound": GRID[-1]}
    label = "mixed" if mixed else "positive"
    case = {"name": f"shallow K={k} s={s:+.3f} {label}", "op": op, "ref": ref, "reference": reference}
    if not mixed and sign < 0 and k >= 3:
        # With s < 0 and L*M >= 25, term 3 exceeds both the limit and the
        # first term by a factor of at least 1.06.
        case["known_fault"] = "certificate-cap"
    return case


def fit_eval(seed: int) -> list[dict]:
    cases = []
    for rng, reference in ((random.Random(REFERENCE_SEED), True), (random.Random(seed), False)):
        for k in SHALLOW_DEPTHS:
            for sign in (1.0, -1.0):
                for mixed in (False, True):
                    cases.append(_shallow_case(rng, k, sign, mixed, reference))
    return cases


def cli(seed: int) -> list[dict]:
    """The seed draws the order and the seed of ``pade-check``; every other
    process works on the built-in problems."""
    rng = random.Random(seed)
    cases = []

    def add(argv, ref, reference=True, known_fault=None):
        case = {"name": " ".join(argv), "op": {"kind": "cli", "argv": argv}, "ref": ref, "reference": reference}
        if known_fault:
            case["known_fault"] = known_fault
        cases.append(case)

    for name, kmax in BUILTIN_DEPTHS.items():
        formats = ("table", "json", "csv") if name == "fluid_string" else ("json",)
        report = builtin_report(name)["ref"]
        for fmt in formats:
            add(
                ["table", "--problem", name, "--kmax", str(kmax), "--format", fmt],
                dict(report, command="table", format=fmt, problem=name),
            )
    string = builtin_report("fluid_string")["ref"]
    add(["fit", "--problem", "fluid_string", "--order", "13"], dict(string, command="fit"))
    membrane = builtin_report("fluid_membrane")["ref"]
    add(
        ["eval", "--problem", "fluid_membrane", "--order", "4", "--x", *map(repr, CLI_EVAL_POINTS)],
        dict(membrane, command="eval", order=4, points=CLI_EVAL_POINTS),
    )
    add(["diagnose", "--problem", "fluid_string", "--order", "8", "--L", "100"], dict(string, command="diagnose", order=8, bound=100.0))
    order = rng.randint(2, 8)
    pade_seed = rng.randrange(1 << 30)
    add(
        ["pade-check", "--order", str(order), "--seed", str(pade_seed)],
        {"command": "pade-check", "order": order, "seed": pade_seed},
        reference=False,
    )
    add(
        ["eval", "--problem", "fluid_membrane", "--order", "4", "--x", "nan", "1"],
        {"command": "eval-invalid"},
        known_fault="non-json-nan",
    )
    return cases


BUILDERS = {"deep_table": deep_table, "fit_eval": fit_eval, "cli": cli}


def build(workload: str, seed: int) -> list[dict]:
    return BUILDERS[workload](seed)
