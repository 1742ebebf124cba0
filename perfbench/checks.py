"""Output checks that hold for every workload seed.

Each check parses the program's stdout and recomputes what it asserts with
the benchmark's own stdlib code, never with ginalg.  A check returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from inputs import monomials

_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*?)?((?:x\d+(?:\^\d+)?\*?)*)$")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")

# quotient Hilbert function of a complete intersection of three quadrics in
# five variables, the series (1 + t)^3 / (1 - t)^2, degrees 0..5
CI3_QUADRICS_S5_HF = (1, 5, 12, 20, 28, 36)

CI_DEMO_STEPS = (
    "complete-intersection Hilbert pattern",
    "gin = J1",
    "mixed-order in = J2",
    "special revlex witness with in = J2",
    "candidate enumeration = {J1, J2}",
    "gin = J1",
)


def parse_monomial(text: str, num_vars: int) -> tuple[int, ...]:
    exps = [0] * num_vars
    for index, power in _FACTOR.findall(text):
        exps[int(index) - 1] += int(power or 1)
    return tuple(exps)


def parse_poly(text: str, num_vars: int) -> dict[tuple[int, ...], Fraction]:
    """Terms of a polynomial printed in the ginalg grammar."""
    poly: dict[tuple[int, ...], Fraction] = {}
    for term in re.split(r"(?=[+-])", text.replace(" ", "")):
        if not term:
            continue
        match = _TERM.match(term)
        if match is None:
            raise ValueError(f"cannot parse term {term!r}")
        sign, coeff, factors = match.groups()
        value = Fraction(coeff or 1) * (-1 if sign == "-" else 1)
        exps = parse_monomial(factors, num_vars)
        poly[exps] = poly.get(exps, Fraction(0)) + value
    return {e: c for e, c in poly.items() if c}


def proportional(p: dict, q: dict) -> bool:
    if not p or p.keys() != q.keys():
        return False
    e0 = next(iter(p))
    ratio = q[e0] / p[e0]
    return all(q[e] == ratio * c for e, c in p.items())


def revlex_key(exps: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key, larger key = revlex-larger monomial of the same degree."""
    return tuple(-e for e in reversed(exps))


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def in_ideal(exps: tuple[int, ...], gens: list[tuple[int, ...]]) -> bool:
    return any(divides(g, exps) for g in gens)


def is_borel_fixed(gens: list[tuple[int, ...]]) -> bool:
    """Strongly stable: x_i * u / x_j stays in the ideal for i < j, x_j | u."""
    for g in gens:
        for j, e in enumerate(g):
            if not e:
                continue
            for i in range(j):
                moved = list(g)
                moved[j] -= 1
                moved[i] += 1
                if not in_ideal(tuple(moved), gens):
                    return False
    return True


def is_saturated(gens: list[tuple[int, ...]]) -> bool:
    """(I : x_s) == I, where I : x_s is generated by g / x_s^min(1, g_s)."""
    for g in gens:
        if g[-1]:
            if not in_ideal(g[:-1] + (g[-1] - 1,), gens):
                return False
    return True


def quotient_hilbert(gens: list[tuple[int, ...]], num_vars: int, dmax: int) -> tuple[int, ...]:
    return tuple(
        sum(1 for m in monomials(num_vars, d) if not in_ideal(m, gens)) for d in range(dmax + 1)
    )


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_gin_dense(stdout: str, num_vars: int, degree: int, dim: int) -> str | None:
    report = _json(stdout)
    if report is None:
        return "gin output is not JSON"
    if not (report["stable"] and report["agreements"] == report["trials"]):
        return "gin trials disagree"
    segment = sorted(monomials(num_vars, degree), key=revlex_key, reverse=True)[:dim]
    if {parse_monomial(m, num_vars) for m in report["result"]} != set(segment):
        return f"gin is not the size-{dim} revlex initial segment"
    return None


def check_gin_ideal(stdout: str, num_vars: int, dmax: int) -> str | None:
    report = _json(stdout)
    if report is None:
        return "gin-ideal output is not JSON"
    if not report["stable"]:
        return "gin-ideal trials disagree"
    gens = [parse_monomial(g, num_vars) for g in report["generators"]]
    if not is_borel_fixed(gens):
        return "gin generators are not Borel-fixed"
    if not is_saturated(gens):
        return "gin generators are not saturated in the last variable"
    if quotient_hilbert(gens, num_vars, dmax) != CI3_QUADRICS_S5_HF[: dmax + 1]:
        return "quotient Hilbert function is not that of three quadrics"
    return None


def check_theorem(instance: str, verify: str, probe: str, num_vars: int, m: int) -> str | None:
    planted, report, probed = _json(instance), _json(verify), _json(probe)
    if planted is None or report is None or probed is None:
        return "theorem chain output is not JSON"
    if report["status"] == "certificate":
        cert = report["certificate"]
        if not cert["checked"]:
            return "certificate not checked"
        if cert["m"] != m:
            return f"certificate factor degree {cert['m']}, planted {m}"
        if not proportional(parse_poly(planted["p"], num_vars), parse_poly(cert["p"], num_vars)):
            return "certificate factor is not the planted factor"
    elif report["status"] != "not-applicable":
        return f"verify status {report['status']}"
    if not probed["consistent"]:
        return "probe inconsistent"
    return None


def check_ci_demo(stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("three random quadrics"):
        return "ci-demo output lacks the quadrics line"
    steps = tuple(line.rsplit(": ", 1)[0] for line in lines[1:])
    if steps != CI_DEMO_STEPS:
        return "ci-demo steps differ from the five demonstration steps"
    if any(not line.endswith(": PASS") for line in lines[1:]):
        return "a ci-demo step failed"
    return None
