"""End-to-end demonstration for the complete intersection of three quadrics
in four variables: Hilbert pattern, the two admissible initial-ideal
candidates, the generic revlex and mixed-order outcomes, and a bounded
search for a special (non-generic) triple whose plain revlex initial ideal
is the second candidate."""

from __future__ import annotations

import random
from itertools import product

from .forms import MIXED, REVLEX, Form, Record, format_form
from .gin import gin_ideal_truncated, ideal_graded_piece, initial_ideal_truncated
from .ideals import enumerate_gin_candidates, ideal_monomials_of_degree, parse_ideal
from .subspaces import MonomialIdeal, RowEchelon, minimalize, random_form

NUM_VARS = 4
DMAX = 4
CI_QUOTIENT_HF = (1, 4, 7, 8, 8)
CI_IDEAL_DIMS = {2: 3, 3: 12, 4: 27}

# the two candidates cut out by the Hilbert/Borel/saturation constraints
J1 = parse_ideal("x1^2, x1*x2, x2^2, x1*x3^2, x2*x3^2, x3^4", NUM_VARS)
J2 = parse_ideal("x1^2, x1*x2, x1*x3, x2^3, x2^2*x3, x2*x3^2, x3^4", NUM_VARS)


def _ideal_dims(gens: list[Form]) -> dict[int, int]:
    """{d: dim I_d} from the lowest generator degree up to DMAX, read from initial_ideal_truncated."""
    return {d: len(piece) for d, piece in initial_ideal_truncated(gens, DMAX).items()}


def is_three_quadric_ci(gens: list[Form]) -> bool:
    """Hilbert-pattern proxy for the regular-sequence property at desk scale."""
    return len(gens) == 3 and all(g.degree == 2 and not g.is_zero() for g in gens) and _ideal_dims(gens) == CI_IDEAL_DIMS


def truncated_initial_ideal(gens: list[Form], order: str) -> MonomialIdeal:
    per_degree = initial_ideal_truncated(gens, DMAX, order)
    return minimalize([e for ms in per_degree.values() for e in ms.exps], NUM_VARS)


def search_j2_revlex_witness() -> tuple[list[Form], int] | None:
    """Bounded deterministic search for a complete intersection of three
    quadrics whose plain revlex initial ideal, truncated at degree 4, is J2.

    The candidates have leading monomials x1^2, x1*x2, x1*x3 (their span
    contains x1 times linear forms) with one small tail monomial each, the
    tails drawn from the revlex-smaller quadric monomials with coefficients
    in {-2..2} minus zero.  Candidates are rejected degree by degree
    against the target initial monomials, which also pins the Hilbert
    pattern; the complete-intersection check is confirmed on the hit.
    One echelon per candidate is grown through degrees 2 to DMAX; degree 2
    itself is not compared.
    Returns (triple, candidates_examined) or None.
    """
    heads = [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)]  # x1^2, x1*x2, x1*x3
    tails = [
        (0, 2, 0, 0),  # x2^2
        (0, 0, 2, 0),  # x3^2
        (0, 0, 0, 2),  # x4^2
        (0, 0, 1, 1),  # x3*x4
        (0, 1, 0, 1),  # x2*x4
        (0, 1, 1, 0),  # x2*x3
    ]
    coefficients = (-1, 1, -2, 2)
    target = {
        d: frozenset(ideal_monomials_of_degree(J2, d)) for d in range(3, DMAX + 1)
    }
    examined = 0
    for coeff_choice in product(coefficients, repeat=3):
        for tail_choice in product(tails, repeat=3):
            examined += 1
            gens = [Form(NUM_VARS, 2, {head: 1, tail: c}) for head, tail, c in zip(heads, tail_choice, coeff_choice)]
            echelon = RowEchelon(None)
            ideal_graded_piece(gens, 2, REVLEX, NUM_VARS, echelon=echelon)
            ok = all(
                ideal_graded_piece(gens, d, REVLEX, NUM_VARS, echelon=echelon).exps == target[d]
                for d in range(3, DMAX + 1)
            )
            if ok and is_three_quadric_ci(gens):
                return gens, examined
    return None


class DemoStep(Record):
    """One named check of the demo (`name`), whether it passed (`ok`) and its data (`detail`, a dict)."""

    __slots__ = ("name", "ok", "detail")

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


class DemoReport(Record):
    """The seed and trial count, the quadrics as text, the DemoSteps, and whether all passed."""

    __slots__ = ("seed", "trials", "quadrics", "steps", "ok")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "quadrics": list(self.quadrics),
            "steps": [s.to_dict() for s in self.steps],
            "ok": self.ok,
        }

    def to_text(self) -> str:
        lines = [f"three random quadrics (seed {self.seed}): " + "; ".join(self.quadrics)]
        for step in self.steps:
            lines.append(f"{step.name}: {'PASS' if step.ok else 'FAIL'}")
        gin_step = next(s for s in self.steps if s.name == "gin = J1")
        lines.append(f"gin = J1: {'PASS' if gin_step.ok else 'FAIL'}")
        return "\n".join(lines)


def ci_quadrics_demo(seed: int = 0, trials: int = 3, bound: int = 100) -> DemoReport:
    """Draw three random quadrics and run the whole example pipeline.

    Steps: (a) complete-intersection Hilbert pattern, (b) revlex gin is the
    first candidate, (c) mixed-order initial ideal is the second candidate,
    (d) a special triple with plain revlex initial ideal equal to the second
    candidate exists (bounded search), (e) the candidate enumeration returns
    exactly the two ideals.  Every step's detail is replayable from the seed.
    """
    rng = random.Random(seed)
    quadrics = [random_form(rng, NUM_VARS, 2, bound) for _ in range(3)]
    steps: list[DemoStep] = []

    dims = _ideal_dims(quadrics)
    steps.append(
        DemoStep(
            "complete-intersection Hilbert pattern",
            dims == CI_IDEAL_DIMS,
            {"ideal_dims": {str(d): v for d, v in sorted(dims.items())}, "expected": {str(d): v for d, v in sorted(CI_IDEAL_DIMS.items())}},
        )
    )

    gin_report = gin_ideal_truncated(quadrics, DMAX, REVLEX, trials=trials, seed=seed, bound=bound)
    steps.append(
        DemoStep(
            "gin = J1",
            gin_report.stable and gin_report.ideal == J1,
            {"computed": gin_report.ideal.strings(), "expected": J1.strings(), "stable": gin_report.stable},
        )
    )

    mixed_ideal = truncated_initial_ideal(quadrics, MIXED)
    steps.append(
        DemoStep(
            "mixed-order in = J2",
            mixed_ideal == J2,
            {"computed": mixed_ideal.strings(), "expected": J2.strings()},
        )
    )

    witness = search_j2_revlex_witness()
    steps.append(
        DemoStep(
            "special revlex witness with in = J2",
            witness is not None,
            {
                "witness": None if witness is None else [format_form(g) for g in witness[0]],
                "candidates_examined": None if witness is None else witness[1],
            },
        )
    )

    candidates = enumerate_gin_candidates(NUM_VARS, CI_QUOTIENT_HF, DMAX)
    steps.append(
        DemoStep(
            "candidate enumeration = {J1, J2}",
            candidates == [J1, J2],
            {"candidates": [c.strings() for c in candidates]},
        )
    )

    return DemoReport(
        seed=seed,
        trials=trials,
        quadrics=tuple(format_form(q) for q in quadrics),
        steps=tuple(steps),
        ok=all(s.ok for s in steps),
    )
