from pathlib import Path

from ginalg import REVLEX, Form, ci_quadrics_demo, initial_ideal_truncated, minimalize, parse_form, search_j2_revlex_witness
from ginalg.demo import DMAX, J2, NUM_VARS, is_three_quadric_ci

FIXTURE = Path(__file__).parent / "fixtures" / "j2_revlex_witness.txt"


def load_fixture():
    gens = []
    for line in FIXTURE.read_text().splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped or "=" in stripped and stripped.startswith("s="):
            continue
        gens.append(parse_form(stripped, 4))
    return gens


def test_golden_witness_reverifies():
    gens = load_fixture()
    assert len(gens) == 3
    assert is_three_quadric_ci(gens)
    pieces = initial_ideal_truncated(gens, DMAX, REVLEX)
    assert minimalize([e for piece in pieces.values() for e in piece.exps], NUM_VARS) == J2


def test_search_finds_the_golden_witness():
    found = search_j2_revlex_witness()
    assert found is not None
    gens, examined = found
    assert examined <= 200  # the hit is early by construction of the search order
    assert [g.terms for g in gens] == [g.terms for g in load_fixture()]


def test_demo_all_steps_pass():
    report = ci_quadrics_demo(seed=2)
    assert report.ok
    assert [s.name for s in report.steps] == [
        "complete-intersection Hilbert pattern",
        "gin = J1",
        "mixed-order in = J2",
        "special revlex witness with in = J2",
        "candidate enumeration = {J1, J2}",
    ]


def test_demo_text_report_ends_with_gin_verdict():
    report = ci_quadrics_demo(seed=1)
    lines = report.to_text().splitlines()
    assert lines[-1] == "gin = J1: PASS"


def test_demo_json_round_trip():
    import json

    report = ci_quadrics_demo(seed=3)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert len(payload["steps"]) == 5
    assert payload["seed"] == 3


def test_zero_quadrics_are_no_complete_intersection():
    zero = Form(4, 2, {})
    assert not is_three_quadric_ci([zero, zero, zero])
    assert not is_three_quadric_ci([parse_form("x1^2", 4), zero, zero])
