"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from math import comb
from pathlib import Path

import pytest

from ginalg import (
    MIXED,
    REVLEX,
    common_factor,
    detect_gin_shape,
    gin_ideal_truncated,
    gin_subspace,
    hilbert_function,
    hyperplane_factor_probe,
    ideal_graded_piece,
    initial_ideal_truncated,
    initial_subspace,
    is_borel_fixed,
    make_instance,
    minimalize,
    normalize_form,
    parse_form,
    random_form,
    random_subspace,
    restrict_subspace,
    search_j2_revlex_witness,
    verify_main_theorem,
)
from ginalg.ideals import colon_by_last_variable
from ginalg.demo import CI_QUOTIENT_HF, J1, J2, is_three_quadric_ci, truncated_initial_ideal
from oracles import mul, oracle_gcd, spanning_args

QUADRIC_SEEDS = [101, 202, 303, 404, 505]
PARAMETER_SETS = [(3, 3, 1, 1), (3, 3, 2, 1), (4, 3, 1, 1), (4, 3, 1, 2)]
J1_STRINGS = ["x1^2", "x1*x2", "x2^2", "x1*x3^2", "x2*x3^2", "x3^4"]
J2_STRINGS = ["x1^2", "x1*x2", "x1*x3", "x2^3", "x2^2*x3", "x2*x3^2", "x3^4"]


def report_line(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")


def theorem_shape(monomials):
    """The main theorem's hypothesis shape: r >= 3 and m >= 1."""
    shape = detect_gin_shape(monomials)
    if shape is None:
        return None
    r, n, m = shape
    return shape if (r >= 3 and m >= 1) else None


@pytest.fixture(scope="module")
def quadric_gin_reports():
    out = []
    for seed in QUADRIC_SEEDS:
        rng = random.Random(seed)
        quadrics = [random_form(rng, 4, 2, 100) for _ in range(3)]
        start = time.monotonic()
        report = gin_ideal_truncated(quadrics, 4, REVLEX, trials=3, seed=seed, bound=100)
        elapsed = time.monotonic() - start
        out.append((seed, quadrics, report, elapsed))
    return out


@pytest.fixture(scope="module")
def theorem_sweep():
    """Criterion 4 data, reused by criterion 7: (params, seed, report) rows."""
    rows = []
    start = time.monotonic()
    for params in PARAMETER_SETS:
        s, r, n, m = params
        for seed in range(20):
            planted, p, _ = make_instance(s, r, n, m, seed=seed)
            report = verify_main_theorem(planted, trials=3, seed=seed, bound=100)
            rows.append((params, seed, p, report))
    return rows, time.monotonic() - start


@pytest.fixture(scope="module")
def contrapositive_sweep():
    """Criterion 5 data, reused by criterion 7: factor-free subspace gins."""
    rows = []
    for params in PARAMETER_SETS:
        s, r, n, m = params
        dim = comb(n + r - 1, r - 1)
        collected = 0
        seed = 0
        while collected < 20:
            seed += 1
            space = random_subspace(s, n + m, dim, seed=7000 * PARAMETER_SETS.index(params) + seed)
            _, degree = common_factor(space)
            if degree != 0:
                continue
            report = gin_subspace(*spanning_args(space), trials=3, seed=seed, bound=100)
            rows.append((params, seed, report))
            collected += 1
    return rows


def test_criterion_01_candidate_enumeration():
    from ginalg import enumerate_gin_candidates

    start = time.monotonic()
    candidates = enumerate_gin_candidates(4, CI_QUOTIENT_HF, 4)
    elapsed = time.monotonic() - start
    ok = (
        len(candidates) == 2
        and candidates[0].strings() == J1_STRINGS
        and candidates[1].strings() == J2_STRINGS
        and elapsed < 10.0
    )
    report_line(1, "candidate enumeration is exactly {J1, J2}", ok)
    assert ok, (candidates, elapsed)


def test_criterion_02_revlex_gin_is_j1(quadric_gin_reports):
    failures = []
    for seed, _, report, elapsed in quadric_gin_reports:
        if not report.stable:
            failures.append((seed, "unstable"))
        if report.ideal != J1:
            failures.append((seed, report.ideal.strings()))
        if elapsed >= 30.0:
            failures.append((seed, f"{elapsed:.1f}s"))
    ok = not failures
    report_line(2, "revlex gin of random quadrics = J1 over 5 seeds", ok)
    assert ok, failures


def test_criterion_03_mixed_order_in_is_j2(quadric_gin_reports):
    failures = []
    for seed, quadrics, _, _ in quadric_gin_reports:
        per_degree = initial_ideal_truncated(quadrics, 4, MIXED)
        ideal = minimalize([e for ms in per_degree.values() for e in ms.exps], 4)
        if ideal != J2:
            failures.append((seed, ideal.strings()))
    ok = not failures
    report_line(3, "mixed-order in of the same triples = J2", ok)
    assert ok, failures


def test_criterion_04_main_theorem_round_trip(theorem_sweep):
    rows, elapsed = theorem_sweep
    failures = []
    certificates = 0
    for params, seed, planted_p, report in rows:
        s, r, n, m = params
        if report.status == "violation":
            failures.append((params, seed, "VIOLATION", report.details))
            continue
        if report.status != "certificate":
            continue  # unstable or unshaped draws are filtered, not failures
        certificates += 1
        cert = report.certificate
        if cert.factor_degree != m or not cert.checked:
            failures.append((params, seed, "bad certificate", cert.to_dict()))
        if cert.factor != normalize_form(planted_p):
            failures.append((params, seed, "factor differs from planted p"))
    ok = not failures and certificates >= 60 and elapsed < 300.0
    report_line(4, f"main-theorem round trip ({certificates} certificates, {elapsed:.0f}s)", ok)
    assert ok, failures


def test_criterion_05_contrapositive(contrapositive_sweep):
    failures = []
    for params, seed, report in contrapositive_sweep:
        if report.stable and theorem_shape(report.result) is not None:
            failures.append((params, seed, report.result.strings()))
    ok = not failures
    report_line(5, "factor-free subspaces never reach the theorem shape", ok)
    assert ok, failures


def test_criterion_06_restriction_identity():
    failures = []
    count = 0
    for s in (3, 4):
        for d in (2, 3):
            for k in range(25):
                seed = 11_000 + count
                dim = random.Random(seed).randrange(0, comb(d + s - 1, s - 1) + 1)
                space = random_subspace(s, d, dim, seed=seed)
                lhs = initial_subspace(restrict_subspace(space, parse_form(f"x{s}", s)))
                rhs = initial_subspace(space).drop_last_variable()
                if lhs != rhs:
                    failures.append((s, d, dim, seed))
                count += 1
    ok = count == 100 and not failures
    report_line(6, "in(V|_{x_s=0}) = in(V)|_{x_s=0} on 100 subspaces", ok)
    assert ok, failures


def test_criterion_07_gin_structural_properties(
    quadric_gin_reports, theorem_sweep, contrapositive_sweep
):
    failures = []
    for seed, quadrics, report, _ in quadric_gin_reports:
        if not report.stable:
            continue
        if not is_borel_fixed(report.ideal):
            failures.append((seed, "not borel-fixed"))
        if colon_by_last_variable(report.ideal) != report.ideal:
            failures.append((seed, "not saturated"))
        for d, piece in report.per_degree.items():
            source_dim = len(ideal_graded_piece(quadrics, d, REVLEX, 4))
            if hilbert_function(report.ideal, d) != comb(d + 3, 3) - source_dim:
                failures.append((seed, d, "hilbert mismatch"))
    rows, _ = theorem_sweep
    subspace_outputs = [r.gin for _, _, _, r in rows] + [r for _, _, r in contrapositive_sweep]
    for report in subspace_outputs:
        if not report.stable:
            continue
        degreewise = minimalize(report.result.exps, report.result.num_vars)
        if not is_borel_fixed(degreewise):
            failures.append(("subspace gin", report.result.strings()))
    ok = not failures
    report_line(7, "stable gins are Borel-fixed, saturated, Hilbert-compatible", ok)
    assert ok, failures


def test_criterion_08_gcd_oracle_equivalence():
    from ginalg import gcd_forms

    rng = random.Random(88)
    failures = []
    checked = 0
    while checked < 200:
        s = rng.choice([1, 2, 3, 3])
        if checked % 2 == 0:
            f = random_form(rng, s, rng.randint(1, 4), 6)
            g = random_form(rng, s, rng.randint(1, 4), 6)
        else:
            shared_degree = rng.randint(1, 2)
            shared = random_form(rng, s, shared_degree, 3)
            f = mul(random_form(rng, s, rng.randint(0, 4 - shared_degree), 3), shared)
            g = mul(random_form(rng, s, rng.randint(0, 4 - shared_degree), 3), shared)
        if f.is_zero() or g.is_zero():
            continue
        mine, reference = gcd_forms(f, g), oracle_gcd(f, g)
        if mine != reference:
            failures.append((s, f, g, mine, reference))
        checked += 1
    ok = checked == 200 and not failures
    report_line(8, "gcd agrees with the trial-division oracle on 200 pairs", ok)
    assert ok, failures


def test_criterion_09_hyperplane_probe():
    failures = []
    for index in range(20):
        params = PARAMETER_SETS[index % len(PARAMETER_SETS)]
        s, r, n, m = params
        planted, _, _ = make_instance(s, r, n, m, seed=40 + index)
        probe = hyperplane_factor_probe(planted, expected_m=m, trials=5, seed=90_000 + index)
        for sample in probe.samples:
            if sample.factor_degree is None or sample.factor_degree < m:
                failures.append(("planted", params, index, sample.to_dict()))
    zero_count = total = 0
    for index in range(20):
        s = 3 if index % 2 == 0 else 4
        space = random_subspace(s, 3, 2 + index % 2, seed=60 + index)
        _, degree = common_factor(space)
        if degree != 0:
            continue
        probe = hyperplane_factor_probe(space, trials=5, seed=95_000 + index)
        if probe.anomaly:
            print(f"probe anomaly for replay: {probe.to_dict()}")
        for sample in probe.samples:
            total += 1
            if sample.factor_degree == 0:
                zero_count += 1
    ok = not failures and total > 0 and zero_count >= 0.95 * total
    report_line(9, f"restriction probe ({zero_count}/{total} factor-free)", ok)
    assert ok, (failures, zero_count, total)


def test_criterion_10_special_revlex_instance():
    fixture = Path(__file__).parent / "fixtures" / "j2_revlex_witness.txt"
    gens = []
    for line in fixture.read_text().splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped or stripped.startswith("s="):
            continue
        gens.append(parse_form(stripped, 4))
    fixture_ok = (
        len(gens) == 3
        and is_three_quadric_ci(gens)
        and truncated_initial_ideal(gens, REVLEX) == J2
    )
    found = search_j2_revlex_witness()
    search_ok = found is not None and truncated_initial_ideal(found[0], REVLEX) == J2
    ok = fixture_ok and search_ok
    report_line(10, "special revlex witness discovered and fixture re-verifies", ok)
    assert ok
