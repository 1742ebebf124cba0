import random
from functools import partial
from math import comb

import pytest

from ginalg import (
    colon_by_last_variable,
    contains_monomial,
    enumerate_gin_candidates,
    hilbert_function,
    is_borel_fixed,
    is_saturated_in_last_variable,
    minimalize,
    monomials_of_degree,
    parse_ideal,
)
from ginalg.demo import CI_QUOTIENT_HF, J1, J2
from ginalg.subspaces import _is_borel_closed
from oracles import (
    all_exchanges_borel_closed,
    borel_closure,
    ci_three_quadrics_quotient_hf,
    hilbert_inclusion_exclusion,
    pairwise_minimal_generators,
)


def test_minimalize_examples():
    assert minimalize([(2, 0), (2, 1)], 2).gens == ((2, 0),)
    assert minimalize([], 3).gens == ()
    got = minimalize([(1, 1, 0), (0, 1, 1), (1, 1, 1)], 3)
    assert set(got.gens) == {(1, 1, 0), (0, 1, 1)}


def test_minimalize_idempotent_and_order_insensitive():
    rng = random.Random(19)
    from ginalg import monomials_of_degree

    pool = monomials_of_degree(3, 2) + monomials_of_degree(3, 3)
    for _ in range(20):
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        ideal = minimalize(gens, 3)
        assert minimalize(ideal.gens, 3) == ideal
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert minimalize(shuffled, 3) == ideal


def test_minimalize_matches_the_pairwise_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        s = data.draw(st.integers(1, 5))
        pool = [m for d in range(5) for m in monomials_of_degree(s, d)]
        gens = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        assert minimalize(gens, s).gens == pairwise_minimal_generators(gens)

    check()


def test_canonical_generator_order():
    ideal = parse_ideal("x3^4, x1*x2, x2*x3^2, x1^2, x2^2, x1*x3^2", 4)
    assert ideal == J1
    assert ideal.strings() == ["x1^2", "x1*x2", "x2^2", "x1*x3^2", "x2*x3^2", "x3^4"]


def test_contains_monomial():
    assert contains_monomial(J1, (2, 0, 0, 1))  # x1^2*x4
    assert not contains_monomial(J1, (0, 0, 3, 0))  # x3^3
    assert not contains_monomial(minimalize([], 4), (1, 0, 0, 0))


def test_hilbert_function_golden_values():
    for ideal in (J1, J2):
        assert [hilbert_function(ideal, d) for d in range(5)] == [1, 4, 7, 8, 8]
    assert hilbert_function(minimalize([], 4), 2) == 10
    assert [hilbert_function(J1, d) for d in range(7)] == ci_three_quadrics_quotient_hf(6)


def test_hilbert_matches_inclusion_exclusion_oracle():
    rng = random.Random(23)
    from ginalg import monomials_of_degree

    pool = monomials_of_degree(3, 2) + monomials_of_degree(3, 3)
    for _ in range(15):
        ideal = minimalize([rng.choice(pool) for _ in range(rng.randint(1, 4))], 3)
        for d in range(6):
            assert hilbert_function(ideal, d) == hilbert_inclusion_exclusion(ideal.gens, 3, d)


def test_is_borel_fixed():
    assert is_borel_fixed(J1)
    assert is_borel_fixed(J2)
    assert not is_borel_fixed(parse_ideal("x2^2", 2))
    assert is_borel_fixed(minimalize([], 3))


def test_borel_fixed_ideals_match_the_all_exchanges_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        s = data.draw(st.integers(1, 5))
        pool = [m for d in range(1, 5) for m in monomials_of_degree(s, d)]
        gens = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        # the ideal of a Borel-closed set is Borel-fixed; one generator less may not be
        ideal = minimalize(borel_closure(gens) if data.draw(st.booleans()) else gens, s)
        if ideal.gens and data.draw(st.booleans()):
            ideal = minimalize(set(ideal.gens) - {data.draw(st.sampled_from(ideal.gens))}, s)
        member = partial(contains_monomial, ideal)
        expected = all_exchanges_borel_closed(ideal.gens, member)
        assert _is_borel_closed(ideal.gens, member) == expected == is_borel_fixed(ideal)

    check()


def test_colon_by_last_variable():
    assert colon_by_last_variable(J1) == J1
    moved = colon_by_last_variable(parse_ideal("x1*x4", 4))
    assert moved == parse_ideal("x1", 4)
    assert moved != parse_ideal("x1*x4", 4)
    zero = minimalize([], 4)
    assert colon_by_last_variable(zero) == zero
    assert is_saturated_in_last_variable(J2)


def test_enumerate_gin_candidates_golden():
    candidates = enumerate_gin_candidates(4, CI_QUOTIENT_HF, 4)
    assert candidates == [J1, J2]
    assert candidates[0].strings() == ["x1^2", "x1*x2", "x2^2", "x1*x3^2", "x2*x3^2", "x3^4"]
    assert candidates[1].strings() == [
        "x1^2",
        "x1*x2",
        "x1*x3",
        "x2^3",
        "x2^2*x3",
        "x2*x3^2",
        "x3^4",
    ]


def test_enumerate_zero_ideal_pattern():
    pattern = [comb(d + 3, 3) for d in range(5)]  # quotient of the zero ideal
    candidates = enumerate_gin_candidates(4, pattern, 2)
    assert candidates == [minimalize([], 4)]


def test_enumerate_single_linear_generator():
    # hf(1) = 3 forces one degree-1 generator, and Borel-fixedness makes it x1
    pattern = [1, 3, 6, 10]
    candidates = enumerate_gin_candidates(4, pattern, 2)
    assert candidates == [parse_ideal("x1", 4)]


def test_enumerate_inconsistent_pattern_returns_empty():
    assert enumerate_gin_candidates(4, [1, 4, 9, 9, 9], 2) == []


@pytest.mark.parametrize("pattern", [[-1, 2], [2, 3, 3], [0, 2], [1, -1], [1, 3, -2]])
def test_enumerate_rejects_impossible_hilbert_function(pattern):
    # a quotient Hilbert function is nonnegative, with value 1 in degree 0
    with pytest.raises(ValueError, match="nonnegative with value 1 in degree 0"):
        enumerate_gin_candidates(3, pattern, 2)


def test_enumerate_candidates_self_check():
    for ideal in enumerate_gin_candidates(4, CI_QUOTIENT_HF, 4):
        assert is_borel_fixed(ideal)
        assert is_saturated_in_last_variable(ideal)
        assert all(g[-1] == 0 for g in ideal.gens)
        for d in range(6):
            assert hilbert_function(ideal, d) == (CI_QUOTIENT_HF + (8,))[min(d, 5)]


def test_parse_ideal_rejects_non_monomials():
    with pytest.raises(ValueError, match="not a monomial"):
        parse_ideal("x1 + x2", 2)
    with pytest.raises(ValueError, match="coefficient 1"):
        parse_ideal("3*x1", 2)
