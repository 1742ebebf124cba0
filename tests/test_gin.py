import random
from math import comb

import pytest

from ginalg import (
    MIXED,
    REVLEX,
    CoordinateChange,
    Form,
    echelonize,
    full_graded_piece,
    gin_ideal_truncated,
    gin_subspace,
    hilbert_function,
    ideal_graded_piece,
    initial_after_change,
    initial_ideal_truncated,
    is_borel_fixed,
    make_instance,
    minimalize,
    monomial_key,
    monomials_of_degree,
    parse_form,
    parse_ideal,
    random_change,
    random_form,
    random_subspace,
    restriction_commutation_check,
    transform_subspace,
)
from ginalg import gin as gin_module
from ginalg.forms import ORDER_NAMES
from ginalg.ideals import colon_by_last_variable


def F(text, s):
    return parse_form(text, s)


def test_random_change_contract():
    assert random_change(3, seed=4).matrix == random_change(3, seed=4).matrix
    assert random_change(3, seed=4).matrix != random_change(3, seed=5).matrix
    for seed in range(20):
        random_change(2, seed=seed, bound=1)  # invertible by construction, never raises
    single = random_change(1, seed=0)
    assert single.matrix[0][0] != 0


def test_gin_of_linear_form_times_s1():
    linear = F("x1 + x2", 2)
    space = echelonize([F("x1", 2) * linear, F("x2", 2) * linear])
    report = gin_subspace(space, trials=3, seed=1)
    assert report.stable
    assert report.result.exps == {(2, 0), (1, 1)}


def test_gin_of_full_graded_piece_is_itself():
    space = full_graded_piece(2, 2)
    report = gin_subspace(space, trials=3, seed=0)
    assert report.stable and report.result.exps == {(2, 0), (1, 1), (0, 2)}


def test_gin_of_three_generic_quadrics_degree_two():
    rng = random.Random(2)
    quadrics = [random_form(rng, 4, 2, 100) for _ in range(3)]
    space = echelonize(quadrics, num_vars=4, degree=2)
    report = gin_subspace(space, trials=3, seed=2)
    assert report.stable
    assert report.result.exps == {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)}


def test_gin_cardinality_and_invariance():
    for seed in range(6):
        V = random_subspace(3, 3, 4, seed=seed)
        base = gin_subspace(V, trials=3, seed=seed)
        assert len(base.result) == V.dim
        moved = transform_subspace(V, random_change(3, seed=900 + seed))
        again = gin_subspace(moved, trials=3, seed=seed + 50)
        if base.stable and again.stable:
            assert base.result == again.result


def test_gin_report_determinism():
    V = random_subspace(3, 2, 3, seed=7)
    a = gin_subspace(V, trials=3, seed=5, bound=50)
    b = gin_subspace(V, trials=3, seed=5, bound=50)
    assert a == b and a.seeds == b.seeds
    assert a.agreements <= a.trials and a.stable == (a.agreements == a.trials)


def test_no_trial_exceeds_the_reported_gin():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def key(result, order):
        # pivots sorted descending under the order, compared lexicographically
        return [monomial_key(order, e) for e in result.sorted(order)]

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        s = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(1, 3))
        order = data.draw(st.sampled_from(ORDER_NAMES))
        # sparse forms and small changes, so that trials often disagree
        monomial = st.sampled_from(monomials_of_degree(s, d))
        terms = st.dictionaries(monomial, st.sampled_from([-1, 1]), min_size=1, max_size=2)
        forms = [Form(s, d, t) for t in data.draw(st.lists(terms, min_size=1, max_size=6))]
        space = echelonize(forms, order, num_vars=s, degree=d)
        seed, bound = data.draw(st.integers(0, 999)), data.draw(st.integers(1, 2))
        report = gin_subspace(space, trials=4, seed=seed, bound=bound)
        outcomes = [initial_after_change(space, random_change(s, ts, bound)) for ts in report.seeds]
        assert all(key(o, order) <= key(report.result, order) for o in outcomes)
        assert report.agreements == outcomes.count(report.result)
        if report.stable:
            assert report.agreements == 4 and is_borel_fixed(minimalize(report.result.exps, s))

    check()


def test_unanimous_gin_that_is_not_borel_fixed_is_unstable(monkeypatch):
    # with every trial the identity, all trials agree on in(V) = {x2^2}, which no
    # characteristic-0 gin can be: x1^2 = (x1/x2)*x2^2 is missing
    monkeypatch.setattr(gin_module, "random_change", lambda n, ts, bound: CoordinateChange.identity(n))
    report = gin_subspace(echelonize([F("x2^2", 2)]), trials=3, seed=0)
    assert report.agreements == 3 and report.result.strings() == ["x2^2"]
    assert not report.stable


def test_gin_ideal_three_quadrics_matches_first_candidate():
    from ginalg import J1

    rng = random.Random(3)
    quadrics = [random_form(rng, 4, 2, 100) for _ in range(3)]
    report = gin_ideal_truncated(quadrics, 4, REVLEX, trials=3, seed=3)
    assert report.stable
    assert report.ideal == J1
    assert report.note  # the truncation caveat travels with the result


def test_mixed_order_truncated_initial_ideal_matches_second_candidate():
    from ginalg import J2

    rng = random.Random(4)
    quadrics = [random_form(rng, 4, 2, 100) for _ in range(3)]
    per_degree = initial_ideal_truncated(quadrics, 4, MIXED)
    ideal = minimalize([e for ms in per_degree.values() for e in ms.exps], 4)
    assert ideal == J2
    # the randomized variant agrees: generic position is preserved by generic changes
    report = gin_ideal_truncated(quadrics, 4, MIXED, trials=3, seed=4)
    assert report.stable and report.ideal == J2


def test_gin_ideal_principal_square():
    report = gin_ideal_truncated([F("x1^2", 3)], 3, REVLEX, trials=3, seed=0)
    assert report.stable
    assert report.ideal == parse_ideal("x1^2", 3)
    # per-degree results are exactly the graded pieces of (x1^2)
    principal = parse_ideal("x1^2", 3)
    for d, piece in report.per_degree.items():
        from ginalg.ideals import ideal_monomials_of_degree

        assert piece.result.exps == set(ideal_monomials_of_degree(principal, d))


def test_gin_ideal_dmax_too_small():
    with pytest.raises(ValueError, match="dmax"):
        gin_ideal_truncated([F("x1^2", 3), F("x2^3", 3)], 2, REVLEX)


def test_gin_ideal_hilbert_compatibility_and_structure():
    rng = random.Random(6)
    quadrics = [random_form(rng, 4, 2, 100) for _ in range(3)]
    report = gin_ideal_truncated(quadrics, 4, REVLEX, trials=3, seed=6)
    assert report.stable
    for d, piece in report.per_degree.items():
        source_dim = ideal_graded_piece(quadrics, d, REVLEX, 4).dim
        assert len(piece.result) == source_dim
        assert comb(d + 3, 3) - source_dim == hilbert_function(report.ideal, d)
    assert is_borel_fixed(report.ideal)
    assert colon_by_last_variable(report.ideal) == report.ideal


def test_commutation_check_full_piece():
    space = full_graded_piece(3, 2)
    report = restriction_commutation_check(space, trials=3, seed=0)
    assert report.equal
    assert report.restricted_gin.exps == set(
        e for e in report.restricted_gin.exps
    ) and len(report.restricted_gin) == comb(2 + 1, 1)


def test_commutation_check_on_planted_instance():
    V, _, _ = make_instance(4, 3, 1, 1, seed=5)
    report = restriction_commutation_check(V, trials=3, seed=55)
    assert report.stable and report.equal


def test_commutation_check_random_sweep():
    # the operation's contract: equality on all stable trials
    count = 0
    for seed in range(15):
        dim = 1 + seed % 9
        V = random_subspace(3, 3, dim, seed=300 + seed)
        report = restriction_commutation_check(V, trials=3, seed=seed)
        if report.stable:
            assert report.equal, (seed, report.to_dict())
            count += 1
    assert count >= 12  # instability should be rare


def test_commutation_check_requires_revlex():
    from ginalg import LEX

    V = echelonize([F("x1^2", 3)], LEX)
    with pytest.raises(ValueError, match="revlex"):
        restriction_commutation_check(V)
