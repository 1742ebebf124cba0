"""The integer-row kernel against the Form-arithmetic reference in oracles.py.

Substitution (`apply_change`, `restrict`, `transform_subspace`,
`restrict_subspace`), elimination (`echelonize`, `reduce_form`) and the
spanning rows of `ideal_graded_piece` must give exactly the reference
results: reduced echelon form is unique, so bases compare for equality.
"""

import random
from fractions import Fraction

import pytest

from ginalg import (
    CoordinateChange,
    apply_change,
    Form,
    echelonize,
    ideal_graded_piece,
    monomials_of_degree,
    random_form,
    random_subspace,
    reduce_form,
    restrict,
    restrict_subspace,
    transform_subspace,
)
from ginalg.forms import ORDER_NAMES
from oracles import (
    oracle_apply_change,
    oracle_echelonize,
    oracle_ideal_graded_piece,
    oracle_random_subspace,
    oracle_reduce,
    oracle_restrict,
)

CASES = [(order, s) for order in ORDER_NAMES for s in (3, 4, 5)]


def _sparse_form(rng, s, d, bound=6, density=0.5):
    terms = {
        e: Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
        for e in monomials_of_degree(s, d)
        if rng.random() < density
    }
    return Form(s, d, terms)


def _change(rng, s, rational):
    while True:
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4) if rational else 1) for _ in range(s)]
            for _ in range(s)
        ]
        try:
            return CoordinateChange(rows)
        except ValueError:
            continue


def _linear(rng, s):
    h = random_form(rng, s, 1, 5)
    while h.is_zero():
        h = random_form(rng, s, 1, 5)
    return h * Fraction(1, rng.randint(1, 4))


def _independent_and_dependent(rng, s, d, count):
    """count random forms, then combinations of them, zero forms and rescalings."""
    forms = [_sparse_form(rng, s, d) for _ in range(count)]
    extra = [
        forms[0] * Fraction(-3, 2),
        forms[0] + forms[-1] * 5 if count > 1 else forms[0],
        Form.zero(s, d),
        Form.zero(s, 0),  # a zero form of another degree is ignored
    ]
    return forms + extra


@pytest.mark.parametrize("order,s", CASES)
def test_echelonize_matches_reference(order, s):
    rng = random.Random(1000 * s + len(order))
    for d in (2, 3):
        forms = _independent_and_dependent(rng, s, d, 4 + s)
        expected = oracle_echelonize(forms, order, s, d)
        assert echelonize(forms, order, num_vars=s, degree=d) == expected
        for _ in range(3):
            shuffled = forms[:]
            rng.shuffle(shuffled)
            scaled = [f * Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 7)) for f in shuffled]
            assert echelonize(scaled, order, num_vars=s, degree=d) == expected


@pytest.mark.parametrize("order,s", CASES)
def test_reduce_form_matches_reference(order, s):
    rng = random.Random(2000 * s + len(order))
    space = echelonize([_sparse_form(rng, s, 2) for _ in range(s)], order, num_vars=s, degree=2)
    for _ in range(4):
        f = _sparse_form(rng, s, 2, density=0.8)
        assert reduce_form(space, f) == oracle_reduce(f, list(space.basis), order)
    assert reduce_form(space, space.basis[0] * Fraction(7, 3)).is_zero()


@pytest.mark.parametrize("order,s", CASES)
@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_transform_subspace_matches_reference(order, s, rational):
    rng = random.Random(3000 * s + len(order) + rational)
    d = 3 if s < 5 else 2
    space = echelonize([_sparse_form(rng, s, d) for _ in range(s + 1)], order, num_vars=s, degree=d)
    change = _change(rng, s, rational)
    moved = [oracle_apply_change(f, change) for f in space.basis]
    assert [apply_change(f, change) for f in space.basis] == moved
    assert transform_subspace(space, change) == oracle_echelonize(moved, order, s, d)


@pytest.mark.parametrize("order,s", CASES)
def test_restrict_subspace_matches_reference(order, s):
    rng = random.Random(4000 * s + len(order))
    d = 3 if s < 5 else 2
    space = echelonize([_sparse_form(rng, s, d) for _ in range(s + 2)], order, num_vars=s, degree=d)
    for linear in (_linear(rng, s), _linear(rng, s), Form.variable(s, s), Form.variable(s, 1) * 3):
        restricted = [oracle_restrict(f, linear) for f in space.basis]
        assert [restrict(f, linear) for f in space.basis] == restricted
        assert restrict_subspace(space, linear) == oracle_echelonize(restricted, order, s - 1, d)


@pytest.mark.parametrize("order,s", CASES)
def test_ideal_graded_piece_matches_reference(order, s):
    rng = random.Random(5000 * s + len(order))
    gens = [_sparse_form(rng, s, 2, density=0.4) for _ in range(2)] + [_sparse_form(rng, s, 3, density=0.3)]
    for d in (2, 3, 4 if s < 5 else 3):
        assert ideal_graded_piece(gens, d, order, s) == oracle_ideal_graded_piece(gens, d, order, s)


@pytest.mark.parametrize("order,s", CASES)
def test_basis_is_the_monic_reference_basis(order, s):
    """`basis` is built from the rows only when read; it must be the reference's
    monic forms, in descending pivot order."""
    rng = random.Random(6000 * s + len(order))
    d = 3 if s < 5 else 2
    forms = _independent_and_dependent(rng, s, d, s + 1)
    space = echelonize(forms, order, num_vars=s, degree=d)
    change = _change(rng, s, rational=True)
    linear = _linear(rng, s)
    gens = forms[:2]
    cases = [
        (space, oracle_echelonize(forms, order, s, d)),
        (
            transform_subspace(space, change),
            oracle_echelonize([oracle_apply_change(f, change) for f in space.basis], order, s, d),
        ),
        (
            restrict_subspace(space, linear),
            oracle_echelonize([oracle_restrict(f, linear) for f in space.basis], order, s - 1, d),
        ),
        (ideal_graded_piece(gens, d + 1, order, s), oracle_ideal_graded_piece(gens, d + 1, order, s)),
    ]
    for got, reference in cases:
        # the reference rows are integer_row of its monic forms; dividing by
        # the pivot entry in Form arithmetic recovers those forms
        monic = [Form(reference.num_vars, reference.degree, row) / row[p] for p, row in reference.rows.items()]
        assert list(got.basis) == monic
        assert got.basis is got.basis
        assert [f.terms[p] for f, p in zip(got.basis, got.leading_monomials())] == [1] * got.dim


@pytest.mark.parametrize("seed", range(6))
def test_random_subspace_matches_from_scratch_construction(seed):
    s, d = 3 + seed % 3, 2 + seed % 2
    dim = 1 + (7 * seed) % 8
    order = ORDER_NAMES[seed % 3]
    assert random_subspace(s, d, dim, seed=seed, bound=2, order=order) == oracle_random_subspace(
        s, d, dim, seed=seed, bound=2, order=order
    )


def test_echelon_canonical_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    monomials = monomials_of_degree(3, 2)
    form = st.lists(coeff, min_size=len(monomials), max_size=len(monomials)).map(
        lambda cs: Form(3, 2, dict(zip(monomials, cs)))
    )

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        st.lists(form, min_size=1, max_size=5),
        st.sampled_from(ORDER_NAMES),
        st.randoms(use_true_random=False),
    )
    def check(forms, order, rng):
        expected = oracle_echelonize(forms, order, 3, 2)
        shuffled = forms[:]
        rng.shuffle(shuffled)
        scaled = [f * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for f in shuffled]
        assert echelonize(scaled, order, num_vars=3, degree=2) == expected

    check()
