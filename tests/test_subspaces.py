import random
from fractions import Fraction
from math import comb

import pytest

from ginalg import (
    REVLEX,
    CoordinateChange,
    Form,
    Subspace,
    contains,
    echelonize,
    initial_subspace,
    monomials_of_degree,
    parse_form,
    random_form,
    random_subspace,
    restrict_subspace,
    transform_subspace,
)
from ginalg.forms import ORDER_NAMES
from ginalg.subspaces import RowEchelon
from oracles import scale


def F(text, s):
    return parse_form(text, s)


def test_echelonize_elimination():
    space = echelonize([F("x1^2 + x2^2", 2), F("x2^2", 2)])
    assert [f for f in space.basis] == [F("x1^2", 2), F("x2^2", 2)]


def test_echelonize_dependence():
    f = F("2*x1*x3 - 4*x2^2", 3)
    space = echelonize([f, scale(f, 2)])
    assert space.dim == 1
    assert space.basis[0] == F("x2^2 - 1/2*x1*x3", 3)  # monic at the revlex pivot


def test_echelonize_leading_monomials():
    space = echelonize([F("x1*x3 - x2^2", 3), F("x1^2", 3)])
    assert set(space.leading_monomials()) == {(2, 0, 0), (0, 2, 0)}


def test_echelonize_mixed_degrees():
    with pytest.raises(ValueError, match="mixed degrees"):
        echelonize([F("x1", 2), F("x1^2", 2)])


def test_echelonize_canonical_under_shuffle_and_scale():
    rng = random.Random(3)
    base = [F("x1^2 + x2*x3", 3), F("x1*x2 - x3^2", 3), F("x2^2 + 2*x3^2", 3)]
    reference = echelonize(base)
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        scaled = [scale(f, Fraction(rng.randint(1, 5), rng.randint(1, 5))) for f in shuffled]
        again = echelonize(scaled)
        assert again == reference
        assert again.basis == reference.basis  # bit-equal canonical form


def test_subspace_rows_in_any_pivot_order():
    descending = Subspace(2, 1, REVLEX, [{(1, 0): 1}, {(0, 1): 1}])
    ascending = Subspace(2, 1, REVLEX, [{(0, 1): 1}, {(1, 0): 1}])
    assert ascending == descending and hash(ascending) == hash(descending)
    # unreduced echelon rows, smallest pivot first
    unreduced = Subspace(2, 1, REVLEX, [{(0, 1): 1}, {(1, 0): 1, (0, 1): 1}])
    assert unreduced.rows == descending.rows
    assert unreduced == descending and hash(unreduced) == hash(descending)
    # a repeated row, a zero row and a combination of the others span nothing more
    x, y = {(1, 0, 0): 2, (0, 1, 0): -3, (0, 0, 1): 1}, {(1, 0, 0): 1, (0, 1, 0): 5}
    combination = {(1, 0, 0): 4, (0, 1, 0): -19, (0, 0, 1): 3}  # 3x - 2y
    reference = Subspace(3, 1, REVLEX, [x, y])
    assert reference.dim == 2
    for rows in ([x, x, y], [{}, y, x], [x, combination], [combination, {}, y, x, y]):
        spanned = Subspace(3, 1, REVLEX, rows)
        assert spanned.rows == reference.rows and list(spanned.rows) == list(reference.rows)
        assert spanned == reference and hash(spanned) == hash(reference)


def test_explicit_zero_entries_are_no_entries():
    """A row's explicit 0 is never its pivot: rows with zeros eliminate to the same echelon
    rows, pivots and Subspace as the rows without them, exactly, under every order."""
    example = Subspace(2, 1, REVLEX, [{(1, 0): 0, (0, 1): 1}, {(0, 1): 2}])
    assert example.dim == 1 and example.basis == (F("x2", 2),)
    rng = random.Random(5)
    for order in ORDER_NAMES:
        for _ in range(40):
            s, d = rng.randint(1, 3), rng.randint(1, 3)
            monomials = monomials_of_degree(s, d)
            rows = [
                {e: rng.randint(-2, 2) for e in rng.sample(monomials, rng.randint(0, len(monomials)))}
                for _ in range(rng.randint(1, 4))
            ]
            cleaned = [{e: c for e, c in row.items() if c} for row in rows]
            assert RowEchelon(order, rows).rows == RowEchelon(order, cleaned).rows
            spanned, reference = Subspace(s, d, order, rows), Subspace(s, d, order, cleaned)
            assert spanned == reference and spanned.leading_monomials() == reference.leading_monomials()
            assert spanned.basis == reference.basis


def test_initial_subspace():
    assert initial_subspace(echelonize([F("x1^2", 2), F("x1*x2", 2)])).exps == {(2, 0), (1, 1)}
    assert initial_subspace(echelonize([F("x1*x3 - x2^2", 3)])).exps == {(0, 2, 0)}
    full = echelonize([Form(3, 2, {e: 1}) for e in monomials_of_degree(3, 2)])
    assert initial_subspace(full).exps == set(monomials_of_degree(3, 2))


def test_initial_subspace_cardinality_is_dim():
    for seed in range(10):
        space = random_subspace(3, 3, 1 + seed % 8, seed=seed)
        assert len(initial_subspace(space)) == space.dim


def test_contains():
    space = echelonize([F("x1^2", 2), F("x2^2", 2)])
    assert contains(space, F("3*x1^2 - x2^2", 2))
    assert not contains(space, F("x1*x2", 2))
    assert contains(space, Form(2, 2, {}))
    with pytest.raises(ValueError, match="degree mismatch"):
        contains(space, F("x1^3", 2))


def test_monotonicity_of_initial_subspace():
    for seed in range(8):
        big = random_subspace(3, 3, 5, seed=seed)
        small = echelonize(big.basis[:3], num_vars=3, degree=3)
        assert all(contains(big, f) for f in small.basis)
        assert initial_subspace(small).exps <= initial_subspace(big).exps


def test_transform_subspace():
    space = echelonize([F("x1^2", 2)])
    assert transform_subspace(space, CoordinateChange([[1, 0], [0, 1]])) == space
    swap = CoordinateChange([[0, 1], [1, 0]])
    assert transform_subspace(space, swap) == echelonize([F("x2^2", 2)])
    rng = random.Random(11)
    for seed in range(6):
        V = random_subspace(3, 2, 3, seed=seed)
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        try:
            change = CoordinateChange(rows)
        except ValueError:
            continue
        assert transform_subspace(V, change).dim == V.dim


def test_restrict_subspace():
    space = echelonize([F("x1*x4", 4), F("x2^2", 4)])
    restricted = restrict_subspace(space, F("x4", 4))
    assert restricted.dim == 1 and restricted.basis[0] == F("x2^2", 3)
    space = echelonize([F("x1^2", 3), F("x1*x2", 3)])
    assert restrict_subspace(space, F("x3", 3)).dim == 2


def test_revlex_restriction_identity():
    # in(V|_{x_s=0}) = in(V)|_{x_s=0}, a sample; the full sweep runs in acceptance
    for seed in range(25):
        s, d = 3 + seed % 2, 2 + seed % 2
        dim = 1 + seed % comb(d + s - 1, s - 1)
        V = random_subspace(s, d, dim, seed=100 + seed)
        lhs = initial_subspace(restrict_subspace(V, F(f"x{s}", s)))
        rhs = initial_subspace(V).drop_last_variable()
        assert lhs == rhs


def test_random_subspace_contract():
    assert random_subspace(3, 2, 0, seed=1).dim == 0
    assert random_subspace(3, 2, 6, seed=1).dim == 6  # full graded piece
    assert random_subspace(3, 2, 3, seed=9) == random_subspace(3, 2, 3, seed=9)
    assert random_subspace(3, 2, 3, seed=9) != random_subspace(3, 2, 3, seed=10)
    with pytest.raises(ValueError, match="out of range"):
        random_subspace(3, 2, 7, seed=0)


def test_random_form_is_never_zero():
    # one monomial and bound 1: a single draw is zero with probability 1/3
    for seed in range(200):
        assert not random_form(random.Random(seed), 1, 1, 1).is_zero()


def test_random_form_is_the_first_nonzero_draw():
    # coefficients are drawn on the monomials in descending revlex, as the callers replay them
    rng, replay = random.Random(3), random.Random(3)
    for _ in range(50):
        f = random_form(rng, 2, 1, 1)
        draw = [0, 0]
        while not any(draw):
            draw = [replay.randint(-1, 1) for _ in range(2)]
        assert [f.terms.get(e, 0) for e in monomials_of_degree(2, 1)] == draw


def test_random_form_without_monomials_raises():
    with pytest.raises(ValueError, match="no monomial of degree 2 in 0 variables"):
        random_form(random.Random(0), 0, 2, 5)
