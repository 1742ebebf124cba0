"""Ideal pieces grown from the degree below, against the from-scratch construction.

`ideal_graded_piece` spans I_d by x_j times the echelon rows of I_{d-1} plus the
generators of degree d; `scratch_ideal_graded_piece` eliminates every shift x^a * g.
Both span I_d over Q and over F_p for any prime p, so their pivots agree exactly and
modulo every prime.  A product x_j * row with j at least the last variable of the row's
pivot is multiplicative: those land on distinct pivots and are stored with no
elimination, and once a piece is all of S_d nothing more is built.  Modulo a prime the
other rows of a degree are folded into random combinations, one RowEchelon.add each, until
enough of them in a row reduce to zero.
"""

import random
from math import comb
from pathlib import Path

import pytest

from ginalg import (
    REVLEX,
    Form,
    apply_change,
    ideal_graded_piece,
    initial_ideal_truncated,
    monomials_of_degree,
    parse_form,
    random_change,
    random_form,
)
from ginalg import gin as gin_module
from ginalg import subspaces
from ginalg.forms import LEX, ORDER_NAMES
from ginalg.gin import MAX_PIECE_MONOMIALS, random_prime
from ginalg.subspaces import RowEchelon
from oracles import scratch_ideal_graded_piece

FIXTURE = Path(__file__).parent / "fixtures" / "j2_revlex_witness.txt"
PRIME = random_prime(5)


def _sparse_form(rng, s, d, density=0.5, bound=9):
    terms = {e: rng.randint(-bound, bound) for e in monomials_of_degree(s, d) if rng.random() < density}
    return Form(s, d, terms)


def _fixture():
    lines = FIXTURE.read_text().splitlines()
    return [parse_form(line, 4) for line in lines if line and not line.startswith(("#", "s="))]


def _last(m):
    return max(i for i, e in enumerate(m) if e)


def _times(m, j):
    return tuple(e + (i == j) for i, e in enumerate(m))


def _assert_grown_equals_scratch(gens, dmax, order, s, prime):
    pieces = initial_ideal_truncated(gens, dmax, order, prime)
    nonzero = [g for g in gens if not g.is_zero()]
    assert sorted(pieces) == list(range(min(g.degree for g in nonzero), dmax + 1))
    for d, piece in pieces.items():
        assert piece == scratch_ideal_graded_piece(gens, d, order, s, prime), (order, d, prime)
    # a standalone read grows its own echelon from the lowest generator degree
    assert ideal_graded_piece(gens, dmax, order, s, RowEchelon(None, prime=prime)) == pieces[dmax]


@pytest.mark.parametrize("order", ORDER_NAMES)
@pytest.mark.parametrize("s", [3, 4, 5])
def test_grown_pieces_equal_the_scratch_construction(order, s):
    rng = random.Random(100 * s + len(order))
    gens = [random_form(rng, s, 2, 100) for _ in range(3)]
    for prime in (None, PRIME):
        _assert_grown_equals_scratch(gens, 4 if s < 5 else 3, order, s, prime)


@pytest.mark.parametrize("order", ORDER_NAMES)
def test_a_generator_above_the_lowest_degree_enters_its_own_piece(order):
    rng = random.Random(7 + len(order))
    quadric, cubic = random_form(rng, 4, 2, 9), _sparse_form(rng, 4, 3)
    for prime in (None, PRIME, 2):
        _assert_grown_equals_scratch([quadric, cubic], 5, order, 4, prime)
    # the cubic adds pivots that x_j * quadric does not reach
    assert len(ideal_graded_piece([quadric, cubic], 3, order, 4)) > len(ideal_graded_piece([quadric], 3, order, 4))


@pytest.mark.parametrize("order", ORDER_NAMES)
def test_zero_generators_change_no_piece(order):
    rng = random.Random(11 + len(order))
    gens = [_sparse_form(rng, 3, 2), _sparse_form(rng, 3, 3, density=0.4)]
    with_zeros = [Form(3, 1, {}), *gens, Form(3, 3, {})]
    for prime in (None, PRIME):
        _assert_grown_equals_scratch(with_zeros, 5, order, 3, prime)
        for d in range(1, 6):
            want = scratch_ideal_graded_piece(gens, d, order, 3, prime)
            assert ideal_graded_piece(with_zeros, d, order, 3, RowEchelon(None, prime=prime)) == want


@pytest.mark.parametrize("order", ORDER_NAMES)
def test_grown_pieces_of_the_witness_fixture(order):
    gens = _fixture()
    for prime in (None, PRIME, 3):
        _assert_grown_equals_scratch(gens, 6, order, 4, prime)


def test_the_witness_fixture_is_not_stable_under_lex():
    """Under lex its in(I_3) is not stable: one monomial of S_1 * in(I_3) is no
    multiplicative product, so a non-multiplicative product supplies it."""
    pieces = initial_ideal_truncated(_fixture(), 4, LEX)
    below = pieces[3].exps
    multiplicative = {_times(m, j) for m in below for j in range(_last(m), 4)}
    every = {_times(m, j) for m in below for j in range(4)}
    assert multiplicative < every <= pieces[4].exps


def test_grown_pieces_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def generators(draw):
        s = draw(st.integers(2, 4))
        degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        gens = []
        for d in degrees:
            monomials = monomials_of_degree(s, d)
            terms = draw(st.dictionaries(st.sampled_from(monomials), st.integers(-6, 6), max_size=4))
            gens.append(Form(s, d, terms))
        return s, gens

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(generators(), st.sampled_from(ORDER_NAMES), st.sampled_from([None, 2, 5, PRIME]))
    def check(case, order, prime):
        s, gens = case
        hypothesis.assume(any(not g.is_zero() for g in gens))
        dmax = 5 if s < 4 else 4
        _assert_grown_equals_scratch(gens, dmax, order, s, prime)

    check()


def test_zero_tests_past_the_regularity_property():
    """Dense generators of mixed degrees d_i, grown modulo 2, 3 and 61-bit primes to one
    degree past sum(d_i - 1) + 1, the regularity of a complete intersection of those
    degrees, equal the scratch construction.  Under revlex and a 61-bit prime the top piece
    is the multiplicative products of the one below: every other product reduced to zero."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def generators(draw):
        s = draw(st.integers(4, 5))
        degrees = sorted(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
        dmax = sum(d - 1 for d in degrees) + 2
        hypothesis.assume(comb(dmax + s - 1, s - 1) <= MAX_PIECE_MONOMIALS)
        rng = random.Random(draw(st.integers(0, 2**32)))
        return s, [random_form(rng, s, d, 100) for d in degrees], dmax

    primes = st.one_of(st.sampled_from([2, 3]), st.builds(random_prime, st.integers(0, 99)))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(generators(), st.sampled_from(ORDER_NAMES), primes)
    def check(case, order, prime):
        s, gens, dmax = case
        _assert_grown_equals_scratch(gens, dmax, order, s, prime)
        if order == REVLEX and prime > 3:
            # in generic coordinates the piece below is stable, so its multiplicative products fill the top
            pieces = initial_ideal_truncated(gens, dmax, order, prime)
            assert pieces[dmax].exps == {_times(m, j) for m in pieces[dmax - 1].exps for j in range(_last(m), s)}

    check()


def test_a_failed_zero_test_keeps_its_residual(monkeypatch):
    """Under lex the witness fixture's in(I_4) has monomials that no multiplicative product
    reaches, so zero tests of degree 4 fail and each residual is kept as a new row, until
    one test reduces to zero."""
    gens = _fixture()
    echelon = RowEchelon(None, prime=PRIME)
    below = [ideal_graded_piece(gens, d, LEX, 4, echelon) for d in (2, 3)][-1]
    added = []
    add = RowEchelon.add

    def recording(self, row):
        added.append(add(self, row))
        return added[-1]

    monkeypatch.setattr(RowEchelon, "add", recording)
    piece = ideal_graded_piece(gens, 4, LEX, 4, echelon)
    placed = {_times(m, j) for m in below.exps for j in range(_last(m), 4)}
    assert len(piece) > len(placed)
    assert added == [True] * (len(piece) - len(placed)) + [False]
    assert piece == scratch_ideal_graded_piece(gens, 4, LEX, 4, PRIME)


def test_a_shared_echelon_is_grown_in_place():
    rng = random.Random(3)
    gens = [random_form(rng, 4, 2, 9) for _ in range(3)]
    for prime in (None, PRIME):
        echelon = RowEchelon(None, prime=prime)
        for d in range(2, 6):
            standalone = ideal_graded_piece(gens, d, REVLEX, 4, RowEchelon(None, prime=prime))
            assert ideal_graded_piece(gens, d, REVLEX, 4, echelon) == standalone
            assert len(echelon.rows) == len(scratch_ideal_graded_piece(gens, d, REVLEX, 4, prime))


def test_an_empty_echelon_is_grown_from_the_lowest_generator_degree():
    """An empty echelon passed above the lowest generator degree holds no rows of I_{d-1}, so
    the piece is grown from that degree up, as a fresh read is: 3 generic quadrics in s=4
    span 27 monomials of degree 4, exactly and modulo a prime."""
    rng = random.Random(3)
    gens = [random_form(rng, 4, 2, 100) for _ in range(3)]
    for prime in (None, PRIME):
        echelon = RowEchelon(None, prime=prime)
        piece = ideal_graded_piece(gens, 4, REVLEX, 4, echelon=echelon)
        assert len(piece) == len(echelon.rows) == 27
        assert piece == initial_ideal_truncated(gens, 4, REVLEX, prime)[4]
        assert piece == scratch_ideal_graded_piece(gens, 4, REVLEX, 4, prime)


def _counted(monkeypatch):
    """Counters of RowEchelon.add and _cancel_mod calls."""
    counts = {"add": 0, "cancel": 0}
    add, cancel = RowEchelon.add, subspaces._cancel_mod

    def counting_add(self, row):
        counts["add"] += 1
        return add(self, row)

    def counting_cancel(*args):
        counts["cancel"] += 1
        return cancel(*args)

    monkeypatch.setattr(RowEchelon, "add", counting_add)
    monkeypatch.setattr(subspaces, "_cancel_mod", counting_cancel)
    return counts


def _per_degree(monkeypatch, counts):
    """{degree: (piece size, RowEchelon.add calls)} of every later ideal_graded_piece call;
    a degree read twice fails."""
    per_degree = {}
    piece = gin_module.ideal_graded_piece

    def recording(*args, **kwargs):
        before = counts["add"]
        result = piece(*args, **kwargs)
        assert args[1] not in per_degree, f"degree {args[1]} read twice"
        per_degree[args[1]] = (len(result), counts["add"] - before)
        return result

    monkeypatch.setattr(gin_module, "ideal_graded_piece", recording)
    return per_degree


def test_multiplicative_products_are_placed_with_no_elimination(monkeypatch):
    """3 generic quadrics at s=5, dmax 5, moved and reduced as a gin-ideal trial: the grown
    pass cancels less than the scratch one, and the non-multiplicative products and the
    generators go through RowEchelon.add only as random combinations."""
    s, dmax = 5, 5
    rng = random.Random(1)
    change = random_change(s, 4)
    gens = [apply_change(random_form(rng, s, 2, 100), change) for _ in range(3)]
    counts = _counted(monkeypatch)
    per_degree = _per_degree(monkeypatch, counts)
    pieces = initial_ideal_truncated(gens, dmax, REVLEX, PRIME)
    grown = dict(counts)
    counts.update(add=0, cancel=0)
    for d in range(2, dmax + 1):
        assert scratch_ideal_graded_piece(gens, d, REVLEX, s, PRIME) == pieces[d]
    assert 0 < grown["cancel"] < counts["cancel"]
    # one add per combination tested: one per pivot that no multiplicative product places,
    # and the one zero test that a 61-bit prime needs to end the degree
    placed = {d + 1: sum(s - _last(m) for m in pieces[d].exps) for d in range(2, dmax)}
    tested = {d: len(pieces[d]) - placed.get(d, 0) + 1 for d in range(2, dmax + 1)}
    assert grown["add"] == sum(tested.values())
    assert {d: adds for d, (_, adds) in per_degree.items()} == tested
    # past the regularity, 4, every product of degree 5 is in the span of the placed ones
    assert tested[5] == 1
    # and they land on distinct pivots of the piece above
    for d in range(2, dmax):
        landed = {_times(m, j) for m in pieces[d].exps for j in range(_last(m), s)}
        assert len(landed) == sum(s - _last(m) for m in pieces[d].exps) and landed <= pieces[d + 1].exps


def test_no_product_is_built_once_a_piece_is_full(monkeypatch):
    """3 generic quadrics in s=3 fill S_d from d=4 on; every later piece is all of S_d
    and runs no elimination."""
    rng = random.Random(2)
    gens = [random_form(rng, 3, 2, 100) for _ in range(3)]
    counts = _counted(monkeypatch)
    per_degree = _per_degree(monkeypatch, counts)
    pieces = initial_ideal_truncated(gens, 14, REVLEX, PRIME)
    full = [d for d, (size, _) in per_degree.items() if size == len(monomials_of_degree(3, d))]
    assert full == list(range(4, 15))
    assert [adds for d, (_, adds) in per_degree.items() if d > 4] == [0] * 10
    for d in (4, 5, 14):
        assert pieces[d] == scratch_ideal_graded_piece(gens, d, REVLEX, 3, PRIME)
