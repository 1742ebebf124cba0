"""Sympy's Groebner basis as an oracle for the pieces of an ideal, independent of the
package's linear algebra.

The leading monomials of a Groebner basis of I generate in(I), so in every degree d the
monomials of degree d that one of them divides span in(I)_d.  Sympy's "grevlex" with the
variables x1, ..., xs in that order is this package's revlex.  The exact pieces that
`initial_ideal_truncated` grows must equal those, and the pieces grown modulo a trial
prime must be no larger.
"""

from math import comb

import pytest

from ginalg import REVLEX, Form, apply_change, initial_ideal_truncated, monomials_of_degree, random_change
from ginalg.gin import MAX_PIECE_MONOMIALS, random_prime

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _largest_dmax(s):
    """The largest dmax whose piece the ideal pieces' guard accepts in s variables."""
    dmax = 0
    while comb(dmax + s, s - 1) <= MAX_PIECE_MONOMIALS:
        dmax += 1
    return dmax


def _groebner_pieces(gens, s, dmax):
    xs = sympy.symbols(f"x1:{s + 1}")
    basis = sympy.groebner([sympy.Poly.from_dict(dict(g.terms), *xs) for g in gens], *xs, order="grevlex")
    leading = [p.monoms(order="grevlex")[0] for p in basis.polys]
    return {
        d: {m for m in monomials_of_degree(s, d) if any(all(a >= b for a, b in zip(m, lm)) for lm in leading)}
        for d in range(dmax + 1)
    }


@st.composite
def _moved_generators(draw):
    s = draw(st.integers(2, 5))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        monomials = draw(st.lists(st.sampled_from(monomials_of_degree(s, d)), min_size=1, max_size=3, unique=True))
        gens.append(Form(s, d, {m: draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for m in monomials}))
    change = random_change(s, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1, 3, 100])))
    return s, [apply_change(g, change) for g in gens]


def test_ideal_pieces_match_sympy_groebner_leading_monomials():
    @hypothesis.settings(max_examples=12, deadline=None, derandomize=True)
    @hypothesis.given(_moved_generators(), st.integers(0, 99))
    def check(case, prime_seed):
        s, moved = case
        dmax = _largest_dmax(s)
        oracle = _groebner_pieces(moved, s, dmax)
        exact = initial_ideal_truncated(moved, dmax)
        modular = initial_ideal_truncated(moved, dmax, REVLEX, random_prime(prime_seed))
        assert set(exact) == set(modular) == set(range(min(g.degree for g in moved), dmax + 1))
        for d, piece in exact.items():
            assert piece.exps == oracle[d]
            assert len(modular[d]) <= len(piece)

    check()
