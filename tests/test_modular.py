"""Elimination modulo a prime, where only pivots are read.

A gin trial eliminates modulo a 61-bit prime of its own.  With such a prime
the pivots are the exact ones; with any prime they are never larger, in the
comparison `gin._report` maximizes and elementwise in the Gale order, so a
slip only makes a trial smaller.  The prime is drawn by rejection sampling
and checked by deterministic Miller-Rabin.
"""

import hashlib
import random

import pytest

from ginalg import (
    REVLEX,
    echelonize,
    gin_ideal_truncated,
    gin_subspace,
    initial_after_change,
    initial_ideal_truncated,
    monomial_key,
    monomials_of_degree,
    parse_form,
    random_change,
    random_form,
    random_subspace,
)
from ginalg import gin as gin_module
from ginalg.forms import ORDER_NAMES, apply_change
from ginalg.gin import is_prime, random_prime
from ginalg.subspaces import RowEchelon
from oracles import spanning_args


def _key(order, pivots):
    """Pivots sorted descending under the order, as `gin._report` compares them."""
    return sorted((monomial_key(order, e) for e in pivots), reverse=True)


def _never_larger(order, modular, exact):
    """modular <= exact lexicographically, and its i-th largest pivot is at most exact's."""
    low, high = _key(order, modular), _key(order, exact)
    return low <= high and len(low) <= len(high) and all(a <= b for a, b in zip(low, high))


def _rows(data, st, monomials):
    """Integer rows over the monomials, with no zero entry, some of them combinations
    of the others."""
    entry = st.integers(-30, 30).filter(bool)
    rows = data.draw(st.lists(st.dictionaries(st.sampled_from(monomials), entry), min_size=1, max_size=8))
    if len(rows) > 1:
        a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
        combined = {e: a * rows[0].get(e, 0) + b * rows[1].get(e, 0) for e in set(rows[0]) | set(rows[1])}
        rows.append({e: c for e, c in combined.items() if c})
    return rows


def test_modular_pivots_equal_exact_for_a_61_bit_prime():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        s, d = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
        order = data.draw(st.sampled_from(ORDER_NAMES))
        rows = _rows(data, st, monomials_of_degree(s, d))
        prime = random_prime(data.draw(st.integers(0, 2**32 - 1)))
        exact = RowEchelon(order, rows)
        modular = RowEchelon(order, rows, prime=prime)
        assert set(modular.rows) == set(exact.rows)
        for pivot, row in modular.rows.items():
            assert row[pivot] == 1 and all(0 < c < prime for c in row.values())

    check()


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_small_prime_pivots_are_never_larger(prime):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        s, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        order = data.draw(st.sampled_from(ORDER_NAMES))
        rows = _rows(data, st, monomials_of_degree(s, d))
        exact = RowEchelon(order, rows).rows
        modular = RowEchelon(order, rows, prime=prime).rows
        assert _never_larger(order, modular, exact)

    check()


def test_miller_rabin_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    assert [n for n in range(2000) if is_prime(n)] == list(sympy.primerange(2000))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(2**59, 2**60 - 1))
    def check(half):
        n = 2 * half + 1  # odd and of 61 bits
        assert is_prime(n) == sympy.isprime(n)

    check()
    # 2000 of the candidates a trial prime is drawn from, all below psi_9, where the test uses 9 bases
    rng = random.Random(61)
    candidates = [rng.randrange(2**60 + 1, 2**61, 2) for _ in range(2000)]
    assert [is_prime(n) for n in candidates] == [sympy.isprime(n) for n in candidates]


# psi_t, the least strong pseudoprime to the first t prime bases, t = 1..9 (Jaeschke 1993)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321, 341550071728321,
        3825123056546413051)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _strong_probable_prime(n, a):
    odd, twos = n - 1, 0
    while not odd & 1:
        odd, twos = odd >> 1, twos + 1
    x = pow(a, odd, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, twos))


def test_miller_rabin_rejects_strong_pseudoprimes():
    # psi_t passes the first t bases, and the test rejects it up to psi_8; psi_9 passes all
    # 9 bases the test has, so from it on the test refuses to decide
    for t, psi in enumerate(_PSI, start=1):
        assert all(_strong_probable_prime(psi, a) for a in _BASES[:t])
    for psi in _PSI[:-1]:
        assert not is_prime(psi)
    assert is_prime(2**61 - 1) and not is_prime(1_000_000_007**2)
    with pytest.raises(ValueError):
        is_prime(_PSI[-1])


def test_random_prime_contract():
    primes = [random_prime(seed) for seed in range(100)]
    assert primes == [random_prime(seed) for seed in range(100)]
    # the draws of seeds 0-99, pinned as the sha256 of their decimal list
    digest = hashlib.sha256(",".join(map(str, primes)).encode()).hexdigest()
    assert digest == "cc63eea51b8c953df48dba3aee9a37d205a04c9d5504cd4c1188e75b7eabbb3f"
    assert all(2**60 <= p < 2**61 and is_prime(p) for p in primes)
    assert len(set(primes)) == len(primes)
    # the prime has a stream of its own: drawing it leaves the coordinate change as it was
    before = random_change(4, 9)
    random_prime(9)
    assert random_change(4, 9) == before


def test_modular_column_scan_matches_exact():
    rng = random.Random(41)
    for order in ORDER_NAMES:
        for s, d, dim in [(3, 2, 3), (4, 3, 8), (5, 4, 20)]:
            space = random_subspace(s, d, dim, seed=rng.getrandbits(32), order=order)
            for seed in range(3):
                change = random_change(s, rng.getrandbits(32))
                modular = initial_after_change(*spanning_args(space), change, random_prime(seed))
                assert modular == initial_after_change(*spanning_args(space), change)


def _exact_gin(space, seeds, bound):
    outcomes = [initial_after_change(*spanning_args(space), random_change(space.num_vars, ts, bound)) for ts in seeds]
    return gin_module._report(outcomes, space.order, seeds)


@pytest.mark.parametrize("order", ORDER_NAMES)
def test_gin_subspace_modulo_2_is_at_most_the_exact_gin(order, monkeypatch):
    spaces = [
        random_subspace(4, 3, 8, seed=5, order=order),
        random_subspace(3, 4, 6, seed=6, bound=2, order=order),
        echelonize([parse_form("x1*x2 + x3^2", 3), parse_form("x2^2 - 3*x1*x3", 3)], order),
    ]
    exact = [_exact_gin(space, gin_module._trial_seeds(7, 3), 2) for space in spaces]
    monkeypatch.setattr(gin_module, "random_prime", lambda seed: 2)
    for space, want in zip(spaces, exact):
        got = gin_subspace(*spanning_args(space), trials=3, seed=7, bound=2)
        assert got.seeds == want.seeds
        assert _never_larger(order, got.result.exps, want.result.exps)


@pytest.mark.parametrize("order", ORDER_NAMES)
def test_gin_ideal_modulo_2_is_at_most_the_exact_gin(order, monkeypatch):
    rng = random.Random(47 + len(order))
    gens = [random_form(rng, 4, 2, 9) for _ in range(3)]
    seeds = gin_module._trial_seeds(11, 3)
    exact_trials = []
    for ts in seeds:
        change = random_change(4, ts)
        exact_trials.append(initial_ideal_truncated([apply_change(g, change) for g in gens], 4, order))
    monkeypatch.setattr(gin_module, "random_prime", lambda seed: 2)
    report = gin_ideal_truncated(gens, 4, order, trials=3, seed=11)
    for d, piece in report.per_degree.items():
        want = gin_module._report([trial[d] for trial in exact_trials], order, seeds)
        assert _never_larger(order, piece.result.exps, want.result.exps)
