"""Generic initial subspaces and truncated generic initial ideals.

Genericity is probabilistic: each trial applies an independent random lower
unitriangular integer change x_i -> x_i + sum_{j<i} L[i][j] x_j
(`random_change`, which says why these suffice) and recomputes the initial
subspace.  A dense open set of changes yields the true gin and every other
change a smaller one, so the largest trial is reported; unanimous trials are
strong evidence; disagreement is surfaced in the report, never hidden.

A gin trial reads only pivots, never rows, so it works modulo a prime p of
its own: `random_prime` draws p uniformly from the primes in [2^60, 2^61),
from a stream seeded by the trial seed alone.  A trial of a subspace
(`subspaces.initial_after_change`) takes V as any integer rows that span
it, so `gin` runs no elimination before the trials.  It scans the columns
of gV in descending order, each from the transposed change through
A[u, m](g) = (u!/m!) A[m, u](g^T) for A = Sym^d(g): every transposed
monomial image is a list mod p over the positions of its degree, built
from one a degree lower through cached position tables.  The rows are packed
across once per `gin` call, into one big integer per position, slot r
holding row r's entry (`subspaces._scan_after_changes`, which takes all the
trials' changes and primes at once), so each column is one dot product of
those integers with the image, whose slots are row r's entries of the
column.  The scan stops at the dim V-th independent column.  A trial of an
ideal grows each degree's piece from the one below (`ideal_graded_piece`):
x_j times the echelon rows of I_{d-1} and the moved generators of degree d
span I_d, and the Pommaret multiplicative products among them are stored
with no elimination.  The others are not reduced one by one: random combinations of them are, until
enough in a row reduce to zero (`_grow`).  Past the regularity that is one
reduction per degree for a trial's prime, not one per product.

Columns independent mod p are independent over Q, so a trial is never
larger than the exact in(gV), and equals it unless p divides one fixed
nonzero k x k minor of the moved rows (k = dim V, or dim I_d per degree).
A nonzero integer of B bits has at most B/60 prime factors above 2^60, and
about 2.7e16 primes lie in [2^60, 2^61), so a trial slips with probability
at most (B/60)/2.7e16, B the minor's Hadamard bit bound (the sum of the
log2 of its rows' Euclidean norms).  The zero tests of an ideal's piece
add one term: they end early with probability at most (k+1) * 2^-60 per
degree, k = dim I_d.  A slip or an early end only makes a trial smaller,
which the maximum estimator already tolerates: the one-sided property
holds unconditionally.  What reads rows stays exact, and so do the
deterministic reads, which reduce every row: `ideal_graded_piece` and
`initial_ideal_truncated` without a prime (the demo's Hilbert pattern,
initial ideals and witness search), the `in` subcommand and every Subspace.
"""

from __future__ import annotations

import random
from functools import cache
from math import comb
from typing import Collection

from .forms import REVLEX, Form, Record, Row, apply_change, integer_row, monomial_key, monomial_positions
from .subspaces import (
    DEFAULT_BOUND,
    DEFAULT_TRIALS,
    CoordinateChange,
    MonomialSet,
    RowEchelon,
    _is_borel_closed,
    _position_tables,
    _scan_after_changes,
    minimalize,
)

TRUNCATION_NOTE = "generators above dmax are not detected"

# the first 9 primes; as Miller-Rabin bases they decide primality exactly below _PSI_9,
# the least strong pseudoprime to all of them (Jaeschke 1993), which exceeds every trial prime
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
_PSI_9 = 3825123056546413051

# largest graded piece for initial_ideal_truncated (gin_ideal_truncated of 3 generic quadrics,
# 3 trials, mod p, in process on a 2-vCPU VM, median of 5: s=5 d=5, 126 monomials, 0.019 s; s=5
# d=6, 210 monomials, 0.025 s; s=3 d=22, 276 monomials, 0.049 s, since every piece from d=4 on is full)
MAX_PIECE_MONOMIALS = 150

# most monomials of degree <= d that a trial of gin_subspace may tabulate (one row x1^d + ... + xs^d,
# 3 trials, in process on a 2-vCPU VM: s=2 d=600, 180901 monomials, 0.72 s; s=3 d=100, 176851,
# 0.55 s; s=3 d=130, 383306, 2.9 s and 125 MiB; s=3 d=400, 10.8M, past 60 s)
MAX_SCAN_MONOMIALS = 300_000


class GinReport(Record):
    """gin V in one degree: the largest trial outcome (`result`, a MonomialSet), the trial
    count, how many trials reached it, the trial seeds and whether it is stable."""

    __slots__ = ("result", "trials", "agreements", "seeds", "stable")

    def to_dict(self) -> dict:
        return {
            "result": self.result.strings(),
            "trials": self.trials,
            "agreements": self.agreements,
            "stable": self.stable,
            "seeds": list(self.seeds),
        }


def random_change(num_vars: int, seed: int, bound: int = DEFAULT_BOUND) -> CoordinateChange:
    """x_i -> x_i + sum_{j<i} L[i][j] * x_j, L's s(s-1)/2 entries uniform in [-bound, bound]:
    lower unitriangular, so invertible.  An upper triangular U moves no initial monomial under
    an order with x1 > ... > xs, and a generic change factors as L U, so gin V = in(L V) for a
    generic L (Galligo 1974; Eisenbud, GTM 150, 15.9).  A trial misses gin V with probability
    at most k*d/(2*bound+1), k = dim V: Schwartz-Zippel on a k x k minor of degree <= k*d."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if num_vars < 1:
        # CoordinateChange refuses an empty matrix; name the cause instead
        raise ValueError("need at least one variable")
    rng = random.Random(seed)
    return CoordinateChange(
        [[rng.randint(-bound, bound) if j < i else int(j == i) for j in range(num_vars)] for i in range(num_vars)]
    )


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 9 prime bases, for n below _PSI_9."""
    if n >= _PSI_9:
        raise ValueError(f"{n} is beyond the range the prime test decides")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    odd, twos = n - 1, 0
    while not odd & 1:
        odd, twos = odd >> 1, twos + 1
    for a in _WITNESSES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(seed: int) -> int:
    """A prime uniform among those in [2^60, 2^61), deterministic in seed: odd numbers of
    the range are drawn from a stream of the seed's own until one is prime."""
    rng = random.Random(f"prime:{seed}")
    while True:
        n = rng.randrange(2**60 + 1, 2**61, 2)
        if is_prime(n):
            return n


def _trial_seeds(seed: int, trials: int) -> tuple[int, ...]:
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    return tuple(rng.getrandbits(32) for _ in range(trials))


def _report(outcomes: list[MonomialSet], order: str, seeds: tuple[int, ...]) -> GinReport:
    """The largest outcome: in(gV) <= gin V for every g, comparing pivots sorted descending
    under the order lexicographically.  Stable when every trial reaches it and it is
    Borel-closed, as a characteristic-0 gin is (Bayer-Stillman)."""
    winner = max(outcomes, key=lambda o: [monomial_key(order, e) for e in o.sorted(order)])
    agreements = outcomes.count(winner)
    stable = agreements == len(outcomes) and _is_borel_closed(winner.exps, winner.exps.__contains__)
    return GinReport(winner, len(outcomes), agreements, seeds, stable)


def gin_subspace(
    rows: Collection[Row],
    num_vars: int,
    degree: int,
    order: str,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    bound: int = DEFAULT_BOUND,
) -> GinReport:
    """Initial subspace of the span V of integer rows after a random change, repeated over
    independent trials.  Any rows that span V give the same report, so none is eliminated.

    Each trial computes only the pivots of the moved subspace, from its columns through
    the transposed change, modulo the trial's prime; the moved rows are never built.
    """
    # a trial tabulates the monomials of every degree up to d
    count = comb(degree + num_vars, num_vars)
    if count > MAX_SCAN_MONOMIALS:
        raise ValueError(
            f"too many monomials: s={num_vars} has {count} of degree at most {degree} (limit {MAX_SCAN_MONOMIALS})"
        )
    seeds = _trial_seeds(seed, trials)
    draws = [(random_change(num_vars, ts, bound), random_prime(ts)) for ts in seeds]
    return _report(_scan_after_changes(rows, num_vars, degree, order, draws), order, seeds)


@cache
def _last_variables(order: str, num_vars: int, degree: int) -> list[int]:
    """For each monomial of the degree, in monomial_positions order, the index of the last
    variable dividing it (0 for 1)."""
    return [max((j for j, e in enumerate(m) if e), default=0) for m in monomial_positions(order, num_vars, degree)]


def _grow(echelon: RowEchelon, gens: list[Form], degree: int, order: str, num_vars: int) -> None:
    """Replace echelon's rows of I_{degree-1} by rows of I_degree, both keyed by position.

    I_degree is spanned by x_j times the rows below and the generators of that degree.  A
    product whose j is at least the last variable of its row's pivot m is multiplicative:
    its pivot is x_j * m, and no two such products share one, so they are stored with no
    elimination.  Exactly, the other products and the new generators are top-reduced one
    by one.  Modulo a prime p, random combinations of them are top-reduced instead,
    coefficients uniform in [0, p) from a stream seeded by p and the degree, so a trial
    replays exactly.  A nonzero residual lies in I_degree and is kept; the degree ends
    after ceil(60 / (bits of p - 1)) zero residuals in a row, one for a 61-bit trial
    prime, or once the piece is full.  While the
    span is short of I_degree a combination falls in it with probability at most 1/p, so
    the piece misses a pivot with probability at most (k+1) * 2^-60, k = dim I_degree, and
    is never larger than the echelon of every row mod p; otherwise their pivots are equal,
    since a span has one pivot set.  Once a piece is all of S_d, so is every later one, and
    its rows are the unit rows.
    """
    below = echelon.rows
    positions = monomial_positions(order, num_vars, degree)
    if below and len(below) == len(monomial_positions(order, num_vars, degree - 1)):
        echelon.rows = {i: {i: 1} for i in range(len(positions))}
        return
    rows: dict = {}
    later: list[dict] = []
    if below:
        times = _position_tables(order, num_vars, degree)[1]
        last = _last_variables(order, num_vars, degree - 1)
        for pivot, row in below.items():
            for j in range(num_vars):
                at = times[j]
                product = {at[i]: c for i, c in row.items()}
                if j >= last[pivot]:
                    rows[at[pivot]] = product
                else:
                    later.append(product)
    echelon.rows = rows
    for g in gens:
        if g.degree == degree:
            later.append({positions[e]: c for e, c in integer_row(g)[0].items()})
    prime = echelon.prime
    if prime is None:
        for row in later:
            echelon.add(row)
        return
    tests = -(-60 // (prime.bit_length() - 1))
    rng = random.Random(f"grow:{prime}:{degree}")
    zeros = 0
    while zeros < tests and len(echelon.rows) < len(positions):
        combination = [0] * len(positions)
        for row in later:
            r = rng.randrange(prime)
            for i, c in row.items():
                combination[i] += r * c
        zeros = 0 if echelon.add({i: c for i, c in enumerate(combination) if c}) else zeros + 1


def ideal_graded_piece(
    gens: list[Form],
    degree: int,
    order: str,
    num_vars: int,
    prime: int | None = None,
    echelon: RowEchelon | None = None,
) -> MonomialSet:
    """in(I_d) for the ideal I generated by homogeneous gens, eliminated exactly, or modulo
    prime when one is given.

    The pieces are grown: I_d from the rows of I_{d-1} (see `_grow`), each row keyed by
    its monomials' positions in descending order, so its pivot is its smallest key.
    `echelon`, a RowEchelon(None, prime=prime), holds the rows of I_{d-1} (none below the
    lowest generator degree) and is grown in place to I_d, so reads of consecutive degrees
    share it; without it the pieces are grown from the lowest generator degree.
    """
    for g in gens:
        if g.num_vars != num_vars:
            raise ValueError(f"forms over different variable counts: {g.num_vars} vs {num_vars}")
    if echelon is None:
        echelon = RowEchelon(None, prime=prime)
        for lower in range(min((g.degree for g in gens), default=degree), degree):
            _grow(echelon, gens, lower, order, num_vars)
    elif echelon.prime != prime:
        raise ValueError("the echelon and the piece are over different primes")
    _grow(echelon, gens, degree, order, num_vars)
    positions = monomial_positions(order, num_vars, degree)
    return MonomialSet(num_vars, degree, frozenset(e for e, i in positions.items() if i in echelon.rows))


def initial_ideal_truncated(
    gens: list[Form], dmax: int, order: str = REVLEX, prime: int | None = None
) -> dict[int, MonomialSet]:
    """in(I_d) for each degree up to dmax, each piece grown from the one below in one
    shared echelon; deterministic.  Exact without a prime; modulo one, each piece is at
    most the exact one."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    num_vars = gens[0].num_vars
    dmin = min(g.degree for g in gens)
    if dmax < max(g.degree for g in gens):
        raise ValueError(f"dmax {dmax} below the largest generator degree")
    size = comb(dmax + num_vars - 1, num_vars - 1)
    if size > MAX_PIECE_MONOMIALS:
        raise ValueError(
            f"graded piece too large: s={num_vars}, d={dmax} has {size} monomials (limit {MAX_PIECE_MONOMIALS})"
        )
    echelon = RowEchelon(None, prime=prime)
    return {d: ideal_graded_piece(gens, d, order, num_vars, prime, echelon) for d in range(dmin, dmax + 1)}


class GinIdealReport(Record):
    """The truncated gin as a MonomialIdeal, a GinReport per degree, the trial count and
    seeds, whether every degree is stable and dmax; `note` states the truncation."""

    __slots__ = ("ideal", "per_degree", "trials", "seeds", "stable", "dmax")
    note = TRUNCATION_NOTE

    def to_dict(self) -> dict:
        return {
            "generators": self.ideal.strings(),
            "per_degree": {str(d): r.to_dict() for d, r in sorted(self.per_degree.items())},
            "trials": self.trials,
            "stable": self.stable,
            "seeds": list(self.seeds),
            "dmax": self.dmax,
            "note": self.note,
        }


def gin_ideal_truncated(
    gens: list[Form],
    dmax: int,
    order: str = REVLEX,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    bound: int = DEFAULT_BOUND,
) -> GinIdealReport:
    """Minimal generators of the gin of (gens), truncated at dmax.

    One coordinate change and one prime are shared across all degrees within a
    trial; the transformed generators span the same graded pieces as the
    transformed ideal, so the change is applied to the generators once.
    """
    seeds = _trial_seeds(seed, trials)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    num_vars = gens[0].num_vars
    per_trial: list[dict[int, MonomialSet]] = []
    for ts in seeds:
        change = random_change(num_vars, ts, bound)
        moved = [apply_change(g, change) for g in gens]
        per_trial.append(initial_ideal_truncated(moved, dmax, order, random_prime(ts)))
    degrees = sorted(per_trial[0])
    per_degree = {d: _report([trial[d] for trial in per_trial], order, seeds) for d in degrees}
    stable = all(r.stable for r in per_degree.values())
    union = [e for d in degrees for e in per_degree[d].result.exps]
    ideal = minimalize(union, num_vars)
    return GinIdealReport(ideal, per_degree, trials, seeds, stable, dmax)
