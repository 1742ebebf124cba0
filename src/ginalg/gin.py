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
(`initial_after_change`) takes V as any integer rows that span it, so
`gin` runs no elimination before the trials.  It scans the columns of gV
in descending order, each from the transposed change through
A[u, m](g) = (u!/m!) A[m, u](g^T) for A = Sym^d(g): every transposed
monomial image T_m is a list mod p over the positions of its degree, built
from T_{m/x_j}, x_j the last variable of m, whose column is the shortest.  The rows are packed
across once per `gin` call, into one big integer per position, slot r
holding row r's entry (`_scan_after_changes`, which then pulls the trials'
changes and primes one at a time), so each column is one dot product of those
integers with the image, whose slots are row r's entries of the column.
The scan stops at the dim V-th independent column.  A trial of an
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
deterministic reads, which reduce every row: `ideal_graded_piece` with an exact
echelon and `initial_ideal_truncated` without a prime (the demo's Hilbert pattern,
initial ideals and witness search), the `in` subcommand and every Subspace.
"""

from __future__ import annotations

import random
from functools import cache
from math import comb, factorial, prod
from operator import mul
from typing import Collection, Iterable, Iterator

from .forms import REVLEX, Exponent, Form, Record, Row, apply_change, check_monomial_count, integer_row, monomial_key, monomial_positions
from .subspaces import (
    DEFAULT_BOUND,
    DEFAULT_TRIALS,
    CoordinateChange,
    MonomialSet,
    RowEchelon,
    _is_borel_closed,
    minimalize,
)

TRUNCATION_NOTE = "generators above dmax are not detected"

# the first 9 primes; as Miller-Rabin bases they decide primality exactly below _PSI_9,
# the least strong pseudoprime to all of them (Jaeschke 1993), which exceeds every trial prime;
# each trial prime has _PRIME_BITS bits (random_prime), so a gin call's packing precedes its draws
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
_PSI_9 = 3825123056546413051
_PRIME_BITS = 61

# largest graded piece for initial_ideal_truncated (gin_ideal_truncated of 3 generic quadrics,
# 3 trials, mod p, in process on a 2-vCPU VM, median of 5: s=5 d=5, 126 monomials, 0.019 s; s=5
# d=6, 210 monomials, 0.025 s; s=3 d=22, 276 monomials, 0.049 s, since every piece from d=4 on is full)
MAX_PIECE_MONOMIALS = 150

# most monomials of degree <= d that a column scan (_scan_after_changes) may tabulate (one row
# x1^d + ... + xs^d, 3 trials, in process on a 2-vCPU VM: s=2 d=600, 180901 monomials, 0.72 s;
# s=3 d=100, 176851, 0.55 s; s=3 d=130, 383306, 2.9 s and 125 MiB; s=3 d=400, 10.8M, past 60 s)
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
        n = rng.randrange(2 ** (_PRIME_BITS - 1) + 1, 2**_PRIME_BITS, 2)
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


@cache
def _position_tables(order: str, num_vars: int, degree: int) -> tuple[dict[int, tuple[int, int]], list[list[int]]]:
    """For degree >= 1, in monomial_positions: by position, each monomial m's last variable j,
    from the x_j * (m/x_j) written last, and the position of m/x_j, the split that `_grow` and the
    scan use (x_j's column is the shortest); for each x_j, that of x_j times each one lower."""
    below = monomial_positions(order, num_vars, degree - 1)
    here = monomial_positions(order, num_vars, degree)
    times = [[here[m[:j] + (m[j] + 1,) + m[j + 1 :]] for m in below] for j in range(num_vars)]
    return {q: (j, p) for j, at in enumerate(times) for p, q in enumerate(at)}, times


@cache
def _factorial_weights(order: str, num_vars: int, degree: int) -> list[int]:
    """u! = the product of the u_i! for each monomial u of the degree, in monomial_positions order."""
    return [prod(map(factorial, u)) for u in monomial_positions(order, num_vars, degree)]


def initial_after_change(
    rows: Iterable[Row], num_vars: int, degree: int, order: str, change: CoordinateChange, prime: int | None = None
) -> MonomialSet:
    """in(gV) for the change g and the span V of integer rows, dependent or zero ones
    allowed: initial_subspace(transform_subspace(V, change)), read from the columns of the
    moved rows without building them; with a prime, all is reduced modulo it, and the
    pivots are at most the exact ones.  Refused past MAX_SCAN_MONOMIALS monomials of
    degree at most d, which the scan would tabulate.  The scan's image bits are bits(p)
    modulo the prime, which reduces each T_m.  Exactly, T_m is a product of d columns of the
    transposed change, and the l1 norm of a product is at most the product of the factors'
    l1 norms, so its coefficients are at most L^d <= 2^(d * bits(L)), L the largest l1 norm
    of a column of the change's integer images: image bits are d * bits(L)."""
    norm = change.denominator * max(sum(map(abs, column)) for column in zip(*change.matrix))
    image_bits = prime.bit_length() if prime else degree * int(norm).bit_length()
    return next(_scan_after_changes(rows, num_vars, degree, order, [(change, prime)], image_bits))


def _scan_after_changes(
    rows: Iterable[Row],
    num_vars: int,
    degree: int,
    order: str,
    draws: Iterable[tuple[CoordinateChange, int | None]],
    image_bits: int,
) -> Iterator[MonomialSet]:
    """initial_after_change of the rows for each (change, prime) of draws, scanned as it is
    pulled.  The rows are weighted and packed once, before the first draw, for the images
    T_m of every draw, whose coefficients have at most image_bits bits (initial_after_change).

    With A = Sym^d(g) the moved rows are R*A.  Expanding (x^T g y)^d in x and in y gives
    A[u, m](g) = (u!/m!) * A[m, u](g^T), where u! is the product of the u_i!.  So column m
    of R*A, times m!, has entry sum_u R[r][u] * u! * T_m[u] in row r, where T_m is the
    image of m under the transposed substitution; a column's scale does not change the
    pivots.  Any rows that span V give the same column pivots.  The pivots of an echelon
    form are its greedy column basis: in descending order, a column is a pivot exactly
    when it is independent of the columns before it.  So the scan stops once the pivots
    number the nonzero rows, which is dim V for independent rows.  At the first dependent
    column it takes the rank of the rows (modulo the prime, if any), which bounds the
    number of pivots, and stops at that count instead.  T_m is a list over the positions
    of degree d, built on first use from T_{m/x_j}, x_j the last variable of m, in the images
    of x_j, ..., x_s only, so its column of the transposed change is the shortest.

    The rows are packed across once: at each position of the union of their supports, one
    integer whose slot r, `width` bytes wide, holds row r's entry there.  So a column is
    one dot product of the packed integers with T_m, and slot r of the sum is row r's entry
    of the column.  With half = 2^(8 width - 1) added to every slot, the entries are read
    from the bytes of the sum: a slot holds any v with |v| < half, since a negative slot
    borrows from the next one and the added half pays it back.  An entry is at most
    |support| * max|entry| * max|T_m| < 2^(bits(|support|) + entry bits + image bits) in
    absolute value, so width is the least number of bytes with
    8 width >= entry bits + image bits + bits(|support|) + 1 sign bit.
    The rows' entries are packed unreduced, since RowEchelon reduces each column modulo
    the prime on entry.  A zero sum is a zero column, which is dependent.
    """
    check_monomial_count(num_vars, degree, MAX_SCAN_MONOMIALS)
    positions = monomial_positions(order, num_vars, degree)
    weights = _factorial_weights(order, num_vars, degree)
    # each nonzero row keyed by the positions of its monomials u, its entries times u!
    weighted = [{(i := positions[u]): c * weights[i] for u, c in row.items()} for row in rows if row]
    # the packed integers, keyed by the positions of the union of the rows' supports
    packed = dict.fromkeys((i for row in weighted for i in row), 0)
    entry_bits = max((abs(c) for row in weighted for c in row.values()), default=0).bit_length()
    width = (entry_bits + image_bits + len(packed).bit_length() + 8) // 8
    half, nbytes = 1 << (8 * width - 1), width * len(weighted)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * len(weighted), "little")
    for r, row in enumerate(weighted):
        shift = 8 * width * r
        for i, c in row.items():
            packed[i] += c << shift

    def scan(columns_of: list[list[tuple[int, int]]], prime: int | None) -> MonomialSet:
        # images[k][i]: T of the monomial at position i of degree k, None until built
        images = [[[1]]] + [[None] * len(monomial_positions(order, num_vars, k)) for k in range(1, degree + 1)]

        def image_of(k: int, i: int) -> list[int]:
            # down the divisors to a built image, then up, each image from the one below: a
            # loop, so the degree is not bounded by the interpreter's recursion limit
            chain = []
            while images[k][i] is None:
                splits, times = _position_tables(order, num_vars, k)
                j, below = splits[i]
                chain.append((k, i, j, times, len(splits)))
                k, i = k - 1, below
            image = images[k][i]
            for k, i, j, times, size in reversed(chain):
                got = [0] * size
                for slot, c in columns_of[j]:
                    for q, a in zip(times[slot], image):
                        got[q] += c * a
                images[k][i] = image = got if prime is None else [v % prime for v in got]
            return image

        # a column is keyed by row index: the order serves only to test independence
        columns = RowEchelon(None, prime=prime)
        pivots: list[Exponent] = []
        rank = None
        for m, i in positions.items():
            if len(pivots) == (len(weighted) if rank is None else rank):
                break
            total = sum(map(mul, packed.values(), map(image_of(degree, i).__getitem__, packed)))
            column = {}
            if total:
                data = (total + bias).to_bytes(nbytes, "little")
                slots = (int.from_bytes(data[at : at + width], "little") - half for at in range(0, nbytes, width))
                column = {r: entry for r, entry in enumerate(slots) if entry}
            if columns.add(column):
                pivots.append(m)
            elif rank is None:
                # a dependent column: the rows may be dependent too, and their rank bounds the pivots
                rank = len(RowEchelon(None, weighted, prime).rows)
        return MonomialSet(num_vars, degree, frozenset(pivots))

    for change, prime in draws:
        if num_vars != change.num_vars:
            raise ValueError("rows and coordinate change over different variable counts")
        # column j of the change: (i, c) for each c * x_j in the image of x_i, i ascending
        columns_of = [[] for _ in range(num_vars)]
        for i, image in enumerate(change.images):
            for j, c in image:
                columns_of[j].append((i, c))
        yield scan(columns_of, prime)


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
    seeds = _trial_seeds(seed, trials)
    draws = ((random_change(num_vars, ts, bound), random_prime(ts)) for ts in seeds)
    return _report(list(_scan_after_changes(rows, num_vars, degree, order, draws, _PRIME_BITS)), order, seeds)


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
        splits = _position_tables(order, num_vars, degree - 1)[0]  # degree - 1 >= 1: a nonempty S_0 piece is full
        for pivot, row in below.items():
            for j in range(num_vars):
                at = times[j]
                product = {at[i]: c for i, c in row.items()}
                if j >= splits[pivot][0]:
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
    echelon: RowEchelon | None = None,
) -> MonomialSet:
    """in(I_d) for the ideal I generated by homogeneous gens, eliminated modulo the prime of
    `echelon`, a RowEchelon(None, prime=...), or exactly without one.

    The pieces are grown: I_d from the rows of I_{d-1} (see `_grow`), each row keyed by
    its monomials' positions in descending order, so its pivot is its smallest key.
    A nonempty `echelon` holds the rows of I_{d-1}, and an empty one is grown from the lowest
    generator degree; either is grown in place to I_d, so reads of consecutive degrees share it.
    """
    for g in gens:
        if g.num_vars != num_vars:
            raise ValueError(f"forms over different variable counts: {g.num_vars} vs {num_vars}")
    if echelon is None:
        echelon = RowEchelon(None)
    if not echelon.rows:
        for lower in range(min((g.degree for g in gens), default=degree), degree):
            _grow(echelon, gens, lower, order, num_vars)
    _grow(echelon, gens, degree, order, num_vars)
    positions = monomial_positions(order, num_vars, degree)
    return MonomialSet(num_vars, degree, frozenset(e for e, i in positions.items() if i in echelon.rows))


def _checked_gens(gens: list[Form], dmax: int) -> list[Form]:
    """The nonzero gens, refused when there are none, when they have no variable, when dmax is
    below a degree of theirs or when the piece of degree dmax is past MAX_PIECE_MONOMIALS."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    num_vars = gens[0].num_vars
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if dmax < max(g.degree for g in gens):
        raise ValueError(f"dmax {dmax} below the largest generator degree")
    if (size := comb(dmax + num_vars - 1, num_vars - 1)) > MAX_PIECE_MONOMIALS:
        raise ValueError(
            f"graded piece too large: s={num_vars}, d={dmax} has {size} monomials (limit {MAX_PIECE_MONOMIALS})"
        )
    return gens


def initial_ideal_truncated(
    gens: list[Form], dmax: int, order: str = REVLEX, prime: int | None = None
) -> dict[int, MonomialSet]:
    """in(I_d) for each degree from the lowest generator degree up to dmax, each piece grown
    from the one below in one shared echelon, which carries the prime; deterministic.  Exact
    without a prime; modulo one, each piece is at most the exact one."""
    gens = _checked_gens(gens, dmax)
    num_vars = gens[0].num_vars
    dmin = min(g.degree for g in gens)
    echelon = RowEchelon(None, prime=prime)
    return {d: ideal_graded_piece(gens, d, order, num_vars, echelon) for d in range(dmin, dmax + 1)}


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
    gens = _checked_gens(gens, dmax)  # before the draws, each O(s^2)
    num_vars = gens[0].num_vars
    seeds = _trial_seeds(seed, trials)
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
