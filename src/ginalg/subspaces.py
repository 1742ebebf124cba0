"""Canonical echelon bases for subspaces of one graded piece.

A Subspace is its canonical rows, those of the reduced echelon form: one
primitive integer row per pivot, with a positive pivot entry and a zero entry
at every other pivot.  The pivots are its initial subspace.  Divided by their
pivot entries the rows give the unique reduced echelon basis, so subspace
equality is a syntactic check.

Elimination (`RowEchelon`) is forward only.  Over the integers it is
fraction-free, with the content divided out after every row operation; the
back-substitution to canonical rows runs once, when a Subspace is built from
any rows that span it, and Fractions appear only when its `basis` is read.
Given a prime, the same elimination runs in Z/p with monic rows, and only
pivots are read from it: a Subspace always eliminates exactly.  Columns independent mod p
are independent over Q, so the pivots mod p are never larger than the exact
ones (the count of pivots among the first k monomials is a rank, and a rank
mod p is at most the rank over Q); they are equal unless p divides one fixed
nonzero k x k minor, k the rank.

Below `ideals` and `gin`, which import only this module and `forms`, it also holds what
they share: `CoordinateChange`, whose singularity test is an elimination, the Borel
order, and `MonomialIdeal` with `minimalize`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from math import comb, gcd, lcm
from typing import Iterable

from .forms import (
    REVLEX,
    Exponent,
    Form,
    Record,
    Row,
    _as_fraction,
    form_from_row,
    format_monomial,
    integer_row,
    monomial_key,
    monomials_of_degree,
    primitive,
    restriction_images,
    sort_monomials,
    sym_power,
)


class Subspace(Record):
    """A subspace of one graded piece as its canonical rows, keyed by pivot in descending
    order.  Built from any integer rows that span it, dependent, zero, unreduced or in any
    order: they are eliminated exactly under the order, then back-substituted once.
    `basis`, the rows made monic at their pivots, is built on each read."""

    __slots__ = ("num_vars", "degree", "order", "rows")

    def __init__(self, num_vars: int, degree: int, order: str, rows: Iterable[Row]):
        echelon = RowEchelon(order, rows).rows
        canonical = _back_substitute({p: echelon[p] for p in sort_monomials(order, echelon)})
        super().__init__(num_vars, degree, order, canonical)

    @property
    def basis(self) -> tuple[Form, ...]:
        return tuple(form_from_row(self.num_vars, self.degree, row, row[p]) for p, row in self.rows.items())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def leading_monomials(self) -> tuple[Exponent, ...]:
        return tuple(self.rows)

    # the rows dict cannot be hashed as Record's field tuple; equal subspaces have equal pivots
    def __hash__(self) -> int:
        return hash((self.num_vars, self.degree, self.order, tuple(self.rows)))

    def __repr__(self) -> str:
        return f"Subspace(s={self.num_vars}, d={self.degree}, order={self.order}, dim={self.dim})"


class MonomialSet(Record):
    """A set of equal-degree exponents; in(V) and gin V in one degree."""

    __slots__ = ("num_vars", "degree", "exps")

    def __len__(self) -> int:
        return len(self.exps)

    def sorted(self, order: str = REVLEX) -> list[Exponent]:
        return sort_monomials(order, self.exps)

    def strings(self, order: str = REVLEX) -> list[str]:
        return [format_monomial(e) for e in self.sorted(order)]

    def drop_last_variable(self) -> MonomialSet:
        """Delete monomials divisible by the last variable, keep the rest verbatim."""
        kept = frozenset(e[:-1] for e in self.exps if e[-1] == 0)
        return MonomialSet(self.num_vars - 1, self.degree, kept)


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _generator_key(e: Exponent) -> tuple:
    """Ascending degree, then descending revlex within a degree: the order generators are
    stored in, and compared in when candidate ideals are sorted."""
    return sum(e), tuple(-k for k in monomial_key(REVLEX, e))


class MonomialIdeal(Record):
    """Finite minimal generator set; construct through minimalize()."""

    __slots__ = ("num_vars", "gens")

    def strings(self) -> list[str]:
        return [format_monomial(e) for e in self.gens]

    def __str__(self) -> str:
        return ", ".join(self.strings()) if self.gens else "0"


def minimalize(gens, num_vars: int) -> MonomialIdeal:
    """The minimal basis: a proper divisor has lower degree, so one pass in generator
    order keeps each monomial that no kept one divides."""
    kept: list[Exponent] = []
    for m in sorted({tuple(e) for e in gens}, key=_generator_key):
        if not any(_divides(g, m) for g in kept):
            kept.append(m)
    return MonomialIdeal(num_vars, tuple(kept))


def _is_borel_closed(monomials, member) -> bool:
    """Every elementary exchange m*x_{i-1}/x_i of the monomials satisfies member.  Each
    x_i -> x_j, j < i, is a chain of them, whose links a finite set tests as members; in
    an ideal a link of g*w is (link of g)*w or g*(link of w), so generators suffice."""
    for m in monomials:
        for i in range(1, len(m)):
            if m[i] and not member(m[: i - 1] + (m[i - 1] + 1, m[i] - 1) + m[i + 1 :]):
                return False
    return True


def borel_generators(monomials) -> list[Exponent]:
    """The Borel generators of a Borel-closed set, the members m with no m*x_{i+1}/x_i in
    it: the set is the Borel closure of these, and of no fewer."""
    return [
        m
        for m in monomials
        if not any(m[i - 1] and m[: i - 1] + (m[i - 1] - 1, m[i] + 1) + m[i + 1 :] in monomials for i in range(1, len(m)))
    ]


def _cancel(row: Row, pivot_row: Row, column: Exponent) -> Row:
    """Clear row's entry at column with pivot_row, fraction-free: the primitive part
    of a*row - b*pivot_row for the coprime pair a, b that cancels the column, a > 0
    when pivot_row's entry at column is positive."""
    a, b = pivot_row[column], row[column]
    common = gcd(a, b)
    a, b = a // common, b // common
    out = dict(row) if a == 1 else {e: a * c for e, c in row.items()}
    for e, c in pivot_row.items():
        value = out.get(e, 0) - b * c
        if value:
            out[e] = value
        else:
            del out[e]
    return primitive(out)[0]


def _cancel_mod(row: dict, pivot_row: dict, column, prime: int) -> None:
    """Subtract (row[column] mod prime) * pivot_row from row in place, for a pivot_row
    monic at column.  The entries are left unreduced: each stays congruent mod prime to
    the true one, and grows by less than prime^2 per call."""
    b = row[column] % prime
    get = row.get
    for e, c in pivot_row.items():
        row[e] = get(e, 0) - b * c
    del row[column]


def _reduce(rows: dict[Exponent, Row], row: Row) -> Row:
    """The normal form of row against canonical rows with positive pivot entries, as its
    primitive positive multiple."""
    row = primitive(row)[0]
    # clearing one pivot leaves the entries at the other pivots nonzero
    for pivot in [e for e in row if e in rows]:
        row = _cancel(row, rows[pivot], pivot)
    return row


def _back_substitute(echelon: dict[Exponent, Row]) -> dict[Exponent, Row]:
    """Canonical rows of echelon rows: smallest pivot first, each row reduced against
    those already reduced, which have no entry at a larger pivot."""
    reduced: dict[Exponent, Row] = {}
    for pivot in reversed(echelon):
        reduced[pivot] = _reduce(reduced, echelon[pivot])
    return dict(reversed(reduced.items()))


class RowEchelon:
    """Forward elimination for one graded piece, over the integers or modulo a prime.

    `rows` maps each pivot to a row whose leading monomial is that pivot.  Over the
    integers a row is primitive with a positive pivot entry; modulo `prime` its
    entries lie in [0, prime) and its pivot entry is 1.  With `order` None the keys
    are positions in a descending order, so the pivot is the smallest key.  A new row
    is top-reduced and existing rows are never touched.
    """

    __slots__ = ("prime", "rows", "_pivot")

    def __init__(self, order: str | None, rows: Iterable[Row] = (), prime: int | None = None):
        self.prime = prime
        self.rows: dict = {}
        if order is None:
            self._pivot = min
        else:
            # each monomial's order key, computed the first time it is met
            self._pivot = partial(max, key=cache(partial(monomial_key, order)))
        for row in rows:
            self.add(row)

    def add(self, row: Row) -> bool:
        """Extend the span by row; False when row already lies in it."""
        prime = self.prime
        # an explicit zero entry is no entry, or it could be taken for the pivot
        if prime is None:
            row, _ = primitive({e: c for e, c in row.items() if c})
        else:
            row = {e: v for e, c in row.items() if (v := c % prime)}
        while row:
            pivot = self._pivot(row)
            if prime is not None and not row[pivot] % prime:
                # _cancel_mod leaves entries unreduced, so a leading one may be 0 mod prime
                del row[pivot]
                continue
            pivot_row = self.rows.get(pivot)
            if pivot_row is None:
                if prime is not None:
                    inverse = pow(row[pivot], -1, prime)
                    row = {e: v for e, c in row.items() if (v := c * inverse % prime)}
                elif row[pivot] < 0:
                    row = {e: -c for e, c in row.items()}
                self.rows[pivot] = row
                return True
            if prime is None:
                row = _cancel(row, pivot_row, pivot)
            else:
                _cancel_mod(row, pivot_row, pivot, prime)
        return False


# a gin's trials and the bound on a random change's entries, unless a caller gives its own
DEFAULT_TRIALS = 3
DEFAULT_BOUND = 100


class CoordinateChange(Record):
    """An invertible linear substitution x_i -> sum_j M[i][j] * x_j.  `images` is it scaled
    to integers by the common denominator D of the entries, so a degree-d image is D^d times
    the true one."""

    __slots__ = ("num_vars", "matrix", "images", "denominator")

    def __init__(self, rows: Iterable[Iterable]):
        # an int entry is kept as given: it has the numerator and denominator read below
        matrix = tuple(tuple(v if type(v) is int else _as_fraction(v) for v in row) for row in rows)
        s = len(matrix)
        if s == 0 or any(len(row) != s for row in matrix):
            raise ValueError("coordinate change matrix must be square and nonempty")
        denominator = lcm(*(v.denominator for row in matrix for v in row))
        images = tuple(
            tuple((j, v.numerator * (denominator // v.denominator)) for j, v in enumerate(row) if v) for row in matrix
        )
        # keyed so a row's pivot is its last nonzero column: a lower triangular matrix is already echelon
        if len(RowEchelon(None, [{s - 1 - j: c for j, c in image} for image in images]).rows) < s:
            raise ValueError("singular coordinate change matrix")
        super().__init__(s, matrix, images, denominator)

    def __repr__(self) -> str:
        return f"CoordinateChange({[[str(v) for v in row] for row in self.matrix]})"


def echelonize(
    forms,
    order: str = REVLEX,
    *,
    num_vars: int | None = None,
    degree: int | None = None,
) -> Subspace:
    """Reduced echelon basis of the span; canonical regardless of input order."""
    forms = list(forms)
    for f in forms:
        if num_vars is None:
            num_vars = f.num_vars
        elif f.num_vars != num_vars:
            raise ValueError("mixed variable counts in echelonize input")
        if f.is_zero():
            continue
        if degree is None:
            degree = f.degree
        elif f.degree != degree:
            raise ValueError(f"mixed degrees in echelonize input: {degree} and {f.degree}")
    if num_vars is None or degree is None:
        raise ValueError("echelonize needs num_vars and degree when no nonzero form is given")
    return Subspace(num_vars, degree, order, (integer_row(f)[0] for f in forms))


def initial_subspace(space: Subspace) -> MonomialSet:
    """The leading monomials of the echelon basis; |in(V)| = dim V."""
    return MonomialSet(space.num_vars, space.degree, frozenset(space.leading_monomials()))


def contains(space: Subspace, f: Form) -> bool:
    if f.num_vars != space.num_vars:
        raise ValueError("form and subspace over different variable counts")
    if not f.is_zero() and f.degree != space.degree:
        raise ValueError(f"degree mismatch: form has {f.degree}, subspace has {space.degree}")
    return not _reduce(space.rows, integer_row(f)[0])


def transform_subspace(space: Subspace, change: CoordinateChange) -> Subspace:
    if space.num_vars != change.num_vars:
        raise ValueError("subspace and coordinate change over different variable counts")
    rows = sym_power(list(space.rows.values()), change.images, space.num_vars)
    return Subspace(space.num_vars, space.degree, space.order, rows)


def restrict_subspace(space: Subspace, linear: Form) -> Subspace:
    """Image of the subspace in the quotient by the hyperplane linear = 0."""
    images, _ = restriction_images(linear, space.num_vars)
    rows = sym_power(list(space.rows.values()), images, space.num_vars - 1)
    return Subspace(space.num_vars - 1, space.degree, space.order, rows)


def random_form(rng: random.Random, num_vars: int, degree: int, bound: int) -> Form:
    """Integer coefficients drawn uniformly from [-bound, bound] on every monomial,
    redrawn until the form is nonzero."""
    if bound < 1:
        # bound 0 draws only the zero form, and the redraw would loop forever
        raise ValueError("bound must be at least 1")
    monomials = monomials_of_degree(num_vars, degree)
    if not monomials:
        raise ValueError(f"no monomial of degree {degree} in {num_vars} variables")
    while True:
        terms = {e: Fraction(rng.randint(-bound, bound)) for e in monomials}
        if any(terms.values()):
            return Form(num_vars, degree, terms)


def random_subspace(
    num_vars: int,
    degree: int,
    dim: int,
    seed: int,
    bound: int = 10,
    order: str = REVLEX,
) -> Subspace:
    """Span of dim random forms, re-drawn until independent; deterministic in seed."""
    ambient = comb(degree + num_vars - 1, num_vars - 1)
    if not 0 <= dim <= ambient:
        raise ValueError(f"dim {dim} out of range 0..{ambient}")
    rng = random.Random(seed)
    echelon = RowEchelon(order)
    while len(echelon.rows) < dim:
        echelon.add(integer_row(random_form(rng, num_vars, degree, bound))[0])
    return Subspace(num_vars, degree, order, echelon.rows.values())

