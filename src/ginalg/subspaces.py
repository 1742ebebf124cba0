"""Canonical echelon bases for subspaces of one graded piece.

A Subspace keeps its pivots, which are its initial subspace, and the rows
of an echelon form: one primitive integer row per pivot, with a positive
pivot entry.  Its canonical rows, those of the reduced echelon form, have a
zero entry at every other pivot; divided by their pivot entries they give
the unique reduced echelon basis, so subspace equality is a syntactic check.

Elimination (`RowEchelon`) is forward only and fraction-free, with the
content divided out after every row operation.  The back-substitution to
canonical rows runs once, when a Subspace's `rows` are first read.
Fractions appear only when its `basis` is read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from math import comb, factorial, gcd, prod
from operator import mul
from typing import Iterable

from .forms import (
    REVLEX,
    CoordinateChange,
    Exponent,
    Form,
    LinearImages,
    Row,
    _monomial_image,
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


class Subspace:
    """A subspace of one graded piece, from echelon rows (canonical or not) that map each pivot
    to its primitive integer row.  The pivots are kept in descending order; `rows` (canonical)
    and `basis` (monic at each pivot) are built on first read and kept."""

    __slots__ = ("num_vars", "degree", "order", "_pivots", "_echelon", "_rows", "_basis")

    def __init__(self, num_vars: int, degree: int, order: str, rows: dict[Exponent, Row]):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_pivots", tuple(sort_monomials(order, rows)))
        object.__setattr__(self, "_echelon", {p: rows[p] for p in self._pivots})
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def rows(self) -> dict[Exponent, Row]:
        if self._rows is None:
            object.__setattr__(self, "_rows", _back_substitute(self._echelon))
            object.__setattr__(self, "_echelon", None)
        return self._rows

    @property
    def basis(self) -> tuple[Form, ...]:
        if self._basis is None:
            basis = tuple(form_from_row(self.num_vars, self.degree, row, row[p]) for p, row in self.rows.items())
            object.__setattr__(self, "_basis", basis)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def leading_monomials(self) -> tuple[Exponent, ...]:
        return self._pivots

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.num_vars == other.num_vars
            and self.degree == other.degree
            and self.order == other.order
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.degree, self.order, self._pivots))

    def __repr__(self) -> str:
        return f"Subspace(s={self.num_vars}, d={self.degree}, order={self.order}, dim={self.dim})"


@dataclass(frozen=True)
class MonomialSet:
    """A set of equal-degree exponents; in(V) and gin V in one degree."""

    num_vars: int
    degree: int
    exps: frozenset

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


def _cancel(row: Row, pivot_row: Row, column: Exponent) -> tuple[Row, int, int]:
    """Clear row's entry at column with pivot_row, fraction-free.

    Returns (r, a, g) where g*r = a*row - b*pivot_row for the coprime pair
    a, b that cancels the column, and r is primitive.
    """
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
    out, content = primitive(out)
    return out, a, content


def _reduce(rows: dict[Exponent, Row], row: Row) -> tuple[Row, Fraction]:
    """The residue of row against echelon rows and its factor: a primitive
    residue equal to factor * (row minus its part in their span)."""
    row, den = primitive(row)
    num = 1
    # clearing one pivot leaves the entries at the other pivots nonzero
    pivots = [e for e in row if e in rows]
    for pivot in pivots:
        row, a, content = _cancel(row, rows[pivot], pivot)
        num, den = num * a, den * content
    return row, Fraction(num, den)


def _back_substitute(echelon: dict[Exponent, Row]) -> dict[Exponent, Row]:
    """Canonical rows of echelon rows: smallest pivot first, each row reduced against
    those already reduced, which have no entry at a larger pivot."""
    reduced: dict[Exponent, Row] = {}
    for pivot in reversed(echelon):
        reduced[pivot] = _reduce(reduced, echelon[pivot])[0]
    return dict(reversed(reduced.items()))


class RowEchelon:
    """Forward fraction-free elimination for one graded piece.

    `rows` maps each pivot to a primitive integer row whose leading monomial
    under the order is that pivot and whose entry there is positive.  A new
    row is top-reduced and existing rows are never touched.
    """

    __slots__ = ("order", "rows", "_key")

    def __init__(self, order: str, rows: Iterable[Row] = ()):
        self.order = order
        self.rows: dict[Exponent, Row] = {}
        # each monomial's order key, computed the first time it is met
        self._key = cache(partial(monomial_key, order))
        for row in rows:
            self.add(row)

    def add(self, row: Row) -> bool:
        """Extend the span by row; False when row already lies in it."""
        row, _ = primitive(row)
        while row:
            pivot = max(row, key=self._key)
            pivot_row = self.rows.get(pivot)
            if pivot_row is None:
                if row[pivot] < 0:
                    row = {e: -c for e, c in row.items()}
                self.rows[pivot] = row
                return True
            row = _cancel(row, pivot_row, pivot)[0]
        return False

    def subspace(self, num_vars: int, degree: int) -> Subspace:
        return Subspace(num_vars, degree, self.order, self.rows)


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
    return RowEchelon(order, (integer_row(f)[0] for f in forms)).subspace(num_vars, degree)


def initial_subspace(space: Subspace) -> MonomialSet:
    """The leading monomials of the echelon basis; |in(V)| = dim V."""
    return MonomialSet(space.num_vars, space.degree, frozenset(space.leading_monomials()))


def _residue(space: Subspace, f: Form) -> tuple[Row, Fraction]:
    """The residue row of f against the space and its factor: residue = factor * normal form."""
    if f.num_vars != space.num_vars:
        raise ValueError("form and subspace over different variable counts")
    if not f.is_zero() and f.degree != space.degree:
        raise ValueError(f"degree mismatch: form has {f.degree}, subspace has {space.degree}")
    row, scale = integer_row(f)
    residue, factor = _reduce(space.rows, row)
    return residue, scale * factor


def reduce_form(space: Subspace, f: Form) -> Form:
    """Normal form of f against the echelon basis."""
    residue, factor = _residue(space, f)
    return form_from_row(f.num_vars, f.degree, residue, factor)


def contains(space: Subspace, f: Form) -> bool:
    return not _residue(space, f)[0]


def _span_of_images(space: Subspace, images: LinearImages, num_vars: int) -> Subspace:
    """Echelon rows of the images of the rows under a substitution onto num_vars variables."""
    rows = sym_power(list(space.rows.values()), images, num_vars)
    return RowEchelon(space.order, rows).subspace(num_vars, space.degree)


def transform_subspace(space: Subspace, change: CoordinateChange) -> Subspace:
    if space.num_vars != change.num_vars:
        raise ValueError("subspace and coordinate change over different variable counts")
    return _span_of_images(space, change.images, space.num_vars)


def initial_after_change(space: Subspace, change: CoordinateChange) -> MonomialSet:
    """in(gV) for the change g, equal to initial_subspace(transform_subspace(space, change)),
    read from the columns of the moved rows without building the rows.

    With A = Sym^d(g) the moved rows are R*A.  Expanding (x^T g y)^d in x and in y gives
    A[u, m](g) = (u!/m!) * A[m, u](g^T), where u! is the product of the u_i!.  So column m
    of R*A, times m!, has entry sum_u R[r][u] * u! * T_m[u] in row r, where T_m is the
    image of m under the transposed substitution; a column's scale does not change the
    pivots, and every number is an integer.  The pivots of an echelon form are its greedy
    column basis: in descending order, a column is a pivot exactly when it is independent
    of the columns before it.  So the scan stops at the dim-th pivot.
    """
    if space.num_vars != change.num_vars:
        raise ValueError("subspace and coordinate change over different variable counts")
    if not space.dim:
        return MonomialSet(space.num_vars, space.degree, frozenset())
    transposed: list[list[tuple[int, int]]] = [[] for _ in change.images]
    for i, image in enumerate(change.images):
        for j, c in image:
            transposed[j].append((i, c))
    # each row as its monomials u and its entries times u!
    scaled = [(list(row), [c * prod(map(factorial, u)) for u, c in row.items()]) for row in space.rows.values()]
    one = (0,) * space.num_vars
    table: dict[Exponent, Row] = {one: {one: 1}}
    # a column is a row over one variable, entry r at the exponent (r,): the order serves
    # only to test independence, and under revlex the smallest r is the pivot
    columns = RowEchelon(REVLEX)
    pivots: list[Exponent] = []
    for m in sort_monomials(space.order, monomials_of_degree(space.num_vars, space.degree)):
        image = _monomial_image(m, transposed, table)
        column = {}
        for r, (monomials, entries) in enumerate(scaled):
            entry = sum(map(mul, entries, map(image.get, monomials, repeat(0))))
            if entry:
                column[(r,)] = entry
        if columns.add(column):
            pivots.append(m)
            if len(pivots) == space.dim:
                break
    return MonomialSet(space.num_vars, space.degree, frozenset(pivots))


def restrict_subspace(space: Subspace, linear: Form) -> Subspace:
    """Image of the subspace in the quotient by the hyperplane linear = 0."""
    images, _ = restriction_images(linear, space.num_vars)
    return _span_of_images(space, images, space.num_vars - 1)


def random_form(rng: random.Random, num_vars: int, degree: int, bound: int) -> Form:
    """Integer coefficients drawn uniformly from [-bound, bound] on every monomial."""
    if bound < 1:
        # bound 0 draws only the zero form, and callers redraw until nonzero
        raise ValueError("bound must be at least 1")
    terms = {e: Fraction(rng.randint(-bound, bound)) for e in monomials_of_degree(num_vars, degree)}
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
    return echelon.subspace(num_vars, degree)


def full_graded_piece(num_vars: int, degree: int, order: str = REVLEX) -> Subspace:
    monomials = sort_monomials(order, monomials_of_degree(num_vars, degree))
    return Subspace(num_vars, degree, order, {e: {e: 1} for e in monomials})
