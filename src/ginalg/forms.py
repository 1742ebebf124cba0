"""Exact arithmetic on homogeneous polynomials over the rationals.

Forms are sparse term maps keyed by exponent vectors, with Fraction
coefficients that stay in lowest terms with positive denominator.  All
values are immutable after construction; every operation is a pure
function of its inputs.

Coordinate changes and restrictions run on primitive integer rows (see
`sym_power`): the substitution is scaled to integers, every monomial's
image is built once per call, and Fractions appear only in the Form
returned.  Exact division (`try_divide`, and the GCD in `factors`) runs on
the same rows, through `multiply_rows` and `divide_rows` in Z[x].
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]

REVLEX = "revlex"
LEX = "lex"
MIXED = "mixed"
ORDER_NAMES = (REVLEX, LEX, MIXED)

# aliases accepted in files and on the command line
_ORDER_ALIASES = {
    "revlex": REVLEX,
    "lex": LEX,
    "mixed": MIXED,
    "mixed_last_revlex": MIXED,
}


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect, not bad input."""


def normalize_order_name(name: str) -> str:
    try:
        return _ORDER_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}; expected one of {ORDER_NAMES}") from None


def monomial_key(order: str, exps: Exponent) -> tuple[int, ...]:
    """Sort key, strictly increasing with the order among equal-degree exponents.

    revlex: the last index where two exponents differ decides, smaller wins.
    lex: the first index where they differ decides, larger wins.
    mixed: smaller last-variable exponent wins, ties broken by lex on the rest.
    """
    if order == REVLEX:
        return tuple(-e for e in reversed(exps))
    if order == LEX:
        return exps
    if order == MIXED:
        return (-exps[-1],) + exps[:-1]
    raise ValueError(f"unknown monomial order {order!r}")


def sort_monomials(order: str, exps: Iterable[Exponent]) -> list[Exponent]:
    """Descending under the order (largest first)."""
    return sorted(exps, key=lambda e: monomial_key(order, e), reverse=True)


def monomials_of_degree(num_vars: int, degree: int) -> list[Exponent]:
    """All exponent vectors of the given total degree, descending revlex."""
    if num_vars == 0:
        return [()] if degree == 0 else []
    out: list[Exponent] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, num_vars)
    return sort_monomials(REVLEX, out)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class Form:
    """A homogeneous polynomial with exact rational coefficients.

    The zero form keeps a declared degree so graded bookkeeping stays
    total.  Term maps never contain zero coefficients.
    """

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars: int, degree: int, terms: Mapping[Exponent, Fraction]):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {num_vars} variables")
            if sum(exps) != degree:
                raise ValueError(f"inhomogeneous form: degrees {degree} and {sum(exps)}")
            clean[exps] = clean.get(exps, Fraction(0)) + coeff
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, degree: int) -> Form:
        return cls(num_vars, degree, {})

    @classmethod
    def one(cls, num_vars: int) -> Form:
        return cls(num_vars, 0, {(0,) * num_vars: Fraction(1)})

    @classmethod
    def monomial(cls, num_vars: int, exps: Exponent, coeff=1) -> Form:
        exps = tuple(exps)
        return cls(num_vars, sum(exps), {exps: _as_fraction(coeff)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> Form:
        """x_index with 1-based index."""
        if not 1 <= index <= num_vars:
            raise ValueError(f"variable index {index} out of range 1..{num_vars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(num_vars))
        return cls(num_vars, 1, {exps: Fraction(1)})

    @classmethod
    def from_terms(cls, num_vars: int, terms: Mapping[Exponent, Fraction]) -> Form:
        """Infer the degree from the terms; empty maps give the zero form of degree 0."""
        degrees = {sum(e) for e in terms if terms[e] != 0}
        if len(degrees) > 1:
            lo, hi = min(degrees), max(degrees)
            raise ValueError(f"inhomogeneous form: degrees {lo} and {hi}")
        degree = degrees.pop() if degrees else 0
        return cls(num_vars, degree, terms)

    # -- predicates and access --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Exponent) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: Form) -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(f"forms over different variable counts: {self.num_vars} vs {other.num_vars}")

    def __add__(self, other: Form) -> Form:
        self._check_ring(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(f"cannot add forms of degrees {self.degree} and {other.degree}")
        degree = other.degree if self.is_zero() else self.degree
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
        return Form(self.num_vars, degree, merged)

    def __neg__(self) -> Form:
        return Form(self.num_vars, self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scalar = _as_fraction(other)
            return Form(self.num_vars, self.degree, {e: c * scalar for e, c in self.terms.items()})
        self._check_ring(other)
        product: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                product[key] = product.get(key, Fraction(0)) + ca * cb
        return Form(self.num_vars, self.degree + other.degree, product)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        scalar = _as_fraction(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of a form by zero")
        return self * (Fraction(1) / scalar)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.num_vars == other.num_vars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Form({self.num_vars}, {format_form(self)!r})"


def initial_monomial(f: Form, order: str) -> Exponent:
    """The largest stored exponent under the order."""
    if f.is_zero():
        raise ValueError("initial monomial of zero")
    return max(f.terms, key=lambda e: monomial_key(order, e))


class CoordinateChange:
    """An invertible linear substitution x_i -> sum_j M[i][j] * x_j.  `images` is it scaled
    to integers by the common denominator D of the entries, so a degree-d image is D^d times
    the true one."""

    __slots__ = ("num_vars", "matrix", "images", "denominator")

    def __init__(self, rows: Iterable[Iterable]):
        from .subspaces import RowEchelon  # subspaces imports this module

        matrix = tuple(tuple(_as_fraction(v) for v in row) for row in rows)
        s = len(matrix)
        if s == 0 or any(len(row) != s for row in matrix):
            raise ValueError("coordinate change matrix must be square and nonempty")
        denominator = math.lcm(*(v.denominator for row in matrix for v in row))
        images = tuple(
            tuple((j, v.numerator * (denominator // v.denominator)) for j, v in enumerate(row) if v) for row in matrix
        )
        if len(RowEchelon(REVLEX, ({(j,): c for j, c in image} for image in images)).rows) < s:
            raise ValueError("singular coordinate change matrix")
        object.__setattr__(self, "num_vars", s)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("CoordinateChange is immutable")

    @classmethod
    def identity(cls, num_vars: int) -> CoordinateChange:
        return cls([[1 if i == j else 0 for j in range(num_vars)] for i in range(num_vars)])

    def __eq__(self, other) -> bool:
        return isinstance(other, CoordinateChange) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"CoordinateChange({[[str(v) for v in row] for row in self.matrix]})"


# -- integer rows -------------------------------------------------------------
#
# The graded-piece kernel works on rows: dicts from exponent vector to int.
# Where only the span matters a row is kept primitive (content divided out),
# so no Fraction arithmetic happens inside substitution or elimination;
# Fractions and Forms are built only for the results handed back.

Row = dict[Exponent, int]
# a linear substitution: variable i -> sum of c * y_slot over (slot, c) pairs
LinearImages = Sequence[Sequence[tuple[int, int]]]


def primitive(row: Row) -> tuple[Row, int]:
    """row divided by its content (the gcd of its entries), and the content."""
    content = math.gcd(*row.values()) or 1
    if content > 1:
        row = {e: c // content for e, c in row.items()}
    return row, content


def integer_row(f: Form) -> tuple[Row, Fraction]:
    """The primitive integer multiple of f and its factor: row = scale * f."""
    if f.is_zero():
        return {}, Fraction(1)
    denominator = math.lcm(*(c.denominator for c in f.terms.values()))
    row, content = primitive({e: c.numerator * (denominator // c.denominator) for e, c in f.terms.items()})
    return row, Fraction(denominator, content)


def form_from_row(num_vars: int, degree: int, row: Row, scale: int | Fraction) -> Form:
    """The form row / scale, for a nonzero int or Fraction scale."""
    return Form(num_vars, degree, {e: Fraction(c, scale) for e, c in row.items()})


def multiply_rows(a: Row, b: Row) -> Row:
    out: Row = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def divide_rows(f: Row, g: Row) -> Row | None:
    """The quotient f / g in Z[x], or None when it is not a polynomial with
    integer entries; g is nonzero.

    Division by leading terms under lex, which is the order `max` gives on
    exponent tuples and a monomial order on all of Z[x].
    """
    lead = max(g)
    rest = dict(f)
    quotient: Row = {}
    while rest:
        top = max(rest)
        shift = tuple(map(sub, top, lead))
        # a 0-variable row has empty exponents, so no min() here
        if any(e < 0 for e in shift):
            return None
        c, remainder = divmod(rest[top], g[lead])
        if remainder:
            return None
        quotient[shift] = c
        for e, v in g.items():
            e = tuple(map(add, e, shift))
            value = rest.get(e, 0) - c * v
            if value:
                rest[e] = value
            else:
                del rest[e]
    return quotient


def restriction_images(linear: Form, num_vars: int) -> tuple[LinearImages, int]:
    """The substitution that solves linear = 0, scaled to integers, and the scale.

    The variable of largest index with a nonzero coefficient c_j is solved
    for; its slot is deleted and the others renumbered in order.  The
    images x_i -> c_j*x_i and x_j -> -sum_{i != j} c_i*x_i are c_j times
    the true ones, so a degree-d image is c_j^d times the true one.
    """
    if linear.is_zero():
        raise ValueError("cannot restrict by the zero form")
    if linear.degree != 1 or linear.num_vars != num_vars:
        raise ValueError("restriction needs a degree-1 form over the same variables")
    row, _ = integer_row(linear)
    coeffs = [0] * num_vars
    for exps, c in row.items():
        coeffs[exps.index(1)] = c
    j = max(i for i, c in enumerate(coeffs) if c)

    def slot(i: int) -> int:
        return i if i < j else i - 1

    solved = [(slot(i), -c) for i, c in enumerate(coeffs) if c and i != j]
    images = [solved if i == j else [(slot(i), coeffs[j])] for i in range(num_vars)]
    return images, coeffs[j]


def _monomial_image(exps: Exponent, images: LinearImages, table: dict[Exponent, Row]) -> Row:
    got = table.get(exps)
    if got is None:
        # exps is not the empty monomial, whose image the caller seeds
        i = next(k for k, e in enumerate(exps) if e)
        got = {}
        for m, c in _monomial_image(exps[:i] + (exps[i] - 1,) + exps[i + 1 :], images, table).items():
            for k, a in images[i]:
                key = m[:k] + (m[k] + 1,) + m[k + 1 :]
                got[key] = got.get(key, 0) + a * c
        table[exps] = got
    return got


def sym_power(rows: list[Row], images: LinearImages, num_vars_out: int) -> list[Row]:
    """Images of rows under the linear substitution x_i -> images[i].

    This is the symmetric power Sym^d of the substitution.  The image of
    each monomial is built once per call, from a smaller monomial's image
    times one linear image, and shared by every row.
    """
    table: dict[Exponent, Row] = {(0,) * len(images): {(0,) * num_vars_out: 1}}
    out = []
    for row in rows:
        acc: Row = {}
        for exps, c in row.items():
            for m, a in _monomial_image(exps, images, table).items():
                acc[m] = acc.get(m, 0) + a * c
        out.append({m: c for m, c in acc.items() if c})
    return out


def apply_change(f: Form, change: CoordinateChange) -> Form:
    """Substitute x_i -> sum_j M[i][j] x_j and expand."""
    if f.num_vars != change.num_vars:
        raise ValueError("form and coordinate change over different variable counts")
    row, scale = integer_row(f)
    [image] = sym_power([row], change.images, f.num_vars)
    return form_from_row(f.num_vars, f.degree, image, scale * change.denominator**f.degree)


def restrict(f: Form, linear: Form) -> Form:
    """Normal form of f modulo the hyperplane linear = 0.

    Solves for the variable of largest index with nonzero coefficient in
    linear and substitutes; the result lives over num_vars - 1 variables,
    the removed slot deleted and the rest renumbered in order.  For
    linear = x_s this is exactly "set x_s = 0".
    """
    images, solved_coeff = restriction_images(linear, f.num_vars)
    row, scale = integer_row(f)
    [image] = sym_power([row], images, f.num_vars - 1)
    return form_from_row(f.num_vars - 1, f.degree, image, scale * solved_coeff**f.degree)


def try_divide(f: Form, divisor: Form) -> Form | None:
    """Exact quotient f / divisor, or None when the division is not exact.

    The primitive integer rows are divided in Z[x]: by Gauss's lemma their
    quotient over Q, when there is one, has integer entries.
    """
    if divisor.is_zero():
        raise ValueError("division by the zero form")
    f._check_ring(divisor)
    if f.is_zero():
        return Form.zero(f.num_vars, max(f.degree - divisor.degree, 0))
    row, scale = integer_row(f)
    divisor_row, divisor_scale = integer_row(divisor)
    quotient = divide_rows(row, divisor_row)
    if quotient is None:
        return None
    return form_from_row(f.num_vars, f.degree - divisor.degree, quotient, scale / divisor_scale)


# -- text format ------------------------------------------------------------
#
# form     = term { sign term }
# term     = [sign] [rational "*"] factor { "*" factor }  |  [sign] rational
# factor   = "x" index [ "^" exponent ]
# rational = integer [ "/" positive-integer ]
#
# Whitespace may stand between any two tokens.  The bare-rational
# alternative admits degree-0 forms such as "1".  The grammar has no
# nesting, so each term is one match of `_TERM`; a malformed term is
# reported at its start, after its sign.

_SIGN = re.compile(r"\s*([+-])?\s*")
_FACTOR = re.compile(r"x(\d+)(?:\s*\^\s*(\d+))?")
_FACTORS = rf"{_FACTOR.pattern}(?:\s*\*\s*{_FACTOR.pattern})*"
_TERM = re.compile(rf"(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?(?:\s*\*\s*{_FACTORS})?|{_FACTORS}")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _integer(match: re.Match, group) -> int:
    """The integer a matched digit group spells; one longer than Python's limit on
    integer string conversion is a ParseError at the group."""
    try:
        return int(match[group])
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer longer than the {limit}-digit limit", match.start(group)) from None


def parse_form(text: str, num_vars: int) -> Form:
    """Parse the polynomial grammar; rejects inhomogeneous input."""
    if not text.strip():
        raise ParseError("empty form", 0)
    terms: list[tuple[Fraction, Exponent]] = []
    pos = 0
    while True:
        sign = _SIGN.match(text, pos)
        start = sign.end()
        if terms and sign[1] is None:
            if start == len(text):
                break
            raise ParseError("expected '+' or '-'", start)
        term = _TERM.match(text, start)
        if term is None:
            raise ParseError("expected a term", start)
        num = _integer(term, "num") if term["num"] else 1
        den = _integer(term, "den") if term["den"] else 1
        if den == 0:
            raise ParseError("zero denominator", term.start("den"))
        exps = [0] * num_vars
        for factor in _FACTOR.finditer(text, start, term.end()):
            index = _integer(factor, 1)
            if not 1 <= index <= num_vars:
                raise ParseError(f"variable x{index} out of range 1..{num_vars}", factor.start())
            exps[index - 1] += _integer(factor, 2) if factor[2] else 1
        coeff = Fraction(num, den)
        terms.append((-coeff if sign[1] == "-" else coeff, tuple(exps)))
        pos = term.end()

    degrees = sorted({sum(e) for _, e in terms})
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous form: degrees {degrees[0]} and {degrees[-1]}")
    collected: dict[Exponent, Fraction] = {}
    for coeff, exps in terms:
        collected[exps] = collected.get(exps, Fraction(0)) + coeff
    return Form(num_vars, degrees[0], collected)


def format_monomial(exps: Exponent) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def format_form(f: Form) -> str:
    """Canonical text: terms descending under revlex; parse(format(f)) == f."""
    if f.is_zero():
        return "0"
    pieces = []
    for exps in sort_monomials(REVLEX, f.terms):
        coeff = f.terms[exps]
        mag = abs(coeff)
        if sum(exps) == 0:
            body = str(mag)
        elif mag == 1:
            body = format_monomial(exps)
        else:
            body = f"{mag}*{format_monomial(exps)}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def normalize_form(f: Form, order: str = REVLEX) -> Form:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    if f.is_zero():
        return f
    row, _ = integer_row(f)
    return form_from_row(f.num_vars, f.degree, row, 1 if row[initial_monomial(f, order)] > 0 else -1)
