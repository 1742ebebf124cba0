"""Homogeneous polynomials over the rationals, and the integer rows they are computed on.

Forms are sparse term maps keyed by exponent vectors, with Fraction
coefficients that stay in lowest terms with positive denominator.  A Form
has no arithmetic: it is only parsed, formatted, normalized and returned.
All values are immutable after construction; every operation is a pure
function of its inputs.

Coordinate changes and restrictions run on primitive integer rows (see
`sym_power`): the substitution is scaled to integers, every monomial's
image is built once per call, and Fractions appear only in the Form
returned.  The `CoordinateChange` class is in `subspaces`, since its
singularity test is an elimination: this module imports no other of the
package.  Exact division (the GCD in `factors`) runs on the same rows,
through `multiply_rows` and `divide_rows` in Z[x].

Text has one parser, `parse_terms`, giving a form's degree and terms:
`parse_form` builds a Form on it, and a reader that needs only the span
(the CLI's file reader) takes the terms to an integer row with `cleared_row`.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import cache, lru_cache
from operator import add, sub
from types import MappingProxyType
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


class Record:
    """An immutable record.  A subclass's `__slots__` names its fields in positional order, each
    given once; one that checks or derives its fields does so in its own `__init__`, then passes
    them to this one.  Records are equal when of the same class with equal fields, and hash as
    the tuple of their fields.  Nothing is generated or imported per class, because every CLI
    call is a new process that pays its import cost (see the README's Performance section)."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) > len(names) or kwargs.keys() - set(names[len(args):]) or len(values) < len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}, each once")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


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


# bounded, so a caller that walks many large degrees (hilbert_function) does not keep them all
@lru_cache(maxsize=128)
def monomials_of_degree(num_vars: int, degree: int) -> tuple[Exponent, ...]:
    """All exponent vectors of the given total degree, descending revlex: the last
    exponent ascending, then the variables before it in the same order.  Cached per
    (num_vars, degree), so callers share one tuple.  Listed in a loop from x1^d, with no
    recursion: the first x_i with a positive exponent passes one to x_{i+1}, the rest to x1."""
    if num_vars == 0:
        return ((),) if degree == 0 else ()
    exps = [degree] + [0] * (num_vars - 1)
    listed = [tuple(exps)]
    first = 0  # the first variable with a positive exponent
    while exps[-1] < degree:
        e, exps[first] = exps[first], 0
        exps[first + 1] += 1
        exps[0] = e - 1
        first = 0 if e > 1 else first + 1
        listed.append(tuple(exps))
    return tuple(listed)


def check_monomial_count(num_vars: int, degree: int, limit: int) -> None:
    """Refuse past `limit` monomials of degree at most `degree` in num_vars variables."""
    if (count := math.comb(degree + num_vars, num_vars)) > limit:
        raise ValueError(f"too many monomials: s={num_vars} has {count} of degree at most {degree} (limit {limit})")


@cache
def monomial_positions(order: str, num_vars: int, degree: int) -> Mapping[Exponent, int]:
    """Each monomial of the degree at its index in descending order under the order,
    read-only and iterated in that order; cached."""
    descending = sort_monomials(order, monomials_of_degree(num_vars, degree))
    return MappingProxyType({e: i for i, e in enumerate(descending)})


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class Form(Record):
    """A homogeneous polynomial with exact rational coefficients, as a validated term map
    with no arithmetic operators.

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
            clean[exps] = coeff
        super().__init__(num_vars, degree, clean)

    @classmethod
    def from_terms(cls, num_vars: int, terms: Mapping[Exponent, Fraction]) -> Form:
        """Infer the degree from the terms; empty maps give the zero form of degree 0."""
        degrees = {sum(e) for e in terms if terms[e] != 0}
        if len(degrees) > 1:
            lo, hi = min(degrees), max(degrees)
            raise ValueError(f"inhomogeneous form: degrees {lo} and {hi}")
        degree = degrees.pop() if degrees else 0
        return cls(num_vars, degree, terms)

    def is_zero(self) -> bool:
        return not self.terms

    # the terms dict cannot be hashed as Record's field tuple
    def __hash__(self) -> int:
        return hash((self.num_vars, self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Form({self.num_vars}, {format_form(self)!r})"


def initial_monomial(f: Form, order: str) -> Exponent:
    """The largest stored exponent under the order."""
    if f.is_zero():
        raise ValueError("initial monomial of zero")
    return max(f.terms, key=lambda e: monomial_key(order, e))


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


def cleared_row(terms: Mapping[Exponent, int | Fraction]) -> tuple[Row, int]:
    """The terms times the lcm of their denominators, zero entries dropped, and that lcm."""
    denominator = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (denominator // c.denominator) for e, c in terms.items() if c}, denominator


def integer_row(f: Form) -> tuple[Row, Fraction]:
    """The primitive integer multiple of f and its factor: row = scale * f."""
    row, denominator = cleared_row(f.terms)
    row, content = primitive(row)
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
    """The image of exps, and of each divisor on the way down to one in the table: each
    is the one below times the linear image of its first variable.  A loop, not
    recursion, so the degree is not bounded by the interpreter's recursion limit."""
    chain = []
    while (got := table.get(exps)) is None:
        # exps is not the empty monomial, whose image the caller seeds
        i = next(k for k, e in enumerate(exps) if e)
        chain.append((exps, i))
        exps = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
    for exps, i in reversed(chain):
        below, got = got, {}
        for m, c in below.items():
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


def apply_change(f: Form, change) -> Form:
    """Substitute x_i -> sum_j M[i][j] x_j and expand, for a `subspaces.CoordinateChange`
    or anything with its `images` and `denominator`."""
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
        self.message, self.position = message, position


def _integer(match: re.Match, group) -> int:
    """The integer a matched digit group spells; one longer than Python's limit on
    integer string conversion is a ParseError at the group."""
    try:
        return int(match[group])
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer longer than the {limit}-digit limit", match.start(group)) from None


# bounded, so a process that reads many large files does not keep every monomial it met
@lru_cache(maxsize=4096)
def _monomial(text: str, num_vars: int) -> Exponent:
    """The exponent a product of factors spells ("" spells 1), decoded once per text and
    number of variables, since the terms of a file repeat their monomials.  A ParseError is
    positioned within text."""
    exps = [0] * num_vars
    for factor in _FACTOR.finditer(text):
        index = _integer(factor, 1)
        if not 1 <= index <= num_vars:
            raise ParseError(f"variable x{index} out of range 1..{num_vars}", factor.start())
        exps[index - 1] += _integer(factor, 2) if factor[2] else 1
    return tuple(exps)


def parse_terms(text: str, num_vars: int) -> tuple[int, dict[Exponent, int | Fraction]]:
    """The degree and the terms of a form in the polynomial grammar, the coefficients of
    equal monomials summed (a sum may be 0); rejects inhomogeneous input."""
    if not text.strip():
        raise ParseError("empty form", 0)
    terms: list[tuple[int | Fraction, Exponent]] = []
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
        pos = term.end()
        # a rational holds no x, so the monomial is the rest of the term from its first x
        at = text.find("x", start, pos)
        at = pos if at < 0 else at
        try:
            exps = _monomial(text[at:pos], num_vars)
        except ParseError as exc:
            raise ParseError(exc.message, at + exc.position) from None
        num = -num if sign[1] == "-" else num
        terms.append((num if den == 1 else Fraction(num, den), exps))

    degrees = sorted({sum(e) for _, e in terms})
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous form: degrees {degrees[0]} and {degrees[-1]}")
    collected: dict[Exponent, int | Fraction] = {}
    for coeff, exps in terms:
        collected[exps] = collected[exps] + coeff if exps in collected else coeff
    return degrees[0], collected


def parse_form(text: str, num_vars: int) -> Form:
    """Parse the polynomial grammar; rejects inhomogeneous input."""
    return Form(num_vars, *parse_terms(text, num_vars))


def format_monomial(exps: Exponent) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def format_form(f: Form) -> str:
    """Canonical text: terms descending under revlex; parse(format(f)) == f.  The zero
    form of degree d > 0 is written 0*x1^d so that it reads back in degree d; over no
    variables, where there is no x1, every zero form is written 0."""
    if f.is_zero():
        return f"0*x1^{f.degree}" if f.degree and f.num_vars else "0"
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


def normalize_form(f: Form) -> Form:
    """Scale to coprime integer coefficients with positive revlex-leading coefficient."""
    if f.is_zero():
        return f
    row, _ = integer_row(f)
    return form_from_row(f.num_vars, f.degree, row, 1 if row[initial_monomial(f, REVLEX)] > 0 else -1)
