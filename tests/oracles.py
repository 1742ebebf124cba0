"""Independent oracles used by the tests.

Nothing here touches the code paths being checked: the order oracles apply
the definitions directly, the gcd oracle works by bounded degree
enumeration with its own echelon routine plus trial division
(`exact_quotient`, over `forms.divide_rows`), the Hilbert oracles count by
inclusion-exclusion / power-series expansion, and the graded-piece oracles
substitute and eliminate in this module's own arithmetic on `Form` term maps
over `Fraction` (`add`, `sub`, `scale`, `mul`; `Form` itself has none),
independently of the integer-row kernel in the package.  The
one exception is `scratch_ideal_graded_piece`, the from-scratch ideal piece
exactly or modulo a prime: it shares `RowEchelon` with the package, but
eliminates every shift of the generators where the package grows each
piece from the one below.  The monomial references at the end enumerate where the
package follows the Borel order: every exchange x_i -> x_j rather than the elementary
ones, every degree-n monomial of the shape rather than its Borel generator, every
pair of generators rather than one sorted pass; `borel_closure` walks every exchange.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import combinations
from math import comb

from ginalg import (
    REVLEX,
    CoordinateChange,
    Form,
    MonomialSet,
    Subspace,
    format_form,
    initial_monomial,
    monomials_of_degree,
    normalize_form,
    random_form,
)
from ginalg.forms import divide_rows, form_from_row, integer_row, monomial_positions
from ginalg.subspaces import RowEchelon, _generator_key


def spanning_args(space: Subspace) -> tuple:
    """A Subspace as the leading arguments of gin_subspace and initial_after_change:
    rows that span it, then its variable count, degree and order."""
    return space.rows.values(), space.num_vars, space.degree, space.order


# -- Form arithmetic over Fraction ---------------------------------------------


def add(f: Form, g: Form) -> Form:
    """f + g; a zero summand takes the other's degree."""
    terms = dict(f.terms)
    for e, c in g.terms.items():
        terms[e] = terms.get(e, 0) + c
    return Form(f.num_vars, g.degree if f.is_zero() else f.degree, terms)


def scale(f: Form, c) -> Form:
    return Form(f.num_vars, f.degree, {e: v * c for e, v in f.terms.items()})


def sub(f: Form, g: Form) -> Form:
    return add(f, scale(g, -1))


def mul(f: Form, g: Form) -> Form:
    product: dict = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(map(operator.add, ea, eb))
            product[e] = product.get(e, 0) + ca * cb
    return Form(f.num_vars, f.degree + g.degree, product)


# -- monomial order definitions, applied literally ---------------------------


def revlex_gt(a, b) -> bool:
    for i in reversed(range(len(a))):
        if a[i] != b[i]:
            return a[i] < b[i]
    return False


def lex_gt(a, b) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x > y
    return False


def mixed_gt(a, b) -> bool:
    if a[-1] != b[-1]:
        return a[-1] < b[-1]
    return lex_gt(a[:-1], b[:-1])


ORDER_ORACLES = {"revlex": revlex_gt, "lex": lex_gt, "mixed": mixed_gt}


# -- gcd by degree enumeration + trial division -------------------------------


def _nullspace_vector(rows: list[list[Fraction]], ncols: int) -> list[Fraction] | None:
    """One nonzero kernel vector of the column space relation, or None."""
    work = [list(r) for r in rows]
    pivots: dict[int, int] = {}
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        pivots[col] = rank
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    chosen = free[0]
    vec = [Fraction(0)] * ncols
    vec[chosen] = Fraction(1)
    for col, row in pivots.items():
        vec[col] = -work[row][chosen]
    return vec


def exact_quotient(f: Form, divisor: Form) -> Form | None:
    """f / divisor, or None when inexact: by Gauss's lemma the quotient of the primitive
    integer rows in Z[x] is the quotient over Q up to the rows' scales."""
    row, scale = integer_row(f)
    divisor_row, divisor_scale = integer_row(divisor)
    quotient = divide_rows(row, divisor_row)
    if quotient is None:
        return None
    return form_from_row(f.num_vars, f.degree - divisor.degree, quotient, scale / divisor_scale)


def oracle_gcd(f: Form, g: Form) -> Form:
    """gcd via the smallest-degree relation a*f = b*g.

    A common divisor of degree t exists iff nonzero (a, b) with
    deg a = deg g - t satisfy a*f - b*g = 0; sweeping t downward from
    min(deg f, deg g) finds the gcd degree, and the gcd itself is g / a,
    confirmed by trial division into both inputs.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero():
        return normalize_form(g)
    if g.is_zero():
        return normalize_form(f)
    s = f.num_vars
    df, dg = f.degree, g.degree
    for t in range(min(df, dg), 0, -1):
        a_basis = monomials_of_degree(s, dg - t)
        b_basis = monomials_of_degree(s, df - t)
        columns = [mul(Form(s, dg - t, {u: 1}), f) for u in a_basis]
        columns += [mul(Form(s, df - t, {v: -1}), g) for v in b_basis]
        target = monomials_of_degree(s, df + dg - t)
        rows = [[col.terms.get(e, 0) for col in columns] for e in target]
        vec = _nullspace_vector(rows, len(columns))
        if vec is None:
            continue
        a = Form(s, dg - t, {u: vec[i] for i, u in enumerate(a_basis)})
        assert not a.is_zero()
        h = exact_quotient(g, a)
        assert h is not None and mul(h, a) == g, "oracle division failed"
        cof = exact_quotient(f, h)
        assert cof is not None and mul(cof, h) == f, f"oracle gcd does not divide f: {format_form(h)}"
        return normalize_form(h)
    return Form(s, 0, {(0,) * s: 1})


# -- Hilbert function oracles --------------------------------------------------


def hilbert_inclusion_exclusion(gens, num_vars: int, degree: int) -> int:
    """Quotient Hilbert function by inclusion-exclusion over generator lcms."""
    gens = [tuple(g) for g in gens]
    in_ideal = 0
    for k in range(1, len(gens) + 1):
        for subset in combinations(gens, k):
            lcm = tuple(max(col) for col in zip(*subset))
            shift = degree - sum(lcm)
            if shift >= 0:
                in_ideal += (-1) ** (k + 1) * comb(shift + num_vars - 1, num_vars - 1)
    return comb(degree + num_vars - 1, num_vars - 1) - in_ideal


def ci_three_quadrics_quotient_hf(dmax: int) -> list[int]:
    """Power-series coefficients of (1 - t^2)^3 / (1 - t)^4."""
    series = [0] * (dmax + 1)
    for power, coeff in ((0, 1), (2, -3), (4, 3), (6, -1)):
        if power <= dmax:
            series[power] = coeff
    for _ in range(4):
        for i in range(1, dmax + 1):
            series[i] += series[i - 1]
    return series


# -- graded-piece linear algebra in the arithmetic above -----------------------


def oracle_apply_change(f: Form, change: CoordinateChange) -> Form:
    """Substitute x_i -> sum_j M[i][j] x_j by expanding powers of the images."""
    s = f.num_vars
    images = [
        Form(s, 1, {tuple(int(k == j) for k in range(s)): c for j, c in enumerate(row)})
        for row in change.matrix
    ]
    powers: list[list[Form]] = [[Form(s, 0, {(0,) * s: 1})] for _ in range(s)]
    result = Form(s, f.degree, {})
    for exps, coeff in f.terms.items():
        term = Form(s, 0, {(0,) * s: coeff})
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(mul(powers[i][-1], images[i]))
            term = mul(term, powers[i][e])
        result = add(result, term)
    return result


def oracle_restrict(f: Form, linear: Form) -> Form:
    """Solve linear = 0 for its last variable and substitute, over s - 1 slots."""
    s = f.num_vars
    coeffs = [Fraction(0)] * s
    for exps, coeff in linear.terms.items():
        coeffs[exps.index(1)] = coeff
    j = max(i for i, c in enumerate(coeffs) if c != 0)
    sub_terms: dict = {}
    for i, c in enumerate(coeffs):
        if i == j or c == 0:
            continue
        slot = i if i < j else i - 1
        sub_terms[tuple(1 if k == slot else 0 for k in range(s - 1))] = -c / coeffs[j]
    substitute = Form(s - 1, 1, sub_terms)
    sub_powers = [Form(s - 1, 0, {(0,) * (s - 1): 1})]
    result = Form(s - 1, f.degree, {})
    for exps, coeff in f.terms.items():
        while len(sub_powers) <= exps[j]:
            sub_powers.append(mul(sub_powers[-1], substitute))
        rest = exps[:j] + exps[j + 1 :]
        result = add(result, mul(Form(s - 1, sum(rest), {rest: coeff}), sub_powers[exps[j]]))
    return result


def oracle_reduce(f: Form, rows: list[Form], order: str) -> Form:
    for row in rows:
        coeff = f.terms.get(initial_monomial(row, order), 0)
        if coeff != 0:
            f = sub(f, scale(row, coeff))
    return f


def oracle_echelonize(forms, order: str, num_vars: int, degree: int) -> Subspace:
    """Reduced echelon basis by Gauss-Jordan elimination over Fraction."""
    rows: list[Form] = []
    for f in forms:
        f = oracle_reduce(f, rows, order)
        if f.is_zero():
            continue
        pivot = initial_monomial(f, order)
        f = scale(f, 1 / f.terms[pivot])
        rows = [sub(row, scale(f, row.terms.get(pivot, 0))) for row in rows]
        rows.append(f)
    return Subspace(num_vars, degree, order, [integer_row(r)[0] for r in rows])


def oracle_ideal_graded_piece(gens, degree: int, order: str, num_vars: int) -> Subspace:
    spanning = [
        mul(Form(num_vars, sum(m), {m: 1}), g)
        for g in gens
        if g.degree <= degree
        for m in monomials_of_degree(num_vars, degree - g.degree)
    ]
    return oracle_echelonize(spanning, order, num_vars, degree)


def scratch_ideal_graded_piece(gens, degree: int, order: str, num_vars: int, prime: int | None = None) -> MonomialSet:
    """in(I_d) from scratch: the pivots of every shift x^a * g of the generators, each row
    keyed by position in descending order, eliminated exactly or modulo prime."""
    positions = monomial_positions(order, num_vars, degree)
    echelon = RowEchelon(None, prime=prime)
    for g in gens:
        if g.degree <= degree:
            row = integer_row(g)[0]
            for shift in monomials_of_degree(num_vars, degree - g.degree):
                echelon.add({positions[tuple(map(operator.add, e, shift))]: c for e, c in row.items()})
    return MonomialSet(num_vars, degree, frozenset(e for e, i in positions.items() if i in echelon.rows))


def oracle_random_subspace(
    num_vars: int, degree: int, dim: int, seed: int, bound: int = 10, order: str = REVLEX
) -> Subspace:
    """Draw forms, re-echelonizing the chosen ones plus each candidate from scratch."""
    rng = random.Random(seed)
    chosen: list[Form] = []
    space = oracle_echelonize([], order, num_vars, degree)
    while space.dim < dim:
        candidate = random_form(rng, num_vars, degree, bound)
        extended = oracle_echelonize(chosen + [candidate], order, num_vars, degree)
        if extended.dim > space.dim:
            chosen.append(candidate)
            space = extended
    return space


# -- monomial references ----------------------------------------------------


def borel_closure(monomials) -> set:
    """Every monomial reached from the given ones by exchanges x_i -> x_j, j < i."""
    closed, frontier = set(), [tuple(m) for m in monomials]
    while frontier:
        m = frontier.pop()
        if m not in closed:
            closed.add(m)
            frontier += [
                m[:j] + (m[j] + 1,) + m[j + 1 : i] + (m[i] - 1,) + m[i + 1 :] for i in range(len(m)) if m[i] for j in range(i)
            ]
    return closed


def all_exchanges_borel_closed(monomials, member) -> bool:
    """Every exchange (x_j/x_i)*m, j < i, of the given monomials satisfies member."""
    for m in monomials:
        for i, e in enumerate(m):
            if e == 0:
                continue
            for j in range(i):
                moved = list(m)
                moved[i] -= 1
                moved[j] += 1
                if not member(tuple(moved)):
                    return False
    return True


def enumerating_gin_shape(monomials: MonomialSet) -> tuple[int, int, int] | None:
    """(r, n, m) when the set is {x1^m * u : u a degree-n monomial in x1..xr} with m
    the minimal x1-exponent, found by listing every such u; else None."""
    if not monomials.exps:
        return None
    degree = monomials.degree
    m = min(e[0] for e in monomials.exps)
    n = degree - m
    if n == 0:
        return (1, 0, degree)
    residual = {(e[0] - m,) + e[1:] for e in monomials.exps}
    r = 0
    for u in residual:
        for i, e in enumerate(u):
            if e:
                r = max(r, i + 1)
    expected = {u + (0,) * (monomials.num_vars - r) for u in monomials_of_degree(r, n)}
    return (r, n, m) if residual == expected else None


def pairwise_minimal_generators(gens) -> tuple:
    """The monomials divisible by no other one, tested pair by pair, in generator order."""
    unique = list(dict.fromkeys(tuple(e) for e in gens))
    kept = [
        m
        for i, m in enumerate(unique)
        if not any(all(x <= y for x, y in zip(other, m)) for j, other in enumerate(unique) if j != i and other != m)
    ]
    return tuple(sorted(kept, key=_generator_key))
