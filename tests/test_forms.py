import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from ginalg import (
    LEX,
    MIXED,
    REVLEX,
    CoordinateChange,
    Form,
    ParseError,
    apply_change,
    format_form,
    format_monomial,
    initial_monomial,
    monomial_key,
    monomials_of_degree,
    normalize_form,
    parse_form,
    restrict,
    sort_monomials,
    try_divide,
)
from oracles import ORDER_ORACLES


def F(text, s):
    return parse_form(text, s)


# -- orders -------------------------------------------------------------------


def test_revlex_descending_s3_d2():
    ordered = sort_monomials(REVLEX, monomials_of_degree(3, 2))
    assert [format_monomial(e) for e in ordered] == [
        "x1^2",
        "x1*x2",
        "x2^2",
        "x1*x3",
        "x2*x3",
        "x3^2",
    ]


def _cmp(order, a, b):
    """-1, 0 or 1 as a is below, equal to or above b under the order."""
    ka, kb = monomial_key(order, a), monomial_key(order, b)
    return (ka > kb) - (ka < kb)


def test_compare_examples():
    assert _cmp(REVLEX, (0, 2, 0), (1, 0, 1)) == 1
    assert _cmp(REVLEX, (1, 1, 0), (1, 1, 0)) == 0
    assert _cmp(LEX, (1, 1, 0), (1, 1, 0)) == 0
    # mixed: smaller last exponent wins
    assert _cmp(MIXED, (0, 3, 0, 0), (2, 0, 0, 1)) == 1


@pytest.mark.parametrize("order", [REVLEX, LEX, MIXED])
def test_order_matches_definition_oracle(order):
    oracle = ORDER_ORACLES[order]
    rng = random.Random(13)
    for s, d in [(2, 3), (3, 2), (3, 4), (4, 3)]:
        monomials = monomials_of_degree(s, d)
        for _ in range(200):
            a, b = rng.choice(monomials), rng.choice(monomials)
            got = _cmp(order, a, b)
            if a == b:
                assert got == 0
            else:
                assert got == (1 if oracle(a, b) else -1)


@pytest.mark.parametrize("order", [REVLEX, LEX, MIXED])
def test_order_axioms(order):
    rng = random.Random(29)
    monomials = monomials_of_degree(4, 3)
    for _ in range(200):
        a, b, c = (rng.choice(monomials) for _ in range(3))
        ab = _cmp(order, a, b)
        assert _cmp(order, b, a) == -ab  # antisymmetry
        assert (ab == 0) == (a == b)  # totality: equal keys only on equal monomials
        if ab == 1 and _cmp(order, b, c) == 1:
            assert _cmp(order, a, c) == 1  # transitivity


def test_revlex_multiplicative():
    rng = random.Random(31)
    monomials = monomials_of_degree(3, 3)
    shifts = monomials_of_degree(3, 2)
    for _ in range(200):
        a, b = rng.choice(monomials), rng.choice(monomials)
        if a == b:
            continue
        c = rng.choice(shifts)
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert _cmp(REVLEX, a, b) == _cmp(REVLEX, ac, bc)


# -- initial monomial -----------------------------------------------------------


def test_initial_monomial():
    f = F("x1*x3 - x2^2", 3)
    assert initial_monomial(f, REVLEX) == (0, 2, 0)
    assert initial_monomial(f, LEX) == (1, 0, 1)
    assert initial_monomial(F("x1^2", 3), REVLEX) == (2, 0, 0)


def test_initial_monomial_of_zero():
    with pytest.raises(ValueError, match="initial monomial of zero"):
        initial_monomial(Form.zero(3, 2), REVLEX)


# -- arithmetic ------------------------------------------------------------------


def test_multiply():
    assert F("x1 + x2", 2) * F("x1 - x2", 2) == F("x1^2 - x2^2", 2)
    assert F("x1 + x2 + x3", 3) * F("x2", 3) == F("x1*x2 + x2^2 + x2*x3", 3)
    product = F("x1^2", 3) * Form.zero(3, 3)
    assert product.is_zero() and product.degree == 5


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        F("x1", 2) + F("x1^2", 2)


def test_apply_change_identity():
    f = F("x1^2 - 1/2*x2*x3", 3)
    assert apply_change(f, CoordinateChange.identity(3)) == f


def test_apply_change_binomial():
    shear = CoordinateChange([[1, 1], [0, 1]])  # x1 -> x1 + x2
    assert apply_change(F("x1^2", 2), shear) == F("x1^2 + 2*x1*x2 + x2^2", 2)


def test_apply_change_permutation():
    swap = CoordinateChange([[0, 1], [1, 0]])
    assert apply_change(F("x1^2*x2", 2), swap) == F("x1*x2^2", 2)


def test_apply_change_composition_and_multiplicativity():
    rng = random.Random(5)
    for _ in range(10):
        rows1 = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        rows2 = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        try:
            m1, m2 = CoordinateChange(rows1), CoordinateChange(rows2)
        except ValueError:
            continue
        f = F("x1*x3 - x2^2", 3)
        g = F("x1 + 2*x3", 3)
        # applying m1 and then m2 substitutes x_i -> sum_k m1[i][k] * sum_j m2[k][j] * x_j
        product = [[sum(rows1[i][k] * rows2[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        assert apply_change(apply_change(f, m1), m2) == apply_change(f, CoordinateChange(product))
        assert apply_change(f * g, m1) == apply_change(f, m1) * apply_change(g, m1)
        assert apply_change(f + (-f), m1).is_zero()


def test_singular_change_rejected():
    with pytest.raises(ValueError, match="singular"):
        CoordinateChange([[1, 2], [2, 4]])


def test_singular_exactly_when_determinant_is_zero():
    def det(m):
        # Leibniz formula, independent of the elimination CoordinateChange runs
        total = 0
        for p in permutations(range(len(m))):
            inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
            total += (-1) ** inversions * prod(m[i][p[i]] for i in range(len(m)))
        return total

    rng = random.Random(17)
    singular = 0
    for _ in range(300):
        s = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(s)] for _ in range(s)]
        try:
            CoordinateChange(rows)
        except ValueError:
            singular += 1
            assert det(rows) == 0
        else:
            assert det(rows) != 0
    assert singular > 30


def test_change_images_are_the_matrix_scaled_to_integers():
    change = CoordinateChange([[Fraction(1, 2), 1], [0, Fraction(-1, 3)]])
    assert change.denominator == 6
    assert change.images == (((0, 3), (1, 6)), ((1, -2),))


def test_restrict_examples():
    assert restrict(F("x1^2 + x3*x4", 4), F("x4", 4)) == F("x1^2", 3)
    assert restrict(F("x2^2", 2), F("x1 - x2", 2)) == F("x1^2", 1)
    assert restrict(F("x1*x3", 3), F("x1 + x2 + x3", 3)) == F("-x1^2 - x1*x2", 2)


def test_restrict_zero_hyperplane():
    with pytest.raises(ValueError):
        restrict(F("x1^2", 3), Form.zero(3, 1))


def test_restrict_vanishes_iff_divides():
    from ginalg import gcd_forms, normalize_form

    rng = random.Random(41)
    for _ in range(30):
        coeffs = [rng.randint(-3, 3) for _ in range(3)]
        if not any(coeffs):
            continue
        linear = Form.from_terms(
            3, {tuple(1 if j == i else 0 for j in range(3)): Fraction(c) for i, c in enumerate(coeffs)}
        )
        other = F("x1 + x2", 3) if rng.random() < 0.5 else F("x2 - x3", 3)
        multiple = linear * other
        assert restrict(multiple, linear).is_zero()
        assert gcd_forms(multiple, linear) == normalize_form(linear)
        survivor = F("x1^2", 3)
        divides = try_divide(survivor, linear) is not None
        assert restrict(survivor, linear).is_zero() == divides
        assert (gcd_forms(survivor, linear) == normalize_form(linear)) == divides


def _inverse_matrix(change):
    # fraction Gauss-Jordan, local to the test
    s = change.num_vars
    work = [list(row) + [Fraction(int(i == j)) for j in range(s)] for i, row in enumerate(change.matrix)]
    for col in range(s):
        pivot = next(r for r in range(col, s) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv = Fraction(1) / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(s):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [row[s:] for row in work]


def test_restrict_commutes_with_change_up_to_quotient_coordinates():
    # restrict(apply_change(f, M), x_s) matches restrict(f, l) for l the
    # preimage hyperplane; checked through dimension and vanishing only,
    # since the quotient coordinates are identified by convention.
    from ginalg import echelonize, restrict_subspace, transform_subspace

    rng = random.Random(47)
    s = 3
    for trial in range(12):
        rows = [[rng.randint(-4, 4) for _ in range(s)] for _ in range(s)]
        try:
            change = CoordinateChange(rows)
        except ValueError:
            continue
        inverse = _inverse_matrix(change)
        preimage = Form.from_terms(
            s,
            {
                tuple(1 if j == i else 0 for j in range(s)): inverse[s - 1][i]
                for i in range(s)
                if inverse[s - 1][i] != 0
            },
        )
        assert apply_change(preimage, change) == F("x3", 3)
        for f in (F("x1*x3 - x2^2", 3), F("x1^2 + x2*x3", 3), preimage * F("x1 + x2", 3)):
            direct = restrict(apply_change(f, change), F("x3", 3))
            through = restrict(f, preimage)
            assert direct.is_zero() == through.is_zero()
        space = echelonize([F("x1^2", 3), F("x1*x2", 3), F("x2*x3", 3)])
        lhs = restrict_subspace(transform_subspace(space, change), F("x3", 3))
        rhs = restrict_subspace(space, preimage)
        assert lhs.dim == rhs.dim


def test_try_divide():
    f = F("x1^2 - x2^2", 2)
    assert try_divide(f, F("x1 + x2", 2)) == F("x1 - x2", 2)
    assert try_divide(f, F("x1", 2)) is None
    assert try_divide(f, F("2", 2)) == F("1/2*x1^2 - 1/2*x2^2", 2)


# -- text format ------------------------------------------------------------------


def test_parse_examples():
    f = F("x1^2 - 1/2*x2*x3", 3)
    assert f.coefficient((2, 0, 0)) == 1
    assert f.coefficient((0, 1, 1)) == Fraction(-1, 2)
    assert F("3*x1*x1", 2) == F("3*x1^2", 2)
    assert F("0", 3).is_zero()


def test_parse_inhomogeneous():
    with pytest.raises(ValueError, match="degrees 1 and 2"):
        parse_form("x1 + x2^2", 2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="position"):
        parse_form("x1 + + x2", 2)
    with pytest.raises(ParseError, match="out of range"):
        parse_form("x5", 3)
    with pytest.raises(ParseError):
        parse_form("", 3)


@pytest.mark.parametrize(
    "text, position",
    [
        ("x1x2", 2),
        ("2x1", 1),
        ("x1*2", 2),
        ("x 1", 0),
        ("1/0", 2),
        ("x1^2^3", 4),
        ("--x1", 1),
        ("x1 +", 4),
        ("x1\u00b2", 2),
    ],
)
def test_malformed_text_raises_positioned_parse_error(text, position):
    # a term that does not match is reported at its start, after its sign
    with pytest.raises(ParseError) as info:
        parse_form(text, 2)
    assert 0 <= info.value.position <= len(text)
    assert info.value.position == position


def test_parse_grammar_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def spelled_forms(draw):
        """A string in the grammar, and the Form built from the structure drawn for it."""
        num_vars, degree = draw(st.integers(1, 4)), draw(st.integers(0, 3))

        def spell(n: int) -> str:
            return "0" * draw(st.integers(0, 2)) + str(n)

        tokens, terms = [], {}
        for k in range(draw(st.integers(1, 4))):
            sign = draw(st.sampled_from(["+", "-"] if k else ["", "+", "-"]))
            exps = draw(st.sampled_from(monomials_of_degree(num_vars, degree)))
            factors = []
            for i, e in enumerate(exps):
                while e:  # x_i^e as repeated factors x_i^part
                    part = draw(st.integers(1, e))
                    bare = part == 1 and draw(st.booleans())
                    factors.append([f"x{spell(i + 1)}"] + ([] if bare else ["^", spell(part)]))
                    e -= part
            for i in draw(st.lists(st.integers(1, num_vars), max_size=2)):
                factors.append([f"x{spell(i)}", "^", spell(0)])
            factors = draw(st.permutations(factors))
            coeff = Fraction(1)
            rational = []
            if not factors or draw(st.booleans()):
                numerator, denominator = draw(st.integers(0, 30)), draw(st.none() | st.integers(1, 9))
                coeff = Fraction(numerator, denominator or 1)
                rational = [spell(numerator)] + ([] if denominator is None else ["/", spell(denominator)])
                rational += ["*"] if factors else []
            tokens += ([sign] if sign else []) + rational + [t for j, f in enumerate(factors) for t in ["*"] * (j > 0) + f]
            terms[exps] = terms.get(exps, Fraction(0)) + (-coeff if sign == "-" else coeff)
        gap = st.sampled_from(["", " ", "\t", "  ", "\u00a0"])
        text = "".join(draw(gap) + t for t in tokens) + draw(gap)
        return text, Form(num_vars, degree, terms)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(spelled_forms())
    def check(case):
        text, expected = case
        assert parse_form(text, expected.num_vars) == expected

    check()


def test_format_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        terms = {}
        for e in monomials_of_degree(3, 3):
            c = rng.randint(-6, 6)
            if c:
                terms[e] = Fraction(c, rng.randint(1, 4))
        f = Form.from_terms(3, terms) if terms else Form.zero(3, 3)
        assert parse_form(format_form(f), 3) == f
    assert format_form(Form.zero(3, 2)) == "0"
    assert format_form(Form.one(3)) == "1"


def test_format_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def forms(draw):
        num_vars, degree = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        monomials = monomials_of_degree(num_vars, degree)
        coeff = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
        return Form(num_vars, degree, {e: draw(coeff) for e in monomials if draw(st.booleans())})

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(forms())
    def check(f):
        # "0" carries no degree, so the zero form comes back in degree 0
        expected = Form.zero(f.num_vars, 0) if f.is_zero() else f
        assert parse_form(format_form(f), f.num_vars) == expected

    check()


def test_normalize_form():
    f = F("2/3*x1^2 - 4/3*x2^2", 2)
    assert normalize_form(f) == F("x1^2 - 2*x2^2", 2)
    assert normalize_form(-f) == F("x1^2 - 2*x2^2", 2)
    assert normalize_form(F("5", 2)) == Form.one(2)
