import random
from fractions import Fraction

import pytest

from ginalg import (
    Form,
    MonomialSet,
    common_factor,
    detect_gin_shape,
    divide_subspace,
    echelonize,
    format_form,
    gcd_forms,
    hyperplane_factor_probe,
    make_instance,
    monomials_of_degree,
    normalize_form,
    parse_form,
    random_form,
    verify_main_theorem,
)
from ginalg.subspaces import _is_borel_closed, borel_generators
from oracles import (
    all_exchanges_borel_closed,
    borel_closure,
    enumerating_gin_shape,
    exact_quotient,
    mul,
    oracle_gcd,
    scale,
)


def F(text, s):
    return parse_form(text, s)


def mset(s, exps):
    return MonomialSet(s, sum(next(iter(exps))), frozenset(exps)) if exps else MonomialSet(s, 0, frozenset())


# -- gcd -----------------------------------------------------------------------


def test_gcd_examples():
    assert gcd_forms(F("x1^2*x2", 3), F("x1*x2^2", 3)) == F("x1*x2", 3)
    assert gcd_forms(F("x1^2 - x2^2", 2), F("x1^2 + 2*x1*x2 + x2^2", 2)) == F("x1 + x2", 2)
    assert gcd_forms(F("2/3*x1^2 - 2/3*x2^2", 2), Form(2, 2, {})) == F("x1^2 - x2^2", 2)
    assert gcd_forms(mul(F("x1*x2", 3), F("x1 + x2 + x3", 3)), F("x1*x2*x3", 3)) == F("x1*x2", 3)


def test_gcd_of_two_zeros_rejected():
    with pytest.raises(ValueError):
        gcd_forms(Form(2, 1, {}), Form(2, 3, {}))


def test_gcd_coprime_and_constants():
    assert gcd_forms(F("x1^2", 3), F("x2^2", 3)) == F("1", 3)
    assert gcd_forms(F("3", 2), F("x1 + x2", 2)) == F("1", 2)


def test_gcd_matches_oracle_on_structured_pairs():
    rng = random.Random(8)
    checked = 0
    while checked < 40:
        s = rng.choice([2, 3, 3])
        if checked % 2 == 0:
            f = random_form(rng, s, rng.randint(1, 4), 5)
            g = random_form(rng, s, rng.randint(1, 4), 5)
        else:
            dc = rng.randint(1, 2)
            c = random_form(rng, s, dc, 3)
            f = mul(random_form(rng, s, rng.randint(0, 4 - dc), 3), c)
            g = mul(random_form(rng, s, rng.randint(0, 4 - dc), 3), c)
        if f.is_zero() or g.is_zero():
            continue
        assert gcd_forms(f, g) == oracle_gcd(f, g)
        checked += 1


def test_gcd_common_multiplier_scales():
    rng = random.Random(9)
    for _ in range(10):
        f = random_form(rng, 3, 2, 4)
        g = random_form(rng, 3, 2, 4)
        c = random_form(rng, 3, 1, 4)
        if f.is_zero() or g.is_zero() or c.is_zero():
            continue
        base = gcd_forms(f, g)
        lifted = gcd_forms(mul(f, c), mul(g, c))
        assert lifted == normalize_form(mul(base, c))


def _random_form(rng, s, degree, bound, density):
    terms = {e: Fraction(rng.randint(-bound, bound)) for e in monomials_of_degree(s, degree) if rng.random() < density}
    return Form(s, degree, terms)


def _sympy_gcd(f, g):
    """sympy's gcd, normalized the way gcd_forms normalizes."""
    sympy = pytest.importorskip("sympy")
    num_vars = f.num_vars
    f, g = (sympy.sympify(format_form(h).replace("^", "**")) for h in (f, g))
    h = sympy.Poly(sympy.gcd(f, g), *sympy.symbols(f"x1:{num_vars + 1}"))
    return normalize_form(Form.from_terms(num_vars, {m: Fraction(int(c.p), int(c.q)) for m, c in h.terms()}))


@pytest.mark.parametrize("s", [2, 3, 4, 5])
@pytest.mark.parametrize("density", [1.0, 0.4])
def test_gcd_matches_sympy(s, density):
    rng = random.Random(100 * s + int(10 * density))
    checked = 0
    while checked < 8:
        if checked % 2:
            c = _random_form(rng, s, rng.randint(1, 2), 9, density)
            f = mul(_random_form(rng, s, rng.randint(0, 2), 9, density), c)
            g = mul(_random_form(rng, s, rng.randint(0, 2), 9, density), c)
        else:
            f = _random_form(rng, s, rng.randint(1, 3), 9, density)
            g = _random_form(rng, s, rng.randint(1, 3), 9, density)
        if f.is_zero() or g.is_zero():
            continue
        if checked % 4 == 3:
            f, g = scale(f, Fraction(rng.randint(1, 9), rng.randint(2, 9))), scale(g, Fraction(-1, rng.randint(2, 9)))
        assert gcd_forms(f, g) == _sympy_gcd(f, g)
        checked += 1


def test_gcd_planted_factors_in_five_variables():
    rng = random.Random(55)
    for factor_degree in (2, 3):
        for degree in (4, 5):
            c = random_form(rng, 5, factor_degree, 9)
            f = mul(random_form(rng, 5, degree - factor_degree, 9), c)
            g = mul(random_form(rng, 5, degree - factor_degree, 9), c)
            h = gcd_forms(f, g)
            assert h == _sympy_gcd(f, g) and h.degree >= factor_degree


def test_gcd_of_constants_matches_sympy():
    for f, g in [(F("6", 2), F("4", 2)), (F("3/2", 3), F("x1*x2 - x3^2", 3)), (F("-2*x1", 2), F("4*x1", 2))]:
        assert gcd_forms(f, g) == _sympy_gcd(f, g)


def test_zero_variable_forms():
    six, four = F("6", 0), F("4", 0)
    assert gcd_forms(six, four) == F("1", 0)
    assert gcd_forms(six, Form(0, 0, {})) == F("1", 0)
    assert exact_quotient(four, six) == F("2/3", 0)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_try_divide_exact_products(s):
    rng = random.Random(s)
    for density in (1.0, 0.4):
        for _ in range(6):
            f = _random_form(rng, s, rng.randint(0, 3), 9, density)
            f = scale(f, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            p = _random_form(rng, s, rng.randint(0, 2), 9, density)
            if p.is_zero():
                continue
            assert exact_quotient(mul(f, p), p) == f
    assert exact_quotient(F("x1^2 + x2^2", 2), F("x1 + x2", 2)) is None
    assert exact_quotient(F("x1*x2", 2), F("x1^2", 2)) is None
    assert exact_quotient(F("x1", 2), F("x1^2", 2)) is None


# -- common factor and division --------------------------------------------------


def test_common_factor_coprime():
    space = echelonize([F("x1^2", 2), F("x2^2", 2)])
    factor, degree = common_factor(space)
    assert degree == 0 and factor == F("1", 2)


def test_common_factor_planted_linear():
    linear = F("x1 + x2 + x3", 3)
    space = echelonize([mul(F(x, 3), linear) for x in ("x1", "x2", "x3")])
    factor, degree = common_factor(space)
    assert degree == 1 and factor == normalize_form(linear)


def test_common_factor_round_trip():
    for seed in range(6):
        space, p, cofactor = make_instance(4, 3, 1, 1, seed=seed)
        factor, degree = common_factor(space)
        assert degree == 1 and factor == normalize_form(p)
        assert divide_subspace(space, factor).dim == space.dim


def test_common_factor_zero_subspace():
    with pytest.raises(ValueError, match="zero subspace"):
        common_factor(echelonize([], num_vars=2, degree=2))


def test_divide_subspace():
    space = echelonize([F("x1^2*x2", 2), F("x1*x2^2", 2)])
    quotient = divide_subspace(space, F("x1*x2", 2))
    assert quotient == echelonize([F("x1", 2), F("x2", 2)])
    assert divide_subspace(space, F("1", 2)) == space


def test_divide_subspace_round_trip():
    for seed in range(5):
        space, p, cofactor = make_instance(3, 3, 2, 1, seed=seed)
        assert divide_subspace(space, p) == cofactor


def test_divide_subspace_names_offender():
    space = echelonize([F("x1^2", 2), F("x2^2", 2)])
    for divisor, message in [
        (F("x1", 2), "does not divide basis form"),
        (F("0", 2), "cannot divide a subspace by zero"),
        (F("x1", 3), "forms over different variable counts: 2 vs 3"),
    ]:
        with pytest.raises(ValueError, match=message):
            divide_subspace(space, divisor)


# -- shape detection --------------------------------------------------------------


def test_detect_gin_shape():
    assert detect_gin_shape(mset(4, {(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)})) == (3, 1, 1)
    assert detect_gin_shape(mset(4, {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)})) == (2, 2, 0)
    assert detect_gin_shape(mset(4, {(1, 1, 0, 0)})) is None
    assert detect_gin_shape(mset(3, {(3, 0, 0)})) == (1, 0, 3)
    assert detect_gin_shape(MonomialSet(3, 2, frozenset())) is None
    assert detect_gin_shape(mset(3, {(0, 0, 0)})) == (1, 0, 0)
    # Borel-closed with the two Borel generators x2^2 and x1*x3
    two = mset(3, {(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)})
    assert sorted(borel_generators(two.exps)) == [(0, 2, 0), (1, 0, 1)] and detect_gin_shape(two) is None
    # one Borel generator, x1*x2*x3, but not of the form x1^m * x_r^n
    assert detect_gin_shape(mset(3, borel_closure({(1, 1, 1)}))) is None


def _monomial_sets(st):
    """A hypothesis strategy: a MonomialSet with s = 1..6 and d = 0..4, drawn at random, as
    the Borel closure of such a draw, as a planted x1^m * (x1..xr)^n, or as one with a
    member removed."""

    @st.composite
    def monomial_sets(draw):
        s, d = draw(st.integers(1, 6)), draw(st.integers(0, 4))
        kind = draw(st.sampled_from(("random", "closure", "planted", "planted less one")))
        if kind in ("random", "closure"):
            exps = set(draw(st.lists(st.sampled_from(monomials_of_degree(s, d)), max_size=8)))
            exps = borel_closure(exps) if kind == "closure" else exps
        else:
            r, n = draw(st.integers(1, s)), draw(st.integers(0, d))
            exps = {(d - n + u[0],) + u[1:] + (0,) * (s - r) for u in monomials_of_degree(r, n)}
            if kind == "planted less one":
                exps.discard(draw(st.sampled_from(sorted(exps))))
        return MonomialSet(s, d, frozenset(exps))

    return monomial_sets()


def test_detect_gin_shape_matches_the_enumerating_reference():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(_monomial_sets(hypothesis.strategies))
    def check(monomials):
        assert detect_gin_shape(monomials) == enumerating_gin_shape(monomials)

    check()


def test_elementary_exchanges_decide_closure_and_generators():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(_monomial_sets(hypothesis.strategies))
    def check(monomials):
        exps = monomials.exps
        closed = _is_borel_closed(exps, exps.__contains__)
        assert closed == all_exchanges_borel_closed(exps, exps.__contains__)
        if closed:
            generators = borel_generators(exps)
            assert borel_closure(generators) == exps
            assert all(g not in borel_closure(set(generators) - {g}) for g in generators)

    check()


# -- main theorem ------------------------------------------------------------------


def test_verify_planted_instance():
    space, p, _ = make_instance(4, 3, 1, 1, seed=2)
    report = verify_main_theorem(space, trials=3, seed=12)
    assert report.status == "certificate"
    cert = report.certificate
    assert cert.factor_degree == 1 and cert.checked
    assert cert.factor == normalize_form(p)


def test_verify_generic_quadrics_not_applicable():
    rng = random.Random(14)
    space = echelonize([random_form(rng, 4, 2, 100) for _ in range(3)], num_vars=4, degree=2)
    report = verify_main_theorem(space, trials=3, seed=14)
    assert report.status == "not-applicable"
    assert report.shape is not None and report.shape[2] == 0


def test_verify_full_cofactor_case():
    # s = r = 3 with the full S_n as cofactor space
    rng = random.Random(15)
    p = random_form(rng, 3, 1, 9)
    full = echelonize([Form(3, 2, {e: 1}) for e in monomials_of_degree(3, 2)])
    space = echelonize([mul(w, p) for w in full.basis], num_vars=3, degree=3)
    report = verify_main_theorem(space, trials=3, seed=15)
    assert report.status == "certificate"
    assert report.certificate.cofactor_space == full
    assert report.shape == (3, 2, 1)


def test_verify_requires_revlex():
    from ginalg import LEX

    with pytest.raises(ValueError, match="revlex"):
        verify_main_theorem(echelonize([F("x1^2", 3)], LEX))


# -- make_instance ------------------------------------------------------------------


def test_make_instance_dimensions():
    V, p, W = make_instance(4, 3, 1, 1, seed=0)
    assert V.dim == 3 and V.degree == 2 and p.degree == 1
    V, p, W = make_instance(3, 3, 2, 1, seed=0)
    assert V.dim == 6 and W.dim == 6  # full S_2 in three variables


def test_make_instance_determinism_and_validation():
    assert make_instance(4, 3, 1, 2, seed=3) == make_instance(4, 3, 1, 2, seed=3)
    with pytest.raises(ValueError):
        make_instance(3, 4, 1, 1, seed=0)
    with pytest.raises(ValueError):
        make_instance(3, 3, 1, 0, seed=0)


# -- hyperplane probe -----------------------------------------------------------------


def test_probe_planted_instance():
    space, p, _ = make_instance(4, 3, 1, 1, seed=4)
    report = hyperplane_factor_probe(space, expected_m=1, trials=6, seed=10_004)
    assert all(s.factor_degree is not None and s.factor_degree >= 1 for s in report.samples)
    assert report.consistent and not report.anomaly
    assert report.subspace_factor_degree == 1


def test_probe_coprime_subspace():
    space = echelonize([F("x1^2", 3), F("x2^2", 3)])
    report = hyperplane_factor_probe(space, trials=8, seed=21)
    degrees = [s.factor_degree for s in report.samples]
    assert degrees.count(0) >= 7  # restrictions stay coprime generically
    assert not report.anomaly


def test_probe_dim_one_subspace():
    f = F("x1*x2*x3", 3)
    space = echelonize([f])
    report = hyperplane_factor_probe(space, trials=5, seed=31)
    for sample in report.samples:
        assert sample.factor_degree in (None, 3)  # the whole form, unless it vanishes
    assert report.subspace_factor_degree == 3
