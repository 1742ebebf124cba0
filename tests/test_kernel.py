"""The integer-row kernel against the Fraction-arithmetic reference in oracles.py.

Substitution (`apply_change`, `restrict`, `transform_subspace`,
`restrict_subspace`) and elimination (`echelonize`, and the reduction
`subspaces._reduce` behind `contains`) must give exactly the reference
results: reduced echelon form is unique, so bases compare for equality.
`initial_after_change`, which reads in(gV) from columns without building
gV, must give the pivots of `transform_subspace`; `ideal_graded_piece`,
which returns only pivots, must give those of the reference piece and the
leading terms of sympy's grevlex Groebner basis.

Elimination is forward only; the back-substitution to canonical rows runs
once, when a Subspace's `rows` are first read, and pivot-only reads, gin
trials among them, never run it.
"""

import json
import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from ginalg import (
    CoordinateChange,
    apply_change,
    Form,
    Subspace,
    contains,
    echelonize,
    gin_subspace,
    ideal_graded_piece,
    initial_after_change,
    initial_subspace,
    monomials_of_degree,
    parse_form,
    random_change,
    random_form,
    random_subspace,
    restrict,
    restrict_subspace,
    transform_subspace,
)
from ginalg import cli
from ginalg import forms as forms_module
from ginalg import gin as gin_module
from ginalg import subspaces
from ginalg.forms import ORDER_NAMES, REVLEX, format_form, integer_row, sort_monomials
from ginalg.gin import random_prime
from oracles import (
    add,
    scale,
    spanning_args,
    oracle_apply_change,
    oracle_echelonize,
    oracle_ideal_graded_piece,
    oracle_random_subspace,
    oracle_reduce,
    oracle_restrict,
)

CASES = [(order, s) for order in ORDER_NAMES for s in (3, 4, 5)]


def _sparse_form(rng, s, d, bound=6, density=0.5):
    terms = {
        e: Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
        for e in monomials_of_degree(s, d)
        if rng.random() < density
    }
    return Form(s, d, terms)


def _change(rng, s, rational):
    while True:
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4) if rational else 1) for _ in range(s)]
            for _ in range(s)
        ]
        try:
            return CoordinateChange(rows)
        except ValueError:
            continue


def _linear(rng, s):
    h = random_form(rng, s, 1, 5)
    while h.is_zero():
        h = random_form(rng, s, 1, 5)
    return scale(h, Fraction(1, rng.randint(1, 4)))


def _independent_and_dependent(rng, s, d, count, density=0.5):
    """count random forms, then combinations of them, zero forms and rescalings."""
    forms = [_sparse_form(rng, s, d, density=density) for _ in range(count)]
    extra = [
        scale(forms[0], Fraction(-3, 2)),
        add(forms[0], scale(forms[-1], 5)) if count > 1 else forms[0],
        Form(s, d, {}),
        Form(s, 0, {}),  # a zero form of another degree is ignored
    ]
    return forms + extra


@pytest.mark.parametrize("order,s", CASES)
def test_echelonize_matches_reference(order, s):
    rng = random.Random(1000 * s + len(order))
    for density, d in [(0.5, 2), (0.5, 3), (0.5, 4), (1.0, 2), (1.0, 3), (1.0, 4)]:
        forms = _independent_and_dependent(rng, s, d, 4 + s, density)
        expected = oracle_echelonize(forms, order, s, d)
        got = echelonize(forms, order, num_vars=s, degree=d)
        # the hash reads only the pivots, before and after the rows are built
        pivot_hash = hash(got)
        assert got == expected and hash(got) == pivot_hash == hash(expected)
        for _ in range(3):
            shuffled = forms[:]
            rng.shuffle(shuffled)
            scaled = [scale(f, Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 7))) for f in shuffled]
            other = echelonize(scaled, order, num_vars=s, degree=d)
            assert hash(other) == pivot_hash
            assert other == expected


@pytest.mark.parametrize("order,s", CASES)
def test_reduce_form_matches_reference(order, s):
    rng = random.Random(2000 * s + len(order))
    space = echelonize([_sparse_form(rng, s, 2) for _ in range(s)], order, num_vars=s, degree=2)
    for _ in range(4):
        f = _sparse_form(rng, s, 2, density=0.8)
        # the reduction returns the primitive positive multiple of the normal form
        expected = oracle_reduce(f, list(space.basis), order)
        assert subspaces._reduce(space.rows, integer_row(f)[0]) == integer_row(expected)[0]
        assert contains(space, f) == expected.is_zero()
    assert contains(space, scale(space.basis[0], Fraction(7, 3)))


@pytest.mark.parametrize("order,s", CASES)
@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_transform_subspace_matches_reference(order, s, rational):
    rng = random.Random(3000 * s + len(order) + rational)
    d = 3 if s < 5 else 2
    space = echelonize([_sparse_form(rng, s, d) for _ in range(s + 1)], order, num_vars=s, degree=d)
    change = _change(rng, s, rational)
    moved = [oracle_apply_change(f, change) for f in space.basis]
    assert [apply_change(f, change) for f in space.basis] == moved
    assert transform_subspace(space, change) == oracle_echelonize(moved, order, s, d)


def _after_change_oracle(space, change):
    return initial_subspace(transform_subspace(space, change))


@pytest.mark.parametrize("order", ORDER_NAMES)
@pytest.mark.parametrize("s,d", [(s, d) for s in range(1, 6) for d in range(5)])
def test_initial_after_change_matches_moved_subspace(order, s, d):
    rng = random.Random(9000 + 10 * s + d + len(order))
    ambient = comb(d + s - 1, s - 1)
    spaces = [
        echelonize([], order, num_vars=s, degree=d),
        echelonize(
            [_sparse_form(rng, s, d, density=0.3) for _ in range(max(1, ambient // 3))], order, num_vars=s, degree=d
        ),
        random_subspace(s, d, (ambient + 1) // 2, seed=rng.getrandbits(32), bound=3, order=order),
        echelonize([Form(s, d, {e: 1}) for e in monomials_of_degree(s, d)], order),
    ]
    # bound 1 draws are often far from generic, so their pivots are not an initial segment
    changes = [random_change(s, rng.getrandbits(32), bound=1) for _ in range(2)]
    changes += [_change(rng, s, rational=False), _change(rng, s, rational=True)]
    for space in spaces:
        for change in changes:
            assert initial_after_change(*spanning_args(space), change) == _after_change_oracle(space, change)


@pytest.mark.parametrize("order", ORDER_NAMES)
@pytest.mark.parametrize("multiplier,factor_degree", [((0, 0, 0, 0, 2), 2), ((3, 0, 0, 0, 0), 1)])
def test_initial_after_change_of_monomial_subspaces(order, multiplier, factor_degree):
    """x5^2 * S_2 and x1^3 * S_1 in s=5, d=4: sparse rows whose moved pivots a greedy
    scan reaches only after many dependent columns."""
    rng = random.Random(9500 + sum(multiplier) + len(order))
    monomials = [tuple(a + b for a, b in zip(multiplier, e)) for e in monomials_of_degree(5, factor_degree)]
    space = echelonize([Form(5, 4, {e: 1}) for e in monomials], order)
    identity = CoordinateChange([[int(i == j) for j in range(5)] for i in range(5)])
    changes = [random_change(5, seed, bound=1) for seed in range(3)] + [random_change(5, 7)]
    changes += [_change(rng, 5, rational=True), identity]
    for change in changes:
        got = initial_after_change(*spanning_args(space), change)
        assert got == _after_change_oracle(space, change) and len(got) == space.dim
    assert initial_after_change(*spanning_args(space), identity).exps == frozenset(monomials)


def test_initial_after_change_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        s = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(0, 3))
        order = data.draw(st.sampled_from(ORDER_NAMES))
        monomials = monomials_of_degree(s, d)
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        forms = data.draw(
            st.lists(st.lists(coeff, min_size=len(monomials), max_size=len(monomials)), max_size=len(monomials))
        )
        space = echelonize([Form(s, d, dict(zip(monomials, cs))) for cs in forms], order, num_vars=s, degree=d)
        entry = st.fractions(min_value=-2, max_value=2, max_denominator=2)
        matrix = data.draw(st.lists(st.lists(entry, min_size=s, max_size=s), min_size=s, max_size=s))
        try:
            change = CoordinateChange(matrix)
        except ValueError:
            hypothesis.assume(False)
        assert initial_after_change(*spanning_args(space), change) == _after_change_oracle(space, change)

    check()


def test_gin_subspace_never_builds_the_moved_rows(monkeypatch):
    space = random_subspace(4, 3, 6, seed=3)
    seeds = gin_module._trial_seeds(5, 3)
    expected = [_after_change_oracle(space, random_change(4, ts)) for ts in seeds]

    def refuse(*args, **kwargs):
        raise AssertionError("the moved rows were built")

    for module, name in [
        (forms_module, "sym_power"),
        (subspaces, "sym_power"),
        (subspaces, "transform_subspace"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    report = gin_subspace(*spanning_args(space), trials=3, seed=5)
    assert report.seeds == seeds and report.stable
    assert expected == [report.result] * 3


def test_gin_command_runs_no_exact_elimination(monkeypatch, tmp_path, capsys):
    """The gin subcommand goes from the parsed forms to modular pivots: the integer row
    operation, which every exact elimination runs, is never called."""

    def refuse(*args, **kwargs):
        raise AssertionError("an exact elimination ran")

    monkeypatch.setattr(subspaces, "_cancel", refuse)
    path = tmp_path / "V.txt"
    path.write_text("s=4 d=2 order=revlex\nx1^2 - x2*x4\nx1*x2 - x3*x4\n0\nx1*x3 - x4^2\n-3*x1^2 + 3*x2*x4\n")
    assert cli.run(["gin", "--seed", "7", "--text", str(path)]) == 0
    assert capsys.readouterr().out == "stable x1^2 x1*x2 x2^2\n"
    assert cli.run(["gin", "--seed", "7", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "result": ["x1^2", "x1*x2", "x2^2"],
        "trials": 3,
        "agreements": 3,
        "stable": True,
        "seeds": [1390851128, 4071050724, 647892279],
    }


def test_scan_of_spanning_rows_equals_scan_of_echelon_rows():
    """Integer combinations and zero rows added to the echelon rows change no pivot,
    exactly or modulo a 61-bit prime."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(
        s=st.integers(1, 4), d=st.integers(0, 3), order=st.sampled_from(ORDER_NAMES), seed=st.integers(0, 2**32 - 1)
    )
    @hypothesis.example(s=1, d=0, order=REVLEX, seed=0)
    @hypothesis.example(s=1, d=3, order=REVLEX, seed=1)
    @hypothesis.example(s=4, d=0, order=REVLEX, seed=2)
    def check(s, d, order, seed):
        rng = random.Random(seed)
        monomials = monomials_of_degree(s, d)
        forms = [
            Form(s, d, {e: rng.randint(-3, 3) for e in monomials}) for _ in range(rng.randint(0, len(monomials)))
        ]
        space = echelonize(forms, order, num_vars=s, degree=d)
        echelon = list(space.rows.values())
        rows = echelon + [{}] * rng.randint(1, 2)
        for _ in range(rng.randint(0, 4) if echelon else 0):
            combination: dict = {}
            for row in echelon:
                a = rng.randint(-4, 4)
                for e, c in row.items():
                    combination[e] = combination.get(e, 0) + a * c
            rows.append({e: c for e, c in combination.items() if c})
        rng.shuffle(rows)
        change = random_change(s, rng.getrandbits(32), bound=rng.choice([1, 3, 100]))
        expected = _after_change_oracle(space, change)
        assert initial_after_change(rows, s, d, order, change) == expected
        prime = random_prime(rng.getrandbits(32))
        modular = initial_after_change(echelon, s, d, order, change, prime)
        assert initial_after_change(rows, s, d, order, change, prime) == modular
        assert modular == expected

    check()


def _column_pivots_oracle(rows, s, d, order, change, prime):
    """The greedy column basis of the moved rows, in this function's own arithmetic.  The
    scan works on column m of the moved rows times m! * D^d, D the change's denominator,
    an integer column; with a prime it reduces that column modulo it, and a factor that
    vanishes there empties the column.  Without one the scale moves no pivot, so this is
    `_after_change_oracle`."""
    moved = [oracle_apply_change(Form(s, d, row), change) for row in rows]
    denominators = change.denominator**d
    basis: dict[int, list] = {}
    pivots = []
    for m in sort_monomials(order, monomials_of_degree(s, d)):
        factor = denominators * prod(map(factorial, m))
        column = [f.terms.get(m, 0) * factor for f in moved]
        if prime is not None:
            column = [int(v) % prime for v in column]
        for r, vector in basis.items():
            if column[r]:
                a = column[r] * (pow(vector[r], -1, prime) if prime else 1 / Fraction(vector[r]))
                column = [c - a * v for c, v in zip(column, vector)]
                if prime is not None:
                    column = [c % prime for c in column]
        lead = next((r for r, c in enumerate(column) if c), None)
        if lead is not None:
            basis[lead] = column
            pivots.append(m)
    return frozenset(pivots)


def test_packed_column_scan_matches_the_column_oracle():
    """Entries of both signs up to 2^200, explicit zeros, zero and dependent rows,
    non-triangular changes with negative and fractional entries (whose l1 norms set the
    exact slot width), and primes 2, 3, 5 and a 61-bit one: the scan's pivots are the
    oracle's.  The draws are checked to have reached d=0, s=1 and every kind of prime."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(s=st.integers(1, 4), data=st.data())
    def check(s, data):
        # a high degree in few variables: exact images with coefficients near L^d
        d = data.draw(st.integers(0, 8 if s <= 2 else 3))
        order = data.draw(st.sampled_from(ORDER_NAMES))
        monomials = monomials_of_degree(s, d)
        entry = st.integers(-(2**200), 2**200)
        rows = data.draw(st.lists(st.dictionaries(st.sampled_from(monomials), entry), min_size=1, max_size=6))
        if len(rows) > 1 and data.draw(st.booleans()):
            a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
            rows.append({e: a * rows[0].get(e, 0) + b * rows[1].get(e, 0) for e in monomials})
        entries = st.fractions(min_value=-50, max_value=50, max_denominator=6)
        matrix = data.draw(st.lists(st.lists(entries, min_size=s, max_size=s), min_size=s, max_size=s))
        try:
            change = CoordinateChange(matrix)
        except ValueError:
            hypothesis.assume(False)
        prime = data.draw(st.sampled_from([None, 2, 3, 5, random_prime(data.draw(st.integers(0, 99)))]))
        got = initial_after_change(rows, s, d, order, change, prime)
        assert got.exps == _column_pivots_oracle(rows, s, d, order, change, prime)
        if prime is None:
            assert got == _after_change_oracle(Subspace(s, d, order, rows), change)
        seen.update({f"s={s}", f"d={d}", "61 bits" if prime and prime > 5 else prime})

    check()
    assert {"s=1", "d=0", None, 2, 3, 5, "61 bits"} <= seen
    # every entry of this change is 7, but its first column has l1 norm 14, and an image of
    # degree 4 has coefficients up to 6 * 7^4: a slot width set by 7^4 is too narrow
    change = CoordinateChange([[7, 0], [7, 7]])
    rows = [{(2, 2): 255}]
    expected = _column_pivots_oracle(rows, 2, 4, REVLEX, change, None)
    assert initial_after_change(rows, 2, 4, REVLEX, change).exps == expected == {(4, 0)}


def test_one_packing_serves_draws_of_different_widths():
    """A batch of draws shares one packing, its slot width set by the image bits of the
    widest draw, which the caller passes: here prime 3, then a 61-bit prime, then an exact
    non-triangular change with fractional entries, whose l1 norms need the widest slots.
    Draw by draw, the batch gives the pivots of that draw scanned alone and the column
    oracle's."""
    s, d, order = 3, 5, REVLEX
    rng = random.Random(26)
    monomials = monomials_of_degree(s, d)
    rows = [{e: rng.randint(-(2**40), 2**40) for e in rng.sample(monomials, 8)} for _ in range(5)]
    rows.append({e: rows[0].get(e, 0) - 2 * rows[1].get(e, 0) for e in monomials})
    exact = CoordinateChange([[Fraction(3, 2), -40, Fraction(7, 997)], [25, Fraction(-1, 991), 60], [Fraction(-9, 7), 33, 5]])
    draws = [(random_change(s, 1), 3), (random_change(s, 2), random_prime(0)), (exact, None)]
    # d * bits(L), L the largest l1 norm of a column of the exact change's integer images
    norm = exact.denominator * max(sum(map(abs, column)) for column in zip(*exact.matrix))
    widest = d * int(norm).bit_length()
    assert widest > random_prime(0).bit_length()
    batch = list(gin_module._scan_after_changes(rows, s, d, order, draws, widest))
    assert len(batch) == len(draws)
    for got, (change, prime) in zip(batch, draws):
        assert got == initial_after_change(rows, s, d, order, change, prime)
        assert got.exps == _column_pivots_oracle(rows, s, d, order, change, prime)


@pytest.mark.parametrize("order,s", CASES)
def test_restrict_subspace_matches_reference(order, s):
    rng = random.Random(4000 * s + len(order))
    d = 3 if s < 5 else 2
    space = echelonize([_sparse_form(rng, s, d) for _ in range(s + 2)], order, num_vars=s, degree=d)
    for linear in (_linear(rng, s), _linear(rng, s), parse_form(f"x{s}", s), parse_form("3*x1", s)):
        restricted = [oracle_restrict(f, linear) for f in space.basis]
        assert [restrict(f, linear) for f in space.basis] == restricted
        assert restrict_subspace(space, linear) == oracle_echelonize(restricted, order, s - 1, d)


@pytest.mark.parametrize("order,s", CASES)
def test_ideal_graded_piece_matches_reference(order, s):
    rng = random.Random(5000 * s + len(order))
    gens = [_sparse_form(rng, s, 2, density=0.4) for _ in range(2)] + [_sparse_form(rng, s, 3, density=0.3)]
    for d in (2, 3, 4, 5 if s < 5 else 4):
        assert ideal_graded_piece(gens, d, order, s) == initial_subspace(oracle_ideal_graded_piece(gens, d, order, s))


@pytest.mark.parametrize("s", [3, 4])
def test_ideal_graded_piece_matches_sympy_groebner(s):
    """in(I)_d is spanned by the degree-d multiples of the leading monomials of a
    Groebner basis; within one degree grevlex is this package's revlex."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(9900 + s)
    symbols = sympy.symbols(f"x1:{s + 1}")
    generator_sets = [
        [random_form(rng, s, 2, 9) for _ in range(3)],
        [_sparse_form(rng, s, 2, density=0.4) for _ in range(2)] + [_sparse_form(rng, s, 3, density=0.3)],
        [parse_form(f"x1*x{s}", s), _sparse_form(rng, s, 3, density=0.5)],
    ]
    for gens in generator_sets:
        gens = [g for g in gens if not g.is_zero()]
        polys = [sympy.sympify(format_form(g).replace("^", "**")) for g in gens]
        basis = sympy.groebner(polys, *symbols, order="grevlex")
        leading = [sympy.Poly(g, *symbols).monoms(order="grevlex")[0] for g in basis.exprs]
        for d in range(2, 6):
            expected = {m for m in monomials_of_degree(s, d) if any(all(map(int.__ge__, m, lm)) for lm in leading)}
            assert ideal_graded_piece(gens, d, REVLEX, s).exps == expected


@pytest.mark.parametrize("order,s", CASES)
def test_basis_is_the_monic_reference_basis(order, s):
    """`basis` is built from the rows on each read; it must be the reference's
    monic forms, in descending pivot order."""
    rng = random.Random(6000 * s + len(order))
    d = 3 if s < 5 else 2
    forms = _independent_and_dependent(rng, s, d, s + 1)
    space = echelonize(forms, order, num_vars=s, degree=d)
    change = _change(rng, s, rational=True)
    linear = _linear(rng, s)
    cases = [
        (space, oracle_echelonize(forms, order, s, d)),
        (
            transform_subspace(space, change),
            oracle_echelonize([oracle_apply_change(f, change) for f in space.basis], order, s, d),
        ),
        (
            restrict_subspace(space, linear),
            oracle_echelonize([oracle_restrict(f, linear) for f in space.basis], order, s - 1, d),
        ),
    ]
    for got, reference in cases:
        # the reference rows are integer_row of its monic forms; dividing by
        # the pivot entry in the oracle's arithmetic recovers those forms
        monic = [
            scale(Form(reference.num_vars, reference.degree, row), Fraction(1, row[p]))
            for p, row in reference.rows.items()
        ]
        assert list(got.basis) == monic
        assert [f.terms[p] for f, p in zip(got.basis, got.leading_monomials())] == [1] * got.dim


@pytest.mark.parametrize(
    "order,pivots",
    [
        ("revlex", ["x1^3", "x1*x2*x3", "x1*x3^2", "x3^3"]),
        ("lex", ["x1^3", "x1^2*x4", "x1*x2*x3", "x1*x3^2"]),
        ("mixed", ["x1^3", "x1*x2*x3", "x1*x3^2", "x3^3"]),
    ],
    ids=ORDER_NAMES,
)
def test_in_reads_pivots_without_back_substitution(capsys, tmp_path, monkeypatch, order, pivots):
    """`in` reads the pivots of forward elimination alone; a zero line and a dependent
    line in the file change nothing."""
    path = tmp_path / "V.txt"
    path.write_text(
        f"s=4 d=3 order={order}\nx1*x2*x3 - x4^3 + 2*x2^2*x4\nx3^3 - x1^2*x4\n0\nx2*x3*x4 + x1^3\n"
        "2*x1*x2*x3 - 2*x4^3 + 4*x2^2*x4 + x3^3 - x1^2*x4\nx4^3 - x1*x3^2\n"
    )

    def refuse(echelon):
        raise AssertionError("back-substitution run")

    monkeypatch.setattr(subspaces, "_back_substitute", refuse)
    assert cli.run(["in", "--text", str(path)]) == 0
    assert capsys.readouterr().out == " ".join(pivots) + "\n"
    assert cli.run(["in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"monomials": pivots, "dim": 4, "degree": 3, "order": order}


@pytest.mark.parametrize("order", ORDER_NAMES)
def test_sparse_high_degree_never_enumerates_the_piece(order, monkeypatch):
    """Degree-20 binomials in 10 variables: about 10M monomials of that degree,
    so a kernel that listed them would not finish."""

    def refuse(num_vars, degree):
        raise AssertionError(f"listed all monomials of degree {degree} in {num_vars} variables")

    monkeypatch.setattr(subspaces, "monomials_of_degree", refuse)
    monkeypatch.setattr(forms_module, "monomials_of_degree", refuse)
    rng = random.Random(8000 + len(order))
    s, d = 10, 20

    def monomial():
        cuts = sorted(rng.randint(0, d) for _ in range(s - 1))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))

    chain = [monomial() for _ in range(7)]
    # x^a1 - x^a2, x^a2 - x^a3, ... are independent; the sum of two is not
    binomials = [Form(s, d, {a: 1, b: -1}) for a, b in zip(chain, chain[1:])]
    space = echelonize(binomials + [add(binomials[0], scale(binomials[1], 3))], order)
    assert space.dim == len(binomials) and len(space.rows) == space.dim
    restricted = restrict_subspace(space, parse_form(f"x{s} - x{s - 1}", s))
    assert restricted.num_vars == s - 1 and 0 < restricted.dim <= space.dim
    assert len(restricted.basis) == restricted.dim


def test_initial_after_change_refuses_too_many_monomials_before_listing_them(monkeypatch):
    """A scan tabulates every monomial of degree at most d, 341376 of them here, which
    took over a second and 100 MiB; initial_after_change refuses first, as gin does."""

    def refuse(order, num_vars, degree):
        raise AssertionError(f"listed the monomials of degree {degree} in {num_vars} variables")

    for name in ("monomial_positions", "_position_tables", "_factorial_weights"):
        monkeypatch.setattr(gin_module, name, refuse)
    monkeypatch.setattr(forms_module, "monomial_positions", refuse)
    d = 125
    rows = [{(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1}]
    with pytest.raises(ValueError) as info:
        initial_after_change(rows, 3, d, REVLEX, random_change(3, 0))
    assert str(info.value) == "too many monomials: s=3 has 341376 of degree at most 125 (limit 300000)"


@pytest.mark.parametrize("seed", range(6))
def test_random_subspace_matches_from_scratch_construction(seed):
    s, d = 3 + seed % 3, 2 + seed % 2
    dim = 1 + (7 * seed) % 8
    order = ORDER_NAMES[seed % 3]
    assert random_subspace(s, d, dim, seed=seed, bound=2, order=order) == oracle_random_subspace(
        s, d, dim, seed=seed, bound=2, order=order
    )


def test_echelon_canonical_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    monomials = monomials_of_degree(3, 2)
    form = st.lists(coeff, min_size=len(monomials), max_size=len(monomials)).map(
        lambda cs: Form(3, 2, dict(zip(monomials, cs)))
    )

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        st.lists(form, min_size=1, max_size=5),
        st.sampled_from(ORDER_NAMES),
        st.randoms(use_true_random=False),
    )
    def check(forms, order, rng):
        expected = oracle_echelonize(forms, order, 3, 2)
        shuffled = forms[:]
        rng.shuffle(shuffled)
        scaled = [scale(f, Fraction(rng.randint(1, 9), rng.randint(1, 9))) for f in shuffled]
        assert echelonize(scaled, order, num_vars=3, degree=2) == expected

    check()
