"""Monomial-ideal combinatorics: Hilbert functions, Borel-fixedness, colon by
the last variable, and enumeration of the admissible initial-ideal candidates
cut out by those constraints.

`MonomialIdeal`, its minimal generators (`minimalize`) and the Borel order
(elementary exchanges, Borel generators) are in `subspaces`, shared with
`gin_ideal_truncated`, a gin trial's stability check and
`factors.detect_gin_shape`, so only the ideal commands and the demo load
this module."""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import comb

from .forms import Exponent, InvariantError, check_monomial_count, monomials_of_degree, parse_form
from .subspaces import MonomialIdeal, _divides, _generator_key, _is_borel_closed, minimalize

# most monomials of degree <= dmax that Hilbert functions through dmax may list, in `hilbert` and
# in each candidate check of `enumerate` (one generator, 2 vCPU: s=6 dmax=20, 230230 monomials,
# 1.2 s; s=4 dmax=60, 635376 monomials, 3.7 s)
MAX_HILBERT_MONOMIALS = 1_000_000


def contains_monomial(ideal: MonomialIdeal, exps: Exponent) -> bool:
    exps = tuple(exps)
    return any(_divides(g, exps) for g in ideal.gens)


def ideal_monomials_of_degree(ideal: MonomialIdeal, degree: int) -> list[Exponent]:
    return [e for e in monomials_of_degree(ideal.num_vars, degree) if contains_monomial(ideal, e)]


def hilbert_function(ideal: MonomialIdeal, degree: int) -> int:
    """dim of the degree-d piece of the quotient ring S/J (quotient convention)."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    total = comb(degree + ideal.num_vars - 1, ideal.num_vars - 1)
    return total - len(ideal_monomials_of_degree(ideal, degree))


def is_borel_fixed(ideal: MonomialIdeal) -> bool:
    """Characteristic-zero criterion: every exchange (x_j/x_i)*m, j < i, stays inside;
    testing the elementary ones, x_i -> x_{i-1}, on the generators suffices."""
    return _is_borel_closed(ideal.gens, partial(contains_monomial, ideal))


def colon_by_last_variable(ideal: MonomialIdeal) -> MonomialIdeal:
    """J : x_s, generated by g/x_s for generators divisible by x_s, else g."""
    moved = []
    for g in ideal.gens:
        if g[-1] > 0:
            moved.append(g[:-1] + (g[-1] - 1,))
        else:
            moved.append(g)
    return minimalize(moved, ideal.num_vars)


def is_saturated_in_last_variable(ideal: MonomialIdeal) -> bool:
    return colon_by_last_variable(ideal) == ideal


def parse_ideal(text: str, num_vars: int) -> MonomialIdeal:
    """Comma-separated monic monomials, e.g. "x1^2, x1*x2, x3^4"."""
    gens = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        f = parse_form(chunk, num_vars)
        if len(f.terms) != 1:
            raise ValueError(f"not a monomial: {chunk!r}")
        ((exps, coeff),) = f.terms.items()
        if coeff != 1:
            raise ValueError(f"monomial generators must have coefficient 1: {chunk!r}")
        gens.append(exps)
    return minimalize(gens, num_vars)


# -- candidate enumeration ---------------------------------------------------

# most monomial sets one degree of the enumeration may test (2 vCPU: 324632 sets in 0.8 s,
# 1623160 in 4.0 s; the inputs of the tests and the demo test at most 20)
MAX_EXTENSION_SUBSETS = 1_000_000


def _shift_up(monomials: set, num_vars: int) -> set:
    """All products of the given monomials with one variable."""
    out = set()
    for m in monomials:
        for i in range(num_vars):
            out.add(m[:i] + (m[i] + 1,) + m[i + 1 :])
    return out


def _borel_closed_extensions(base: set, degree: int, size: int, num_vars: int):
    """Borel-closed degree-d sets of the given size containing base."""
    if len(base) > size:
        return
    pool = [m for m in monomials_of_degree(num_vars, degree) if m not in base]
    if size - len(base) > len(pool):
        return
    count = comb(len(pool), size - len(base))
    if count > MAX_EXTENSION_SUBSETS:
        raise ValueError(
            f"enumeration too large: degree {degree} has {count} sets of {size - len(base)} "
            f"out of {len(pool)} monomials to test (limit {MAX_EXTENSION_SUBSETS})"
        )
    for extra in combinations(pool, size - len(base)):
        candidate = base | set(extra)
        if _is_borel_closed(candidate, candidate.__contains__):
            yield candidate


def enumerate_gin_candidates(num_vars: int, quotient_hf, dmax: int) -> list[MonomialIdeal]:
    """All monomial ideals with generators of degree <= dmax matching the
    quotient Hilbert function through dmax+1, Borel-fixed, and saturated in
    the last variable.

    quotient_hf values beyond the given list repeat the last entry
    (a stabilizing tail).  Saturation plus Borel-fixedness confine minimal
    generators to the first num_vars - 1 variables: a generator divisible
    by x_s would have m/x_s in J : x_s = J, contradicting minimality.  The
    search therefore runs over Borel-closed monomial sets in those
    variables, degree by degree; every candidate is re-verified against
    the three defining predicates before being returned, and the
    confinement is checked per candidate rather than assumed.
    """
    hf = list(quotient_hf)
    if not hf:
        raise ValueError("quotient Hilbert function must be nonempty")
    if hf[0] != 1 or min(hf) < 0:
        raise ValueError(f"a quotient Hilbert function is nonnegative with value 1 in degree 0, got {hf}")
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    if num_vars < 2:
        raise ValueError("need at least two variables")

    def hf_at(d: int) -> int:
        return hf[d] if d < len(hf) else hf[-1]

    s = num_vars
    # A saturated ideal with last-variable-free generators is determined by
    # its last-variable-free slices T_d; the ideal's degree-d monomial count
    # is the running sum of |T_e| for e <= d.
    ideal_counts = []
    for d in range(dmax + 2):
        count = comb(d + s - 1, s - 1) - hf_at(d)
        if count < 0:
            return []
        ideal_counts.append(count)
    slice_sizes = [ideal_counts[0]] + [
        ideal_counts[d] - ideal_counts[d - 1] for d in range(1, dmax + 2)
    ]
    if any(t < 0 for t in slice_sizes):
        return []
    if any(slice_sizes[d] > comb(d + s - 2, s - 2) for d in range(dmax + 2)):
        return []
    # each candidate's Hilbert check lists every monomial of degree at most dmax + 1
    check_monomial_count(s, dmax + 1, MAX_HILBERT_MONOMIALS)

    results: list[MonomialIdeal] = []
    # depth first, each degree's layers pushed in reverse to visit them in order: no recursion in dmax
    stack: list[tuple[int, set, list[set]]] = [(1, set(), [])]
    while stack:
        d, previous, chosen = stack.pop()
        if d > dmax:
            monomials = [m + (0,) for layer in chosen for m in layer]
            candidate = minimalize(monomials, s)
            if any(g[-1] for g in candidate.gens):
                raise InvariantError("generator involves the last variable")
            matches = all(hilbert_function(candidate, e) == hf_at(e) for e in range(dmax + 2))
            if matches and is_borel_fixed(candidate) and is_saturated_in_last_variable(candidate):
                results.append(candidate)
            continue
        base = _shift_up(previous, s - 1) if previous else set()
        layers = list(_borel_closed_extensions(base, d, slice_sizes[d], s - 1))
        stack.extend((d + 1, layer, chosen + [layer]) for layer in reversed(layers))
    results.sort(key=lambda J: [_generator_key(g) for g in J.gens])
    return results
