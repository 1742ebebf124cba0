"""Generic initial subspaces and truncated generic initial ideals.

Genericity is probabilistic: each trial applies an independent random
integer coordinate change and recomputes the initial subspace.  A dense
open set of changes yields the true gin and every other change a smaller
one, so the largest trial is reported; unanimous trials are strong
evidence; disagreement is surfaced in the report, never hidden.

A gin trial of a subspace reads only the pivots of the moved subspace gV,
never its rows (`subspaces.initial_after_change`): the columns of gV are
scanned in descending order, each computed from the transposed change
through A[u, m](g) = (u!/m!) A[m, u](g^T) for A = Sym^d(g), and the scan
stops at the dim V-th independent column.  The pivots of an echelon form
are exactly its greedy column basis, and every column is a nonzero
integer multiple of the true one, so the outcome is the exact in(gV).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from operator import add

from .forms import REVLEX, CoordinateChange, Form, apply_change, integer_row, monomial_key, monomials_of_degree
from .ideals import MonomialIdeal, _is_borel_closed, minimalize
from .subspaces import (
    MonomialSet,
    RowEchelon,
    Subspace,
    initial_after_change,
    initial_subspace,
    restrict_subspace,
    transform_subspace,
)

DEFAULT_TRIALS = 3
DEFAULT_BOUND = 100

TRUNCATION_NOTE = "generators above dmax are not detected"

# largest graded piece for initial_ideal_truncated; time climbs steeply with it (3 generic
# quadrics, 3 trials, 2 vCPU: s=5 d=5, 126 monomials, 0.5 s; s=3 d=18, 190 monomials, 17 s)
MAX_PIECE_MONOMIALS = 150


@dataclass(frozen=True)
class GinReport:
    result: MonomialSet
    trials: int
    agreements: int
    seeds: tuple[int, ...]
    stable: bool

    def to_dict(self) -> dict:
        return {
            "result": self.result.strings(),
            "trials": self.trials,
            "agreements": self.agreements,
            "stable": self.stable,
            "seeds": list(self.seeds),
        }


def random_change(num_vars: int, seed: int, bound: int = DEFAULT_BOUND) -> CoordinateChange:
    """Uniform integer entries in [-bound, bound], re-drawn until invertible."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if num_vars < 1:
        # CoordinateChange refuses an empty matrix, and the loop below would redraw forever
        raise ValueError("need at least one variable")
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(num_vars)] for _ in range(num_vars)]
        try:
            return CoordinateChange(rows)
        except ValueError:  # singular: redraw
            continue


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


def gin_subspace(
    space: Subspace,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    bound: int = DEFAULT_BOUND,
) -> GinReport:
    """Initial subspace after a random change, repeated over independent trials.

    Each trial computes only the pivots of the moved subspace, from its columns through
    the transposed change, with exact integer arithmetic; the moved rows are never built.
    """
    seeds = _trial_seeds(seed, trials)
    outcomes = [initial_after_change(space, random_change(space.num_vars, ts, bound)) for ts in seeds]
    return _report(outcomes, space.order, seeds)


def ideal_graded_piece(gens: list[Form], degree: int, order: str, num_vars: int) -> Subspace:
    """The degree-d piece of the ideal generated by homogeneous gens.

    Spanned by the rows x^a * g, each the integer row of g shifted by a.
    """
    echelon = RowEchelon(order)
    for g in gens:
        if g.num_vars != num_vars:
            raise ValueError(f"forms over different variable counts: {g.num_vars} vs {num_vars}")
        if g.degree > degree:
            continue
        row, _ = integer_row(g)
        for shift in monomials_of_degree(num_vars, degree - g.degree):
            echelon.add({tuple(map(add, e, shift)): c for e, c in row.items()})
    return echelon.subspace(num_vars, degree)


def initial_ideal_truncated(
    gens: list[Form], dmax: int, order: str = REVLEX
) -> dict[int, MonomialSet]:
    """in(I_d) for each degree up to dmax, computed degreewise; deterministic."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    num_vars = gens[0].num_vars
    dmin = min(g.degree for g in gens)
    if dmax < max(g.degree for g in gens):
        raise ValueError(f"dmax {dmax} below the largest generator degree")
    size = comb(dmax + num_vars - 1, num_vars - 1)
    if size > MAX_PIECE_MONOMIALS:
        raise ValueError(
            f"graded piece too large: s={num_vars}, d={dmax} has {size} monomials (limit {MAX_PIECE_MONOMIALS})"
        )
    return {
        d: initial_subspace(ideal_graded_piece(gens, d, order, num_vars))
        for d in range(dmin, dmax + 1)
    }


@dataclass(frozen=True)
class GinIdealReport:
    ideal: MonomialIdeal
    per_degree: dict[int, GinReport]
    trials: int
    seeds: tuple[int, ...]
    stable: bool
    dmax: int
    note: str = field(default=TRUNCATION_NOTE)

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

    One coordinate change is shared across all degrees within a trial; the
    transformed generators span the same graded pieces as the transformed
    ideal, so the change is applied to the generators once.
    """
    seeds = _trial_seeds(seed, trials)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    num_vars = gens[0].num_vars
    per_trial: list[dict[int, MonomialSet]] = []
    for ts in seeds:
        change = random_change(num_vars, ts, bound)
        moved = [apply_change(g, change) for g in gens]
        per_trial.append(initial_ideal_truncated(moved, dmax, order))
    degrees = sorted(per_trial[0])
    per_degree = {d: _report([trial[d] for trial in per_trial], order, seeds) for d in degrees}
    stable = all(r.stable for r in per_degree.values())
    union = [e for d in degrees for e in per_degree[d].result.exps]
    ideal = minimalize(union, num_vars)
    return GinIdealReport(ideal, per_degree, trials, seeds, stable, dmax)


@dataclass(frozen=True)
class CommutationReport:
    """Empirical check that gin commutes with restriction to x_s = 0."""

    equal: bool
    restricted_gin: MonomialSet
    gin_restricted: MonomialSet
    change_seed: int
    stable: bool
    seeds: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "equal": self.equal,
            "gin_of_restriction": self.restricted_gin.strings(),
            "restriction_of_gin": self.gin_restricted.strings(),
            "stable": self.stable,
            "change_seed": self.change_seed,
            "seeds": list(self.seeds),
        }


def restriction_commutation_check(
    space: Subspace,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    bound: int = DEFAULT_BOUND,
) -> CommutationReport:
    """Compare gin((gV)|_{x_s=0}) with gin(V)|_{x_s=0} for a random g; revlex only."""
    if space.num_vars < 2:
        raise ValueError("need at least two variables to restrict")
    if space.order != REVLEX:
        raise ValueError("the commutation property is stated for revlex")
    rng = random.Random(seed)
    change_seed = rng.getrandbits(32)
    seed_a = rng.getrandbits(32)
    seed_b = rng.getrandbits(32)
    moved = transform_subspace(space, random_change(space.num_vars, change_seed, bound))
    last_var = Form.variable(space.num_vars, space.num_vars)
    side_a = gin_subspace(restrict_subspace(moved, last_var), trials=trials, seed=seed_a, bound=bound)
    side_b = gin_subspace(space, trials=trials, seed=seed_b, bound=bound)
    restricted_b = side_b.result.drop_last_variable()
    return CommutationReport(
        equal=side_a.result == restricted_b,
        restricted_gin=side_a.result,
        gin_restricted=restricted_b,
        change_seed=change_seed,
        stable=side_a.stable and side_b.stable,
        seeds=(seed_a, seed_b),
    )
