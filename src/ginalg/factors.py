"""Common-factor extraction and the main-theorem verification pipeline.

The multivariate GCD is linear algebra on the kernel's integer rows: the
smallest-degree relation a*f = b*g among the shifted rows u*f and v*g,
found with `RowEchelon`, gives the gcd as g / a, an exact quotient in Z[x]
(`forms.divide_rows`).  There is no modular step and no random choice.
Common factors and cofactor spaces are computed on a Subspace's canonical
rows; Forms are built only for results.
"""

from __future__ import annotations

import random
from math import comb

from .forms import (
    REVLEX,
    Form,
    InvariantError,
    Record,
    Row,
    divide_rows,
    form_from_row,
    format_form,
    integer_row,
    monomials_of_degree,
    multiply_rows,
    normalize_form,
    primitive,
)
from .subspaces import (
    DEFAULT_BOUND,
    DEFAULT_TRIALS,
    MonomialSet,
    RowEchelon,
    Subspace,
    _is_borel_closed,
    borel_generators,
    random_form,
    random_subspace,
    restrict_subspace,
)

# most entries, dim W_n x the monomials of degree n + m, of a planted V (make-instance, seed 0, in
# process, 2-vCPU Xeon VM: s=r=3 n=16 m=1, 153 x 171, 2.6 s; s=12 r=3 n=2 m=3, 6 x 4368, 0.6 s; refused:
# s=r=3 n=20 m=2, 231 x 276, 11 s; s=6 r=3 n=8 m=2, 45 x 3003, 5.0 s; s=r=7 n=5 m=3, 462 x 3003, past 60 s)
MAX_INSTANCE_ENTRIES = 30_000

# -- gcd on integer rows --------------------------------------------------------


def _exact_quotient(f: Row, g: Row) -> Row:
    """f / g in Z[x] for a g known to divide f."""
    quotient = divide_rows(f, g)
    if quotient is None:
        raise InvariantError("inexact integer division")
    return quotient


def _gcd(f: Row, g: Row) -> Row:
    """A gcd over Q of two nonzero rows, up to a constant factor (callers
    normalize): g / a for the smallest-degree relation a*f = b*g.

    With h = gcd(f, g), a relation of degree deg a = deg g - m exists iff
    deg h >= m (a = g/h, b = f/h, times any form of degree deg h - m), so the
    first m, sweeping down, with a relation is deg h.  There the relations
    are the multiples of (g/h, f/h) for a primitive h, so the primitive one
    has a = (g/h)/k for an integer k, and g / a = k*h is exact in Z[x].
    """
    num_vars, df, dg = len(next(iter(f))), sum(next(iter(f))), sum(next(iter(g)))
    for m in range(min(df, dg), 0, -1):
        a_shifts = monomials_of_degree(num_vars, dg - m)
        shifted = [(u, f) for u in a_shifts] + [(v, g) for v in monomials_of_degree(num_vars, df - m)]
        # every shifted row gets its own tag entry, which records the combination
        # that reaches it; a tag's last exponent exceeds the product degree, so
        # under revlex it sorts below every product monomial, and a row with a
        # tag pivot has a zero product part: it is a relation a*f - b*g = 0
        product_degree = df + dg - m
        tags = [(0,) * (num_vars - 1) + (product_degree + 1 + j,) for j in range(len(shifted))]
        echelon = RowEchelon(REVLEX)
        for tag, (shift, row) in zip(tags, shifted):
            echelon.add({**multiply_rows({shift: 1}, row), tag: 1})
        relation = next((row for pivot, row in echelon.rows.items() if sum(pivot) > product_degree), None)
        if relation is not None:
            a = {u: relation[tag] for u, tag in zip(a_shifts, tags) if tag in relation}
            return _exact_quotient(g, a)
    return {(0,) * num_vars: 1}


def gcd_forms(f: Form, g: Form) -> Form:
    """A greatest common divisor, normalized to coprime integer coefficients
    with positive revlex-leading coefficient."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero():
        return normalize_form(g)
    if g.is_zero():
        return normalize_form(f)
    if f.num_vars != g.num_vars:
        raise ValueError(f"forms over different variable counts: {f.num_vars} vs {g.num_vars}")
    return normalize_form(Form.from_terms(f.num_vars, _gcd(integer_row(f)[0], integer_row(g)[0])))


# -- common factors of subspaces ----------------------------------------------


def common_factor(space: Subspace) -> tuple[Form, int]:
    """GCD over the canonical rows; (1, 0) when the forms are coprime.  A row that the
    primitive gcd so far divides leaves it as it is, so only a failed division runs a sweep
    (the second row always does: distinct canonical rows are not proportional)."""
    if space.dim == 0:
        raise ValueError("common factor of the zero subspace")
    rows = iter(space.rows.values())
    factor = next(rows)
    for row in rows:
        if divide_rows(row, factor) is None:
            factor = primitive(_gcd(factor, row))[0]
    factor = normalize_form(Form.from_terms(space.num_vars, factor))
    return factor, factor.degree


def divide_subspace(space: Subspace, divisor: Form) -> Subspace:
    """Echelonized span of the rows divided by divisor; every row must be divisible."""
    if divisor.is_zero():
        raise ValueError("cannot divide a subspace by zero")
    if divisor.num_vars != space.num_vars:
        raise ValueError(f"forms over different variable counts: {space.num_vars} vs {divisor.num_vars}")
    divisor_row = integer_row(divisor)[0]
    quotients = []
    for pivot, row in space.rows.items():
        quotient = divide_rows(row, divisor_row)
        if quotient is None:
            f = form_from_row(space.num_vars, space.degree, row, row[pivot])
            raise ValueError(f"{format_form(divisor)} does not divide basis form {format_form(f)}")
        quotients.append(quotient)
    return Subspace(space.num_vars, space.degree - divisor.degree, space.order, quotients)


def _multiply_subspace(space: Subspace, p: Form) -> Subspace:
    """Echelonized span of the rows times p."""
    p_row = integer_row(p)[0]
    rows = (multiply_rows(w, p_row) for w in space.rows.values())
    return Subspace(space.num_vars, space.degree + p.degree, space.order, rows)


def detect_gin_shape(monomials: MonomialSet) -> tuple[int, int, int] | None:
    """Recognize {x1^m * u : u a degree-n monomial in x1..xr}, the Borel closure of
    x1^m * x_r^n: a Borel-closed set whose one Borel generator is x1^m * x_r^n.

    Returns (r, n, m) or None; the pure power x1^d gives (1, 0, d).  The power m is the
    minimal x1-exponent, so the representation found has the largest factor degree
    available.
    """
    exps = monomials.exps
    generators = borel_generators(exps) if _is_borel_closed(exps, exps.__contains__) else []
    if len(generators) != 1:
        return None
    (g,) = generators
    r = 1 + max((i for i, e in enumerate(g) if e), default=0)
    return None if any(g[1 : r - 1]) else (r, monomials.degree - g[0], g[0])


# -- the main-theorem pipeline -------------------------------------------------

STATUS_CERTIFICATE = "certificate"
STATUS_NOT_APPLICABLE = "not-applicable"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_VIOLATION = "violation"


class FactorCertificate(Record):
    """A common factor (a Form) of V of degree m, the cofactor Subspace W_n, the (s, r, n, m)
    it was found for, and whether W_n times the factor was checked to equal V."""

    __slots__ = ("factor", "factor_degree", "cofactor_space", "params", "checked")

    def to_dict(self) -> dict:
        s, r, n, m = self.params
        return {
            "p": format_form(self.factor),
            "m": m,
            "r": r,
            "n": n,
            "W_n": [format_form(f) for f in self.cofactor_space.basis],
            "checked": self.checked,
        }


class TheoremReport(Record):
    """A STATUS_* verdict, the GinReport, the gin's shape (r, n, m) or None, the
    FactorCertificate or None, and the replay data of a violation (`details`, a dict)."""

    __slots__ = ("status", "gin", "shape", "certificate", "details")

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "gin": self.gin.to_dict(),
            "shape": None if self.shape is None else {"r": self.shape[0], "n": self.shape[1], "m": self.shape[2]},
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }
        if self.details:
            out["details"] = self.details
        return out


def verify_main_theorem(
    space: Subspace,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    bound: int = DEFAULT_BOUND,
) -> TheoremReport:
    """Check the factor consequence of a gin of shape W^n x1^m with r >= 3, m >= 1.

    An unstable gin is inconclusive, never a verdict.  A factor degree
    below m would contradict the statement being exercised and is reported
    loudly with all intermediate data, never swallowed.
    """
    from .gin import gin_subspace  # the only gin drawn in this module: gcd, factor, make-instance, probe skip it

    if space.order != REVLEX:
        raise ValueError("the main theorem is stated for the revlex order")
    report = gin_subspace(space.rows.values(), space.num_vars, space.degree, space.order, trials, seed, bound)
    if not report.stable:
        return TheoremReport(STATUS_INCONCLUSIVE, report, None, None, {})
    shape = detect_gin_shape(report.result)
    if shape is None or shape[0] < 3 or shape[2] < 1:
        return TheoremReport(STATUS_NOT_APPLICABLE, report, shape, None, {})
    r, n, m = shape
    factor, found_degree = common_factor(space)
    if found_degree != m:
        replay = {
            "basis": [format_form(f) for f in space.basis],
            "gin": report.result.strings(),
            "factor": format_form(factor),
            "factor_degree": found_degree,
            "expected_degree": m,
            "seed": seed,
            "trials": trials,
            "bound": bound,
        }
        if found_degree > m:
            # impossible for a genuinely generic gin: the detected m is maximal
            replay["note"] = "factor degree exceeds the gin exponent; the gin draw was not generic"
        return TheoremReport(STATUS_VIOLATION, report, shape, None, replay)
    cofactor = divide_subspace(space, factor)
    # the products w*p are independent, so with equal dims they lie in V
    # exactly when they span it
    checked = cofactor.dim == space.dim and _multiply_subspace(cofactor, factor) == space
    certificate = FactorCertificate(factor, found_degree, cofactor, (space.num_vars, r, n, m), checked)
    return TheoremReport(STATUS_CERTIFICATE, report, shape, certificate, {})


def make_instance(
    s: int, r: int, n: int, m: int, seed: int, bound: int = 10
) -> tuple[Subspace, Form, Subspace]:
    """Random planted instance V = W_n * p with dim W_n = C(n+r-1, r-1).

    Deterministic in seed.  There is no guarantee the gin of every draw has
    the W^n x1^m shape; harnesses filter on detect_gin_shape.
    """
    if not (s >= r >= 3):
        raise ValueError("need s >= r >= 3")
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    dim_w, monomials = comb(n + r - 1, r - 1), comb(n + m + s - 1, s - 1)
    if dim_w * monomials > MAX_INSTANCE_ENTRIES:
        raise ValueError(
            f"instance too large: dim W_n = {dim_w} rows over {monomials} monomials (limit {MAX_INSTANCE_ENTRIES} entries)"
        )
    rng = random.Random(seed)
    p = random_form(rng, s, m, bound)
    cofactor = random_subspace(s, n, dim_w, seed=rng.getrandbits(32), bound=bound)
    return _multiply_subspace(cofactor, p), p, cofactor


class ProbeSample(Record):
    """A hyperplane as text and the degree and text of the common factor of V restricted to
    it; both are None when the restriction collapses to zero."""

    __slots__ = ("hyperplane", "factor_degree", "factor")

    def to_dict(self) -> dict:
        return {"h": self.hyperplane, "factor_degree": self.factor_degree, "factor": self.factor}


class ProbeReport(Record):
    """The ProbeSamples, V's own factor degree, the expected m or None, the consistency and
    anomaly verdicts (bools) and the seed."""

    __slots__ = ("samples", "subspace_factor_degree", "expected_m", "consistent", "anomaly", "seed")

    def to_dict(self) -> dict:
        return {
            "samples": [s.to_dict() for s in self.samples],
            "subspace_factor_degree": self.subspace_factor_degree,
            "expected_m": self.expected_m,
            "consistent": self.consistent,
            "anomaly": self.anomaly,
            "seed": self.seed,
        }


def hyperplane_factor_probe(
    space: Subspace,
    expected_m: int | None = None,
    trials: int = 8,
    seed: int = 0,
    bound: int = 10,
) -> ProbeReport:
    """Sample random hyperplane restrictions and report common-factor degrees.

    A common factor of V survives every restriction, so degrees below the
    subspace's own factor degree mark an internal inconsistency.  The
    converse direction is only sampled: all-restrictions-factor without a
    factor on V is flagged as an anomaly for inspection, not refuted.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if space.num_vars < 2:
        raise ValueError("need at least two variables to restrict")
    _, own_degree = common_factor(space)
    rng = random.Random(seed)
    samples: list[ProbeSample] = []
    for _ in range(trials):
        h = random_form(rng, space.num_vars, 1, bound)
        restricted = restrict_subspace(space, h)
        if restricted.dim == 0:
            samples.append(ProbeSample(format_form(h), None, None))
            continue
        factor, degree = common_factor(restricted)
        samples.append(ProbeSample(format_form(h), degree, format_form(factor)))
    live = [s.factor_degree for s in samples if s.factor_degree is not None]
    consistent = all(d >= own_degree for d in live)
    threshold = expected_m if expected_m is not None else 1
    anomaly = bool(live) and all(d >= threshold for d in live) and own_degree < threshold
    return ProbeReport(tuple(samples), own_degree, expected_m, consistent, anomaly, seed)
