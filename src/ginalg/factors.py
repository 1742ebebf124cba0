"""Common-factor extraction and the main-theorem verification pipeline.

The multivariate GCD runs on the kernel's integer rows with primitive
pseudo-remainder sequences: the main variable is the lowest-index variable
present in both inputs, contents are gcds of coefficient rows, taken
recursively, and primitive parts are exact quotients (`forms.divide_rows`,
the division `try_divide` uses).  No modular reconstruction is involved.
Everything stays exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import reduce
from math import comb

from .forms import (
    REVLEX,
    Form,
    InvariantError,
    Row,
    divide_rows,
    format_form,
    integer_row,
    monomials_of_degree,
    multiply_rows,
    normalize_form,
    try_divide,
)
from .gin import DEFAULT_BOUND, DEFAULT_TRIALS, GinReport, gin_subspace
from .subspaces import (
    MonomialSet,
    Subspace,
    contains,
    echelonize,
    random_form,
    random_subspace,
    restrict_subspace,
)

# -- gcd on integer rows --------------------------------------------------------


def _exact_quotient(f: Row, g: Row) -> Row:
    """f / g in Z[x] for a g known to divide f."""
    quotient = divide_rows(f, g)
    if quotient is None:
        raise InvariantError("inexact integer division")
    return quotient


def _coefficients(f: Row, v: int) -> dict[int, Row]:
    """f as a polynomial in x_v: each power of x_v mapped to its coefficient row
    (entries with the x_v exponent set to 0)."""
    out: dict[int, Row] = {}
    for e, c in f.items():
        out.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1 :]] = c
    return out


def _content(f: Row, v: int) -> Row:
    """The gcd of f's coefficient rows in x_v."""
    return reduce(_gcd, _coefficients(f, v).values())


def _pseudo_remainder(f: Row, g: Row, v: int) -> Row:
    """A pseudo-remainder of f by g in x_v.

    Each step scales the remainder by the leading coefficient of g; callers
    take primitive parts at once, so the power it is raised to is irrelevant.
    """
    g_coefficients = _coefficients(g, v)
    m = max(g_coefficients)
    lead = g_coefficients[m]
    rest = f
    while rest:
        k = max(e[v] for e in rest)
        if k < m:
            break
        # rest's coefficient of x_v^k, times x_v^(k - m)
        top = {e[:v] + (k - m,) + e[v + 1 :]: c for e, c in rest.items() if e[v] == k}
        rest = multiply_rows(rest, lead)
        for e, c in multiply_rows(g, top).items():
            value = rest.get(e, 0) - c
            if value:
                rest[e] = value
            else:
                del rest[e]
    return rest


def _variables(f: Row) -> set[int]:
    return {i for e in f for i, x in enumerate(e) if x}


def _gcd(f: Row, g: Row) -> Row:
    """A gcd of two nonzero rows in Z[x], up to sign, by the primitive
    pseudo-remainder sequence in the first variable present in both."""
    shared = _variables(f) & _variables(g)
    if not shared:
        # a common divisor has only shared variables, so it is a constant
        return {(0,) * len(next(iter(f))): math.gcd(*f.values(), *g.values())}
    v = min(shared)
    f_content, g_content = _content(f, v), _content(g, v)
    a, b = _exact_quotient(f, f_content), _exact_quotient(g, g_content)
    if max(e[v] for e in a) < max(e[v] for e in b):
        a, b = b, a
    while b:
        r = _pseudo_remainder(a, b, v)
        a, b = b, _exact_quotient(r, _content(r, v)) if r else r
    return multiply_rows(a, _gcd(f_content, g_content))


def gcd_forms(f: Form, g: Form) -> Form:
    """A greatest common divisor, normalized to coprime integer coefficients
    with positive revlex-leading coefficient."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero():
        return normalize_form(g)
    if g.is_zero():
        return normalize_form(f)
    f._check_ring(g)
    return normalize_form(Form.from_terms(f.num_vars, _gcd(integer_row(f)[0], integer_row(g)[0])))


# -- common factors of subspaces ----------------------------------------------


def common_factor(space: Subspace) -> tuple[Form, int]:
    """GCD over the echelon basis; (1, 0) when the forms are coprime."""
    if space.dim == 0:
        raise ValueError("common factor of the zero subspace")
    basis = space.basis
    acc = basis[0]
    for f in basis[1:]:
        acc = gcd_forms(acc, f)
        if acc.degree == 0:
            break
    return normalize_form(acc), acc.degree


def divide_subspace(space: Subspace, divisor: Form) -> Subspace:
    """Echelonized span of basis/divisor; every basis form must be divisible."""
    if divisor.is_zero():
        raise ValueError("cannot divide a subspace by zero")
    quotients = []
    for f in space.basis:
        q = try_divide(f, divisor)
        if q is None:
            raise ValueError(f"{format_form(divisor)} does not divide basis form {format_form(f)}")
        quotients.append(q)
    return echelonize(
        quotients,
        space.order,
        num_vars=space.num_vars,
        degree=space.degree - divisor.degree,
    )


def detect_gin_shape(monomials: MonomialSet) -> tuple[int, int, int] | None:
    """Recognize {x1^m * u : u a degree-n monomial in x1..xr}, maximal m.

    Returns (r, n, m) or None.  The power m is the minimal x1-exponent, so
    the representation found has the largest factor degree available.
    """
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
    expected = {
        u + (0,) * (monomials.num_vars - r) for u in monomials_of_degree(r, n)
    }
    return (r, n, m) if residual == expected else None


# -- the main-theorem pipeline -------------------------------------------------

STATUS_CERTIFICATE = "certificate"
STATUS_NOT_APPLICABLE = "not-applicable"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_VIOLATION = "violation"


@dataclass(frozen=True)
class FactorCertificate:
    factor: Form
    factor_degree: int
    cofactor_space: Subspace
    params: tuple[int, int, int, int]  # (s, r, n, m)
    checked: bool

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


@dataclass(frozen=True)
class TheoremReport:
    status: str
    gin: GinReport
    shape: tuple[int, int, int] | None
    certificate: FactorCertificate | None
    details: dict = field(default_factory=dict)

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
    if space.order != REVLEX:
        raise ValueError("the main theorem is stated for the revlex order")
    report = gin_subspace(space, trials=trials, seed=seed, bound=bound)
    if not report.stable:
        return TheoremReport(STATUS_INCONCLUSIVE, report, None, None)
    shape = detect_gin_shape(report.result)
    if shape is None or shape[0] < 3 or shape[2] < 1:
        return TheoremReport(STATUS_NOT_APPLICABLE, report, shape, None)
    r, n, m = shape
    factor, found_degree = common_factor(space)
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
    if found_degree < m:
        return TheoremReport(STATUS_VIOLATION, report, shape, None, replay)
    if found_degree > m:
        # impossible for a genuinely generic gin: the detected m is maximal
        replay["note"] = "factor degree exceeds the gin exponent; the gin draw was not generic"
        return TheoremReport(STATUS_VIOLATION, report, shape, None, replay)
    cofactor = divide_subspace(space, factor)
    checked = cofactor.dim == space.dim and all(
        contains(space, w * factor) for w in cofactor.basis
    )
    certificate = FactorCertificate(factor, found_degree, cofactor, (space.num_vars, r, n, m), checked)
    return TheoremReport(STATUS_CERTIFICATE, report, shape, certificate)


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
    rng = random.Random(seed)
    p = random_form(rng, s, m, bound)
    while p.is_zero():
        p = random_form(rng, s, m, bound)
    dim_w = comb(n + r - 1, r - 1)
    cofactor = random_subspace(s, n, dim_w, seed=rng.getrandbits(32), bound=bound)
    planted = echelonize(
        [w * p for w in cofactor.basis], REVLEX, num_vars=s, degree=n + m
    )
    return planted, p, cofactor


@dataclass(frozen=True)
class ProbeSample:
    hyperplane: str
    factor_degree: int | None  # None when the restriction collapses to zero
    factor: str | None

    def to_dict(self) -> dict:
        return {"h": self.hyperplane, "factor_degree": self.factor_degree, "factor": self.factor}


@dataclass(frozen=True)
class ProbeReport:
    samples: tuple[ProbeSample, ...]
    subspace_factor_degree: int
    expected_m: int | None
    consistent: bool
    anomaly: bool
    seed: int

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
        while h.is_zero():
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
