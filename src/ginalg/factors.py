"""Common-factor extraction and the main-theorem verification pipeline.

The multivariate GCD works over a recursive dense integer representation
with primitive pseudo-remainder sequences: the main variable is the
lowest-index variable present in both inputs, contents are handled
recursively, and no modular reconstruction is involved.  Everything stays
exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .forms import (
    REVLEX,
    Exponent,
    Form,
    InvariantError,
    format_form,
    integer_row,
    monomials_of_degree,
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

# -- recursive dense integer polynomials -------------------------------------
#
# level 0 is an int; level k >= 1 is a list of level-(k-1) coefficients
# indexed by the exponent of that level's variable, trailing zeros trimmed.
# The zero polynomial is [] at every positive level.


def _zero(lev: int):
    return 0 if lev == 0 else []


def _one(lev: int):
    return 1 if lev == 0 else [_one(lev - 1)]


def _is_zero(p, lev: int) -> bool:
    return p == 0 if lev == 0 else len(p) == 0


def _trim(p: list, lev: int) -> list:
    while p and _is_zero(p[-1], lev - 1):
        p.pop()
    return p


def _add(p, q, lev: int):
    if lev == 0:
        return p + q
    out = [_zero(lev - 1)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] = c
    for i, c in enumerate(q):
        out[i] = _add(out[i], c, lev - 1)
    return _trim(out, lev)


def _neg(p, lev: int):
    if lev == 0:
        return -p
    return [_neg(c, lev - 1) for c in p]


def _sub(p, q, lev: int):
    return _add(p, _neg(q, lev), lev)


def _mul(p, q, lev: int):
    if lev == 0:
        return p * q
    if not p or not q:
        return []
    out = [_zero(lev - 1)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if _is_zero(a, lev - 1):
            continue
        for j, b in enumerate(q):
            if _is_zero(b, lev - 1):
                continue
            out[i + j] = _add(out[i + j], _mul(a, b, lev - 1), lev - 1)
    return _trim(out, lev)


def _mul_coeff(p: list, c, lev: int) -> list:
    """Multiply a level-lev polynomial by a level-(lev-1) coefficient."""
    return _trim([_mul(entry, c, lev - 1) for entry in p], lev)


def _shift(p: list, k: int, lev: int) -> list:
    return [_zero(lev - 1)] * k + p if p else []


def _div_coeff_exact(p, q, lev: int):
    """Exact division, InvariantError when inexact; q is level-lev like p."""
    if lev == 0:
        if q == 0 or p % q:
            raise InvariantError("inexact integer division")
        return p // q
    if not p:
        return []
    n, m = len(p) - 1, len(q) - 1
    if n < m:
        raise InvariantError("inexact polynomial division")
    quotient = [_zero(lev - 1)] * (n - m + 1)
    rest = list(p)
    for k in range(n - m, -1, -1):
        _trim(rest, lev)
        if len(rest) - 1 == m + k:
            c = _div_coeff_exact(rest[-1], q[-1], lev - 1)
            quotient[k] = c
            rest = _sub(rest, _mul_coeff(_shift(q, k, lev), c, lev), lev)
    if not _is_zero(_trim(rest, lev), lev):
        raise InvariantError("inexact polynomial division")
    return _trim(quotient, lev)


def _content(p: list, lev: int):
    acc = _zero(lev - 1)
    for c in p:
        acc = _gcd_rec(acc, c, lev - 1)
    return acc


def _primitive(p: list, lev: int) -> list:
    c = _content(p, lev)
    return [_div_coeff_exact(entry, c, lev - 1) for entry in p]


def _prem(f: list, g: list, lev: int) -> list:
    """Pseudo-remainder of f by g in the main variable.

    Each reduction step scales the remainder by lc(g); the caller takes
    primitive parts immediately, so the exact scaling power is irrelevant.
    """
    lead = g[-1]
    m = len(g) - 1
    rest = list(f)
    while rest and len(rest) - 1 >= m:
        delta = len(rest) - 1 - m
        rest = _sub(_mul_coeff(rest, lead, lev), _mul_coeff(_shift(g, delta, lev), rest[-1], lev), lev)
    return rest


def _gcd_rec(p, q, lev: int):
    if lev == 0:
        return math.gcd(p, q)
    if _is_zero(p, lev):
        return q
    if _is_zero(q, lev):
        return p
    if len(p) == 1 and len(q) == 1:
        return [_gcd_rec(p[0], q[0], lev - 1)]
    if len(p) == 1:
        return [_gcd_rec(p[0], _content(q, lev), lev - 1)]
    if len(q) == 1:
        return [_gcd_rec(q[0], _content(p, lev), lev - 1)]
    cp, cq = _content(p, lev), _content(q, lev)
    a, b = _primitive(p, lev), _primitive(q, lev)
    if len(a) < len(b):
        a, b = b, a
    while not _is_zero(b, lev):
        r = _prem(a, b, lev)
        if not _is_zero(r, lev):
            r = _primitive(r, lev)
        a, b = b, r
    return _mul_coeff(_primitive(a, lev), _gcd_rec(cp, cq, lev - 1), lev)


def _build_rec(items: list[tuple[tuple[int, ...], int]], depth: int):
    if depth == 0:
        return sum(c for _, c in items)
    groups: dict[int, list] = {}
    for exps, c in items:
        groups.setdefault(exps[0], []).append((exps[1:], c))
    if not groups:
        return []
    out = [_zero(depth - 1)] * (max(groups) + 1)
    for e, sub in groups.items():
        out[e] = _build_rec(sub, depth - 1)
    return _trim(out, depth)


def _rec_terms(p, lev: int):
    if lev == 0:
        if p != 0:
            yield (), p
        return
    for i, c in enumerate(p):
        for suffix, value in _rec_terms(c, lev - 1):
            yield (i,) + suffix, value


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
    s = f.num_vars
    shared = f.variables_present() & g.variables_present()
    if not shared:
        # every variable of a common divisor appears in both inputs
        return Form.one(s)
    main = min(shared)
    var_order = [main] + sorted((f.variables_present() | g.variables_present()) - {main})
    levels = len(var_order)
    fi = [(tuple(e[v] for v in var_order), c) for e, c in integer_row(f)[0].items()]
    gi = [(tuple(e[v] for v in var_order), c) for e, c in integer_row(g)[0].items()]
    h = _gcd_rec(_build_rec(fi, levels), _build_rec(gi, levels), levels)
    terms: dict[Exponent, Fraction] = {}
    for packed, value in _rec_terms(h, levels):
        exps = [0] * s
        for v, e in zip(var_order, packed):
            exps[v] = e
        terms[tuple(exps)] = Fraction(value)
    return normalize_form(Form.from_terms(s, terms))


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
