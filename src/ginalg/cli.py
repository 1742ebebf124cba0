"""Command-line interface.

One binary with subcommands; JSON is the machine interface (default for
computational commands), plain text the human one (default for ci-demo).
Exit codes: 0 success/verified, 1 refuted/assertion failure, 2
inconclusive (unstable gin), 3 usage/parse error.  Output is byte-identical
for identical argv and input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .demo import ci_quadrics_demo
from .factors import (
    STATUS_CERTIFICATE,
    STATUS_INCONCLUSIVE,
    STATUS_NOT_APPLICABLE,
    common_factor,
    gcd_forms,
    hyperplane_factor_probe,
    make_instance,
    verify_main_theorem,
)
from .forms import (
    REVLEX,
    Form,
    InvariantError,
    ParseError,
    format_form,
    normalize_order_name,
    parse_form,
)
from .gin import DEFAULT_BOUND, DEFAULT_TRIALS, gin_ideal_truncated, gin_subspace
from .ideals import (
    colon_by_last_variable,
    enumerate_gin_candidates,
    hilbert_function,
    is_borel_fixed,
    parse_ideal,
)
from .subspaces import Subspace, echelonize, initial_subspace, restrict_subspace

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

DEFAULTS = {"seed": 0, "trials": DEFAULT_TRIALS, "bound": DEFAULT_BOUND}

# most monomials of degree <= dmax that `hilbert` may enumerate (one generator, 2 vCPU:
# s=6 dmax=20, 230230 monomials, 1.2 s; s=4 dmax=60, 635376 monomials, 3.7 s)
MAX_HILBERT_MONOMIALS = 1_000_000


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 3
    def error(self, message):
        raise UsageError(message)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"needs an integer of at least {low}, got {text!r}")
        return value

    return parse


def read_forms_file(path: str, args) -> tuple[int, int | None, str, list[Form]]:
    """Parse a subspace/generators file: optional header line
    "s=<int> d=<int> order=<revlex|lex|mixed>", then one form per line.
    Comments start with '#'.  Header fields override flags, with a warning
    on conflict."""
    with open(path, encoding="utf-8") as handle:
        raw_lines = handle.read().splitlines()
    header: dict[str, str | int] = {}
    body: list[tuple[int, str]] = []
    for lineno, line in enumerate(raw_lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if not body and not header and "=" in stripped:
            for token in stripped.split():
                key, eq, value = token.partition("=")
                if not eq:
                    raise ValueError(f"{path}:{lineno}: bad header token {token!r}")
                if key not in ("s", "d", "order"):
                    raise ValueError(f"{path}:{lineno}: unknown header key {key!r}; expected s, d or order")
                if key in header:
                    raise ValueError(f"{path}:{lineno}: repeated header key {key!r}")
                if key != "order":
                    try:
                        value = _at_least(0)(value)
                    except argparse.ArgumentTypeError:
                        raise ValueError(f"{path}:{lineno}: header {token!r} needs a nonnegative integer") from None
                header[key] = value
            continue
        body.append((lineno, stripped))

    flag_vars, flag_order = getattr(args, "vars", None), getattr(args, "order", None)
    if flag_vars is not None and "s" in header and header["s"] != flag_vars:
        _warn(f"--vars {flag_vars} conflicts with header s={header['s']}; header wins")
    num_vars = header.get("s", flag_vars)
    if num_vars is None:
        raise ValueError(f"{path}: number of variables unknown; add a header or pass --vars")
    order = normalize_order_name(header["order"] if "order" in header else flag_order or REVLEX)
    if flag_order and "order" in header and normalize_order_name(flag_order) != order:
        _warn(f"--order {flag_order} conflicts with header order={header['order']}; header wins")

    forms = []
    for lineno, text in body:
        try:
            forms.append(parse_form(text, num_vars))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return num_vars, header.get("d"), order, forms


def load_subspace(path: str, args) -> Subspace:
    num_vars, degree, order, forms = read_forms_file(path, args)
    nonzero = [f for f in forms if not f.is_zero()]
    if degree is None:
        if not forms:
            raise ValueError(f"{path}: empty body needs d=<int> in the header")
        # the zero form parses at degree 0, so only a nonzero form tells the degree
        degree = nonzero[0].degree if nonzero else 0
    for f in nonzero:
        if f.degree != degree:
            raise ValueError(f"{path}: form of degree {f.degree} in a degree-{degree} subspace file")
    return echelonize(forms, order, num_vars=num_vars, degree=degree)


def load_generators(path: str, args) -> tuple[int, str, list[Form]]:
    num_vars, _, order, forms = read_forms_file(path, args)
    gens = [g for g in forms if not g.is_zero()]
    if not gens:
        raise ValueError(f"{path}: no nonzero generators")
    return num_vars, order, gens


def _emit(args, payload: dict, text: str) -> None:
    default_text = args.command == "ci-demo"
    use_json = (args.json or not default_text) and not args.text
    if use_json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _subspace_payload(space: Subspace) -> dict:
    return {
        "s": space.num_vars,
        "d": space.degree,
        "order": space.order,
        "basis": [format_form(f) for f in space.basis],
    }


def _subspace_text(space: Subspace) -> str:
    lines = [f"s={space.num_vars} d={space.degree} order={space.order}"]
    lines.extend(format_form(f) for f in space.basis)
    return "\n".join(lines)


# -- handlers ----------------------------------------------------------------


def cmd_in(args) -> int:
    space = load_subspace(args.file, args)
    monomials = initial_subspace(space)
    payload = {
        "monomials": monomials.strings(space.order),
        "dim": space.dim,
        "degree": space.degree,
        "order": space.order,
    }
    _emit(args, payload, " ".join(payload["monomials"]) if payload["monomials"] else "0")
    return EXIT_OK


def cmd_gin(args) -> int:
    space = load_subspace(args.file, args)
    report = gin_subspace(space, trials=args.trials, seed=args.seed, bound=args.bound)
    text = ("stable " if report.stable else "UNSTABLE ") + " ".join(report.result.strings())
    _emit(args, report.to_dict(), text)
    return EXIT_OK if report.stable else EXIT_INCONCLUSIVE


def cmd_gin_ideal(args) -> int:
    _, order, gens = load_generators(args.file, args)
    report = gin_ideal_truncated(
        gens, args.dmax, order, trials=args.trials, seed=args.seed, bound=args.bound
    )
    text = ("stable " if report.stable else "UNSTABLE ") + ", ".join(report.ideal.strings())
    _emit(args, report.to_dict(), text)
    return EXIT_OK if report.stable else EXIT_INCONCLUSIVE


def cmd_restrict(args) -> int:
    space = load_subspace(args.file, args)
    hyperplane = parse_form(args.hyperplane, space.num_vars)
    restricted = restrict_subspace(space, hyperplane)
    _emit(args, _subspace_payload(restricted), _subspace_text(restricted))
    return EXIT_OK


def cmd_gcd(args) -> int:
    f = parse_form(args.forms[0], args.vars)
    g = parse_form(args.forms[1], args.vars)
    result = gcd_forms(f, g)
    _emit(args, {"gcd": format_form(result), "degree": result.degree}, format_form(result))
    return EXIT_OK


def cmd_factor(args) -> int:
    space = load_subspace(args.file, args)
    factor, degree = common_factor(space)
    _emit(args, {"p": format_form(factor), "m": degree}, f"p = {format_form(factor)}; m = {degree}")
    return EXIT_OK


def cmd_verify(args) -> int:
    space = load_subspace(args.file, args)
    report = verify_main_theorem(space, trials=args.trials, seed=args.seed, bound=args.bound)
    _emit(args, report.to_dict(), f"status: {report.status}")
    if report.status in (STATUS_CERTIFICATE, STATUS_NOT_APPLICABLE):
        return EXIT_OK
    if report.status == STATUS_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_REFUTED


def cmd_make_instance(args) -> int:
    space, factor, cofactor = make_instance(
        args.vars, args.r, args.n, args.m, seed=args.seed, bound=args.bound
    )
    payload = {
        "s": args.vars,
        "r": args.r,
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "V": [format_form(f) for f in space.basis],
        "p": format_form(factor),
        "W_n": [format_form(f) for f in cofactor.basis],
    }
    text = "\n".join(
        [
            f"# planted p = {format_form(factor)}",
            _subspace_text(space),
        ]
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(_subspace_text(space) + "\n")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_probe(args) -> int:
    space = load_subspace(args.file, args)
    report = hyperplane_factor_probe(
        space, expected_m=args.expected_m, trials=args.trials, seed=args.seed, bound=args.bound
    )
    degrees = " ".join(
        "-" if s.factor_degree is None else str(s.factor_degree) for s in report.samples
    )
    text = f"restriction factor degrees: {degrees} (subspace factor degree {report.subspace_factor_degree})"
    _emit(args, report.to_dict(), text)
    return EXIT_OK if report.consistent else EXIT_REFUTED


def cmd_hilbert(args) -> int:
    if args.dmax < 0:
        raise ValueError("dmax must be nonnegative")
    count = comb(args.dmax + args.vars, args.vars)
    if count > MAX_HILBERT_MONOMIALS:
        raise ValueError(
            f"too many monomials: s={args.vars} has {count} of degree at most {args.dmax} (limit {MAX_HILBERT_MONOMIALS})"
        )
    ideal = parse_ideal(args.ideal, args.vars)
    values = [hilbert_function(ideal, d) for d in range(args.dmax + 1)]
    _emit(args, {"values": values, "dmax": args.dmax}, " ".join(str(v) for v in values))
    return EXIT_OK


def cmd_borel(args) -> int:
    ideal = parse_ideal(args.ideal, args.vars)
    fixed = is_borel_fixed(ideal)
    _emit(args, {"borel_fixed": fixed}, "borel-fixed" if fixed else "not borel-fixed")
    return EXIT_OK


def cmd_colon(args) -> int:
    ideal = parse_ideal(args.ideal, args.vars)
    quotient = colon_by_last_variable(ideal)
    saturated = quotient == ideal
    _emit(
        args,
        {"colon": quotient.strings(), "saturated": saturated},
        f"{quotient} ({'saturated' if saturated else 'not saturated'})",
    )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    try:
        quotient_hf = [int(v) for v in args.hf.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--hf needs comma-separated integers, got {args.hf!r}") from None
    candidates = enumerate_gin_candidates(args.vars, quotient_hf, args.dmax)
    payload = {"count": len(candidates), "candidates": [c.strings() for c in candidates]}
    _emit(args, payload, "\n".join(str(c) for c in candidates) if candidates else "none")
    return EXIT_OK


def cmd_ci_demo(args) -> int:
    report = ci_quadrics_demo(seed=args.seed, trials=args.trials, bound=args.bound)
    _emit(args, report.to_dict(), report.to_text())
    return EXIT_OK if report.ok else EXIT_REFUTED


# -- parser ------------------------------------------------------------------


def build_parser() -> CliParser:
    parser = CliParser(
        prog="ginalg",
        description="initial and generic initial subspaces of graded ideal pieces, exactly over the rationals",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, handler, help_text, *, needs_file=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="force JSON output")
        p.add_argument("--text", action="store_true", help="force plain-text output")
        if needs_file:
            p.add_argument("file", help="input file (header + one form per line)")
        return p

    def add_rand(p):
        p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
        p.add_argument("--trials", type=int, default=DEFAULTS["trials"])
        p.add_argument("--bound", type=int, default=DEFAULTS["bound"])

    def add_ring(p, *, order=True):
        p.add_argument("--vars", type=_at_least(0), default=None, help="number of variables s")
        if order:
            p.add_argument("--order", default=None, help="revlex | lex | mixed")

    p = add("in", cmd_in, "initial subspace of a subspace file", needs_file=True)
    add_ring(p)

    p = add("gin", cmd_gin, "generic initial subspace (randomized trials)", needs_file=True)
    add_ring(p)
    add_rand(p)

    p = add("gin-ideal", cmd_gin_ideal, "truncated generic initial ideal of generators", needs_file=True)
    add_ring(p)
    add_rand(p)
    p.add_argument("--dmax", type=int, required=True)

    p = add("restrict", cmd_restrict, "restrict a subspace to a hyperplane", needs_file=True)
    add_ring(p)
    p.add_argument("--hyperplane", required=True, help="a degree-1 form, e.g. 'x4' or 'x1+2*x2'")

    p = add("gcd", cmd_gcd, "gcd of two forms")
    p.add_argument("--vars", type=_at_least(0), required=True)
    p.add_argument("forms", nargs=2, help="two forms in the polynomial grammar")

    p = add("factor", cmd_factor, "common factor of a subspace", needs_file=True)
    add_ring(p)

    p = add("verify", cmd_verify, "main-theorem verification on a subspace", needs_file=True)
    add_ring(p)
    add_rand(p)

    p = add("make-instance", cmd_make_instance, "planted instance V = W_n * p")
    p.add_argument("--vars", type=_at_least(0), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--bound", type=int, default=10, help="coefficient bound for the planted data")
    p.add_argument("--out", default=None, help="also write the subspace file here")

    p = add("probe", cmd_probe, "hyperplane restriction factor probe", needs_file=True)
    add_ring(p)
    add_rand(p)
    p.add_argument("--expected-m", dest="expected_m", type=int, default=None)

    p = add("hilbert", cmd_hilbert, "quotient Hilbert function of a monomial ideal")
    p.add_argument("--vars", type=_at_least(1), required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("ideal", help="comma-separated monomials, e.g. 'x1^2, x1*x2'")

    p = add("borel", cmd_borel, "Borel-fixedness of a monomial ideal")
    p.add_argument("--vars", type=_at_least(0), required=True)
    p.add_argument("ideal")

    p = add("colon", cmd_colon, "colon of a monomial ideal by the last variable")
    p.add_argument("--vars", type=_at_least(1), required=True)
    p.add_argument("ideal")

    p = add("enumerate", cmd_enumerate, "monomial ideals matching Hilbert/Borel/saturation constraints")
    p.add_argument("--vars", type=_at_least(0), required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--hf", required=True, help="quotient Hilbert function, e.g. '1,4,7,8,8'")

    p = add("ci-demo", cmd_ci_demo, "three-quadrics complete-intersection demonstration")
    add_rand(p)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        message = str(exc)
        if any(a.startswith("-") and not a.startswith("--") and not a[1:].isdigit() for a in argv):
            # argparse reads an argument that begins with '-' as an option, unless it is a number
            message += "; a form that begins with '-' must follow '--' or be attached with '=' (--hyperplane=-x1+x3)"
        print(f"usage error: {message}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_REFUTED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
