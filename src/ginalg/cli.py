"""Command-line interface.

One binary with subcommands; JSON is the machine interface (default for
computational commands), plain text the human one (default for ci-demo).
Exit codes: 0 success/verified, 1 refuted/assertion failure, 2
inconclusive (unstable gin), 3 usage/parse error.  Output is byte-identical
for identical argv and input files.

Every call is a new process, so each pays only for its own subcommand: the
parser holds that subcommand's subparser alone (all of them only for help
and for an unknown command), and the handlers import `gin`, `factors`,
`ideals` and `demo` in their own bodies.  An `in` call loads `cli`, `forms`
and `subspaces`, and nothing else of the package.

A subspace or generators file is read straight into integer rows, one per
form (`read_forms_file`), which the subspace commands take as they are;
only `gin-ideal` turns its rows into Forms, its generators.
"""

from __future__ import annotations

import argparse
import json
import sys

from .forms import (
    REVLEX,
    Form,
    InvariantError,
    Row,
    check_monomial_count,
    cleared_row,
    form_from_row,
    format_form,
    normalize_order_name,
    parse_form,
    parse_terms,
)
from .subspaces import DEFAULT_BOUND, DEFAULT_TRIALS, MonomialSet, RowEchelon, Subspace, restrict_subspace

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


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


def read_forms_file(path: str, args) -> tuple[int, int | None, str, list[tuple[int, Row]]]:
    """Parse a subspace/generators file: optional header line
    "s=<int> d=<int> order=<revlex|lex|mixed>", then one form per line.
    Comments start with '#'.  Header fields override flags, with a warning
    on conflict.  Each form is read as its degree and its integer row, the
    form times the lcm of its denominators; no Form is built."""
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

    flag_vars, flag_order = args.vars, args.order
    if flag_vars is not None and "s" in header and header["s"] != flag_vars:
        _warn(f"--vars {flag_vars} conflicts with header s={header['s']}; header wins")
    num_vars = header.get("s", flag_vars)
    if num_vars is None:
        raise ValueError(f"{path}: number of variables unknown; add a header or pass --vars")
    order = normalize_order_name(header["order"] if "order" in header else flag_order or REVLEX)
    if flag_order and "order" in header and normalize_order_name(flag_order) != order:
        _warn(f"--order {flag_order} conflicts with header order={header['order']}; header wins")

    lines = []
    for lineno, text in body:
        try:
            degree, terms = parse_terms(text, num_vars)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        lines.append((degree, cleared_row(terms)[0]))
    return num_vars, header.get("d"), order, lines


def read_subspace_file(path: str, args) -> tuple[int, int, str, list[Row]]:
    """A forms file as one graded piece, of the header's d or its first nonzero form's degree,
    and the rows of its forms: the fields of the `Subspace` they span."""
    num_vars, degree, order, lines = read_forms_file(path, args)
    nonzero = [d for d, row in lines if row]
    if degree is None:
        if not lines:
            raise ValueError(f"{path}: empty body needs d=<int> in the header")
        # the zero form parses at degree 0, so only a nonzero form tells the degree
        degree = nonzero[0] if nonzero else 0
    for d in nonzero:
        if d != degree:
            raise ValueError(f"{path}: form of degree {d} in a degree-{degree} subspace file")
    return num_vars, degree, order, [row for _, row in lines]


def load_subspace(path: str, args) -> Subspace:
    return Subspace(*read_subspace_file(path, args))


def load_generators(path: str, args) -> tuple[int, str, list[Form]]:
    """The nonzero forms of a file, each as its integer row: the ideal they generate is the same."""
    num_vars, _, order, lines = read_forms_file(path, args)
    gens = [form_from_row(num_vars, d, row, 1) for d, row in lines if row]
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


def _subspace_payload(space: Subspace, basis: list[str]) -> dict:
    """The JSON of a subspace, given its basis already formatted."""
    return {"s": space.num_vars, "d": space.degree, "order": space.order, "basis": basis}


def _subspace_text(space: Subspace, basis: list[str]) -> str:
    """A subspace file: its header line, then the formatted basis."""
    return "\n".join([f"s={space.num_vars} d={space.degree} order={space.order}", *basis])


# -- handlers ----------------------------------------------------------------


def cmd_in(args) -> int:
    num_vars, degree, order, rows = read_subspace_file(args.file, args)
    pivots = RowEchelon(order, rows).rows
    payload = {
        "monomials": MonomialSet(num_vars, degree, frozenset(pivots)).strings(order),
        "dim": len(pivots),
        "degree": degree,
        "order": order,
    }
    _emit(args, payload, " ".join(payload["monomials"]) if payload["monomials"] else "0")
    return EXIT_OK


def cmd_gin(args) -> int:
    from .gin import gin_subspace

    num_vars, degree, order, rows = read_subspace_file(args.file, args)
    report = gin_subspace(rows, num_vars, degree, order, args.trials, args.seed, args.bound)
    text = ("stable " if report.stable else "UNSTABLE ") + " ".join(report.result.strings())
    _emit(args, report.to_dict(), text)
    return EXIT_OK if report.stable else EXIT_INCONCLUSIVE


def cmd_gin_ideal(args) -> int:
    from .gin import gin_ideal_truncated

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
    basis = [format_form(f) for f in restricted.basis]
    _emit(args, _subspace_payload(restricted, basis), _subspace_text(restricted, basis))
    return EXIT_OK


def cmd_gcd(args) -> int:
    from .factors import gcd_forms

    f = parse_form(args.forms[0], args.vars)
    g = parse_form(args.forms[1], args.vars)
    result = gcd_forms(f, g)
    text = format_form(result)
    _emit(args, {"gcd": text, "degree": result.degree}, text)
    return EXIT_OK


def cmd_factor(args) -> int:
    from .factors import common_factor

    space = load_subspace(args.file, args)
    factor, degree = common_factor(space)
    p = format_form(factor)
    _emit(args, {"p": p, "m": degree}, f"p = {p}; m = {degree}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .factors import STATUS_CERTIFICATE, STATUS_INCONCLUSIVE, STATUS_NOT_APPLICABLE, verify_main_theorem

    space = load_subspace(args.file, args)
    report = verify_main_theorem(space, trials=args.trials, seed=args.seed, bound=args.bound)
    _emit(args, report.to_dict(), f"status: {report.status}")
    if report.status in (STATUS_CERTIFICATE, STATUS_NOT_APPLICABLE):
        return EXIT_OK
    if report.status == STATUS_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_REFUTED


def cmd_make_instance(args) -> int:
    from .factors import make_instance

    space, factor, cofactor = make_instance(
        args.vars, args.r, args.n, args.m, seed=args.seed, bound=args.bound
    )
    basis = [format_form(f) for f in space.basis]
    p = format_form(factor)
    subspace_text = _subspace_text(space, basis)
    payload = {
        "s": args.vars,
        "r": args.r,
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "V": basis,
        "p": p,
        "W_n": [format_form(f) for f in cofactor.basis],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(subspace_text + "\n")
    _emit(args, payload, f"# planted p = {p}\n{subspace_text}")
    return EXIT_OK


def cmd_probe(args) -> int:
    from .factors import hyperplane_factor_probe

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
    from .ideals import MAX_HILBERT_MONOMIALS, hilbert_function, parse_ideal

    if args.dmax < 0:
        raise ValueError("dmax must be nonnegative")
    check_monomial_count(args.vars, args.dmax, MAX_HILBERT_MONOMIALS)
    ideal = parse_ideal(args.ideal, args.vars)
    values = [hilbert_function(ideal, d) for d in range(args.dmax + 1)]
    _emit(args, {"values": values, "dmax": args.dmax}, " ".join(str(v) for v in values))
    return EXIT_OK


def cmd_borel(args) -> int:
    from .ideals import is_borel_fixed, parse_ideal

    ideal = parse_ideal(args.ideal, args.vars)
    fixed = is_borel_fixed(ideal)
    _emit(args, {"borel_fixed": fixed}, "borel-fixed" if fixed else "not borel-fixed")
    return EXIT_OK


def cmd_colon(args) -> int:
    from .ideals import colon_by_last_variable, parse_ideal

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
    from .ideals import enumerate_gin_candidates

    try:
        quotient_hf = [int(v) for v in args.hf.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--hf needs comma-separated integers, got {args.hf!r}") from None
    candidates = enumerate_gin_candidates(args.vars, quotient_hf, args.dmax)
    payload = {"count": len(candidates), "candidates": [c.strings() for c in candidates]}
    _emit(args, payload, "\n".join(str(c) for c in candidates) if candidates else "none")
    return EXIT_OK


def cmd_ci_demo(args) -> int:
    from .demo import ci_quadrics_demo

    report = ci_quadrics_demo(seed=args.seed, trials=args.trials, bound=args.bound)
    _emit(args, report.to_dict(), report.to_text())
    return EXIT_OK if report.ok else EXIT_REFUTED


# -- parser ------------------------------------------------------------------


def _arg(*flags, **kwargs):
    """One `add_argument` call of a subcommand."""
    return flags, kwargs


def _command(handler, help_text, *arguments, file=False, rand=False):
    """A subcommand; a file command reads a forms file with --vars and --order,
    a randomized one takes --seed, --trials and --bound, and its own arguments follow."""
    return handler, help_text, file, rand, arguments


# in help order
COMMANDS = {
    "in": _command(cmd_in, "initial subspace of a subspace file", file=True),
    "gin": _command(cmd_gin, "generic initial subspace (randomized trials)", file=True, rand=True),
    "gin-ideal": _command(
        cmd_gin_ideal,
        "truncated generic initial ideal of generators",
        _arg("--dmax", type=int, required=True),
        file=True,
        rand=True,
    ),
    "restrict": _command(
        cmd_restrict,
        "restrict a subspace to a hyperplane",
        _arg("--hyperplane", required=True, help="a degree-1 form, e.g. 'x4' or 'x1+2*x2'"),
        file=True,
    ),
    "gcd": _command(
        cmd_gcd,
        "gcd of two forms",
        _arg("--vars", type=_at_least(0), required=True),
        _arg("forms", nargs=2, help="two forms in the polynomial grammar"),
    ),
    "factor": _command(cmd_factor, "common factor of a subspace", file=True),
    "verify": _command(cmd_verify, "main-theorem verification on a subspace", file=True, rand=True),
    "make-instance": _command(
        cmd_make_instance,
        "planted instance V = W_n * p",
        _arg("--vars", type=_at_least(0), required=True),
        _arg("--r", type=int, required=True),
        _arg("--n", type=int, required=True),
        _arg("--m", type=int, required=True),
        _arg("--seed", type=int, default=0),
        _arg("--bound", type=int, default=10, help="coefficient bound for the planted data"),
        _arg("--out", default=None, help="also write the subspace file here"),
    ),
    "probe": _command(
        cmd_probe,
        "hyperplane restriction factor probe",
        _arg("--expected-m", dest="expected_m", type=int, default=None),
        file=True,
        rand=True,
    ),
    "hilbert": _command(
        cmd_hilbert,
        "quotient Hilbert function of a monomial ideal",
        _arg("--vars", type=_at_least(1), required=True),
        _arg("--dmax", type=int, required=True),
        _arg("ideal", help="comma-separated monomials, e.g. 'x1^2, x1*x2'"),
    ),
    "borel": _command(
        cmd_borel,
        "Borel-fixedness of a monomial ideal",
        _arg("--vars", type=_at_least(0), required=True),
        _arg("ideal"),
    ),
    "colon": _command(
        cmd_colon,
        "colon of a monomial ideal by the last variable",
        _arg("--vars", type=_at_least(1), required=True),
        _arg("ideal"),
    ),
    "enumerate": _command(
        cmd_enumerate,
        "monomial ideals matching Hilbert/Borel/saturation constraints",
        _arg("--vars", type=_at_least(0), required=True),
        _arg("--dmax", type=int, required=True),
        _arg("--hf", required=True, help="quotient Hilbert function, e.g. '1,4,7,8,8'"),
    ),
    "ci-demo": _command(cmd_ci_demo, "three-quadrics complete-intersection demonstration", rand=True),
}


def build_parser(argv=()) -> CliParser:
    """The parser for argv.  When argv[0] names a subcommand, only that subparser is
    built; with no argument, -h or an unknown command, all of them, so the help and the
    invalid-choice error list every command.  A subparser is the same either way."""
    parser = CliParser(
        prog="ginalg",
        description="initial and generic initial subspaces of graded ideal pieces, exactly over the rationals",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    for name in names:
        handler, help_text, file, rand, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="force JSON output")
        p.add_argument("--text", action="store_true", help="force plain-text output")
        if file:
            p.add_argument("file", help="input file (header + one form per line)")
            p.add_argument("--vars", type=_at_least(0), default=None, help="number of variables s")
            p.add_argument("--order", default=None, help="revlex | lex | mixed")
        if rand:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
            p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def run(argv) -> int:
    parser = build_parser(argv)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_REFUTED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
