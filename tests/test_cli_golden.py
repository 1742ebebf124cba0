"""Golden CLI output: for each call below, the exit code and the sha256 of stdout, of
stderr and of every file the call writes, pinned in fixtures/cli_golden.json.  Every
call is made in process through `run`; one call per subcommand, and the calls that
write a file, fail on usage or end unstable, are also made as a `python -m ginalg`
process, so the pins hold for what `main` writes on its way out too.

The input files are drawn with `random.Random` and written by this file's own
formatter, never through ginalg, so a change to the package cannot move them.  The
temporary directory is replaced by "{tmp}" before hashing.  For a call that prints
argparse help or usage text, only the exit code is pinned: that layout differs
across Python versions.

Re-pin after a deliberate change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ginalg.cli import run

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "cli_golden.json"
ORDERS = ("revlex", "lex", "mixed")


# -- inputs ------------------------------------------------------------------


def _monomials(num_vars, degree):
    if num_vars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in _monomials(num_vars - 1, degree - e)]


def _random_poly(rng, num_vars, degree, bound=9):
    poly = {}
    while not poly:
        poly = {m: c for m in _monomials(num_vars, degree) if (c := rng.randint(-bound, bound))}
    return poly


def _add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _mul(f, g):
    out = {}
    for u, a in f.items():
        for v, b in g.items():
            m = tuple(i + j for i, j in zip(u, v))
            out[m] = out.get(m, 0) + a * b
    return {m: c for m, c in out.items() if c}


def _text(poly):
    if not poly:
        return "0"
    parts = []
    for m in sorted(poly, reverse=True):
        c = poly[m]
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
        term = "*".join([str(abs(c))] + factors)
        parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts).removeprefix("+ ")


def _write_inputs(tmp: Path) -> None:
    rng = random.Random(20)

    def write(name, header, polys):
        (tmp / name).write_text("\n".join(([header] if header else []) + [_text(p) for p in polys]) + "\n")

    write("dense.txt", "s=4 d=2", [_random_poly(rng, 4, 2) for _ in range(4)])
    a, b = _random_poly(rng, 3, 2), _random_poly(rng, 3, 2)
    write("dependent.txt", "s=3", [a, {}, b, a, _add(a, b)])
    write("cubic.txt", "s=3", [_random_poly(rng, 3, 3) for _ in range(4)])
    p = _random_poly(rng, 4, 1)
    write("planted.txt", "s=4 d=2", [_mul(_random_poly(rng, 4, 1), p) for _ in range(3)])
    q = _random_poly(rng, 3, 1)
    write("quadric-factor.txt", "s=3", [_mul(_random_poly(rng, 3, 1), q) for _ in range(2)])
    write("gens.txt", "s=3", [_random_poly(rng, 3, 2) for _ in range(2)])
    write("lex-header.txt", "s=3 d=2 order=lex", [_random_poly(rng, 3, 2) for _ in range(2)])
    write("zero.txt", "s=3 d=2", [{}])
    # spelled by hand: rational coefficients; one monomial three ways; a bad variable after good lines
    (tmp / "fractions.txt").write_text(
        "s=3 d=2\n1/2*x1^2 - 2/3*x2*x3\n3/4*x1*x2 + x3^2 - 5/6*x2^2\n-7/2*x1*x3 + 1/9*x2^2 + 4/3*x1*x2\n"
    )
    (tmp / "spellings.txt").write_text(
        "s=3\nx1^2*x2 - x2*x1*x1 + 2 * x1 * x1 * x2 - x3^3\n2*x2*x1*x1 + x2^3\nx1 * x1 * x2 + x1*x2*x3\n"
    )
    (tmp / "bad-variable.txt").write_text("s=3\nx1^2*x2 - x3^3\nx2*x1*x1 + x2^3\nx1^2*x2 + x1*x4^2\n")
    # bound 1 draws that disagree at seed 0: an unstable gin
    (tmp / "unstable.txt").write_text("s=3 d=2 order=revlex\nx1*x3 - x2^2\nx1^2 + x3^2\n")
    write("quadrics.txt", "s=4", [_random_poly(rng, 4, 2) for _ in range(3)])
    write("mixed-degrees.txt", "s=4", [_random_poly(rng, 4, 2), _random_poly(rng, 4, 3), _random_poly(rng, 4, 3)])
    write("one-quadric.txt", "s=3", [_random_poly(rng, 3, 2)])
    write("two-quadrics.txt", "s=3", [_random_poly(rng, 3, 2) for _ in range(2)])
    p = _random_poly(rng, 5, 1)
    write("planted-five.txt", "s=5 d=2", [_mul(_random_poly(rng, 5, 1), p) for _ in range(5)])
    write("dense-quintics.txt", "s=6 d=5", [_random_poly(rng, 6, 5) for _ in range(60)])
    write("big-coefficients.txt", "s=4 d=3", [_random_poly(rng, 4, 3, bound=10**60) for _ in range(6)])


# -- calls -------------------------------------------------------------------

# (name, argv, pins only the exit code)
CASES = [
    *[(f"in-dense-{o}", ["in", "--order", o, "{tmp}/dense.txt"], False) for o in ORDERS],
    *[(f"in-dependent-{o}", ["in", "--order", o, "{tmp}/dependent.txt"], False) for o in ORDERS],
    ("in-text", ["in", "--text", "{tmp}/dense.txt"], False),
    ("in-zero", ["in", "{tmp}/zero.txt"], False),
    ("in-header-conflict", ["in", "--order", "revlex", "--vars", "4", "{tmp}/lex-header.txt"], False),
    *[(f"gin-cubic-{o}", ["gin", "--order", o, "--seed", "3", "{tmp}/cubic.txt"], False) for o in ORDERS],
    ("gin-dependent", ["gin", "--seed", "4", "{tmp}/dependent.txt"], False),
    ("gin-text", ["gin", "--text", "--trials", "2", "{tmp}/dense.txt"], False),
    # 60 rows in s=6, d=5, and 60-digit entries of both signs: wide packed columns
    ("gin-dense-quintics", ["gin", "--seed", "6", "{tmp}/dense-quintics.txt"], False),
    ("gin-big-coefficients", ["gin", "--seed", "8", "{tmp}/big-coefficients.txt"], False),
    ("gin-lex-wide-bound", ["gin", "--order", "lex", "--bound", "1000000", "{tmp}/cubic.txt"], False),
    ("gin-unstable", ["gin", "--seed", "0", "--bound", "1", "{tmp}/unstable.txt"], False),
    *[(f"gin-ideal-{o}", ["gin-ideal", "--order", o, "--dmax", "4", "--seed", "1", "{tmp}/gens.txt"], False)
      for o in ORDERS],
    ("gin-ideal-text", ["gin-ideal", "--text", "--dmax", "3", "{tmp}/gens.txt"], False),
    # above reg 4 every product of a degree reduces to zero
    ("gin-ideal-quadrics", ["gin-ideal", "--dmax", "6", "--seed", "2", "{tmp}/quadrics.txt"], False),
    *[(f"gin-ideal-mixed-degrees-{o}", ["gin-ideal", "--order", o, "--dmax", "5", "{tmp}/mixed-degrees.txt"], False)
      for o in ORDERS],
    ("gin-ideal-one-trial", ["gin-ideal", "--bound", "1", "--trials", "1", "--dmax", "5", "{tmp}/quadrics.txt"],
     False),
    *[(f"restrict-{o}", ["restrict", "--order", o, "--hyperplane", "x1 + 2*x2 - x4", "{tmp}/dense.txt"], False)
      for o in ORDERS],
    ("restrict-text", ["restrict", "--text", "--hyperplane", "x3", "{tmp}/dependent.txt"], False),
    ("restrict-degree-two", ["restrict", "--hyperplane", "x1^2", "{tmp}/dense.txt"], False),
    *[(f"factor-{o}", ["factor", "--order", o, "{tmp}/planted.txt"], False) for o in ORDERS],
    ("factor-text", ["factor", "--text", "{tmp}/quadric-factor.txt"], False),
    ("factor-coprime", ["factor", "{tmp}/dense.txt"], False),
    ("factor-zero", ["factor", "{tmp}/zero.txt"], False),
    ("verify-planted", ["verify", "--seed", "5", "{tmp}/planted.txt"], False),
    ("verify-dense", ["verify", "{tmp}/dense.txt"], False),
    ("verify-lex", ["verify", "--order", "lex", "{tmp}/planted.txt"], False),
    ("verify-text", ["verify", "--text", "--seed", "2", "{tmp}/quadric-factor.txt"], False),
    # gin shapes at the edges: x1^2 is (1, 0, 2); x1*(x1, x2) is r=2, not-applicable; x1*(x1..x5) is r=s=5
    ("verify-one-quadric", ["verify", "{tmp}/one-quadric.txt"], False),
    ("verify-two-quadrics", ["verify", "{tmp}/two-quadrics.txt"], False),
    ("verify-planted-five", ["verify", "--seed", "3", "{tmp}/planted-five.txt"], False),
    ("make-instance-out", ["make-instance", "--vars", "4", "--r", "3", "--n", "1", "--m", "1", "--seed", "9",
                           "--out", "{tmp}/inst.txt"], False),
    ("make-instance-text", ["make-instance", "--text", "--vars", "3", "--r", "3", "--n", "2", "--m", "1"], False),
    ("make-instance-n0", ["make-instance", "--vars", "5", "--r", "3", "--n", "0", "--m", "2", "--seed", "4"], False),
    ("make-instance-bad-r", ["make-instance", "--vars", "2", "--r", "2", "--n", "1", "--m", "1"], False),
    ("probe-planted", ["probe", "--seed", "6", "--expected-m", "1", "{tmp}/planted.txt"], False),
    ("probe-dense", ["probe", "--trials", "3", "{tmp}/dense.txt"], False),
    ("probe-text", ["probe", "--text", "--order", "lex", "{tmp}/quadric-factor.txt"], False),
    ("gcd", ["gcd", "--vars", "3", "x1^2*x2 - x2*x3^2", "x1*x2 + x2*x3"], False),
    ("gcd-coprime", ["gcd", "--text", "--vars", "2", "x1^2 + x2^2", "x1 + 3*x2"], False),
    ("gcd-zero", ["gcd", "--vars", "2", "0", "2*x1 - 4*x2"], False),
    ("gcd-two-zeros", ["gcd", "--vars", "2", "0", "0"], False),
    ("hilbert", ["hilbert", "--vars", "3", "--dmax", "5", "x1^2, x1*x2, x2^3"], False),
    ("hilbert-text", ["hilbert", "--text", "--vars", "4", "--dmax", "3", "x1, x2^2"], False),
    ("hilbert-too-many", ["hilbert", "--vars", "30", "--dmax", "30", "x1"], False),
    ("hilbert-negative", ["hilbert", "--vars", "2", "--dmax", "-1", "x1"], False),
    ("borel", ["borel", "--vars", "3", "x1^2, x1*x2, x2^2"], False),
    ("borel-not", ["borel", "--text", "--vars", "3", "x1^2, x2^2"], False),
    ("borel-three-degrees", ["borel", "--vars", "4", "x1^2, x1*x2, x2^3, x1*x3^2"], False),
    ("borel-three-degrees-not", ["borel", "--vars", "4", "x1^2, x1*x2, x2^3, x1*x3^2, x1*x4"], False),
    ("colon", ["colon", "--vars", "3", "x1^2, x1*x3, x2*x3^2"], False),
    ("colon-saturated", ["colon", "--text", "--vars", "3", "x1^2, x1*x2"], False),
    ("enumerate", ["enumerate", "--vars", "3", "--dmax", "3", "--hf", "1,3,4,4"], False),
    ("enumerate-text", ["enumerate", "--text", "--vars", "4", "--dmax", "3", "--hf", "1,4,7,8"], False),
    ("enumerate-bad-hf", ["enumerate", "--vars", "3", "--dmax", "3", "--hf", "1,x"], False),
    ("ci-demo", ["ci-demo"], False),
    ("ci-demo-json", ["ci-demo", "--json", "--seed", "2"], False),
    *[(f"{c}-fractions", [c, "{tmp}/fractions.txt"], False) for c in ("in", "gin", "verify")],
    *[(f"{c}-spellings", [c, "{tmp}/spellings.txt"], False) for c in ("in", "gin")],
    *[(f"{c}-bad-variable", [c, "{tmp}/bad-variable.txt"], False) for c in ("in", "gin")],
    ("missing-file", ["in", "{tmp}/missing.txt"], False),
    ("no-arguments", [], True),
    ("help", ["--help"], True),
    ("unknown-command", ["frobnicate"], True),
    ("missing-argument", ["gcd", "--vars", "2", "x1"], True),
]

# the file and usage errors of the subspace-file tests, each through `gin` and `in`
_FILE_ERRORS = [
    ("wrong-degree", [], "s=2 d=2\nx1^2\nx1*x2^2\n", ("gin", "in")),
    ("wrong-degree-no-d", [], "s=2\nx1^2\nx2^3\n", ("gin", "in")),
    ("empty-body", [], "s=2\n# nothing\n", ("gin", "in")),
    ("vars-zero", ["--vars", "0"], "x1^2\n", ("gin", "in")),
    ("vars-zero-constant", ["--vars", "0"], "1\n", ("gin",)),
    ("vars-negative", ["--vars", "-1"], "x1^2\n", ("gin", "in")),
    ("header-count", [], "s=2 d=x\nx1^2\n", ("gin", "in")),
    ("header-key", [], "s=2 q=1\nx1^2\n", ("gin", "in")),
    ("header-token", [], "s=2 d\nx1^2\n", ("gin", "in")),
]
CASES += [
    (f"{command}-{name}", [command, *flags, f"{{tmp}}/{name}.txt"], name == "vars-negative")
    for name, flags, _, commands in _FILE_ERRORS
    for command in commands
]


# one call per subcommand, then `--out`, a usage error, a bad value and an unstable gin
PROCESS_CASES = [
    "in-dense-revlex", "gin-cubic-revlex", "gin-ideal-revlex", "restrict-revlex", "factor-revlex",
    "make-instance-text", "verify-planted", "probe-planted", "gcd", "hilbert", "borel", "colon",
    "enumerate", "ci-demo",
    "make-instance-out", "missing-argument", "enumerate-bad-hf", "gin-unstable",
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _in_process(argv, cwd) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _in_a_process(argv, cwd) -> tuple[int, str, str]:
    result = subprocess.run(
        [sys.executable, "-m", "ginalg", *argv], capture_output=True, encoding="utf-8", timeout=120, cwd=cwd
    )
    return result.returncode, result.stdout, result.stderr


def _pins(argv, exit_only: bool, call=_in_process) -> dict:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _write_inputs(tmp)
        for error, _, body, _ in _FILE_ERRORS:
            (tmp / f"{error}.txt").write_text(body)
        before = set(tmp.iterdir())
        code, out, err = call([a.replace("{tmp}", name) for a in argv], tmp)
        if exit_only:
            return {"exit": code}
        pins = {"exit": code, "stdout": _sha(out.replace(name, "{tmp}")), "stderr": _sha(err.replace(name, "{tmp}"))}
        for path in sorted(set(tmp.iterdir()) - before):
            pins[f"file:{path.name}"] = _sha(path.read_text(encoding="utf-8").replace(name, "{tmp}"))
        return pins


def _pinned() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_every_call_is_pinned():
    assert len({name for name, _, _ in CASES}) == len(CASES)
    assert sorted(_pinned()) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name, argv, exit_only", CASES, ids=[name for name, _, _ in CASES])
def test_cli_output_matches_its_pin(name, argv, exit_only):
    assert _pins(argv, exit_only) == _pinned()[name]


def test_every_subcommand_has_a_process_call():
    from ginalg.cli import COMMANDS

    by_name = {name: argv for name, argv, _ in CASES}
    assert set(PROCESS_CASES) <= set(by_name)
    assert {by_name[name][0] for name in PROCESS_CASES} >= set(COMMANDS)


@pytest.mark.parametrize("name", PROCESS_CASES)
def test_cli_process_output_matches_its_pin(name):
    argv, exit_only = next((argv, exit_only) for case, argv, exit_only in CASES if case == name)
    assert _pins(argv, exit_only, _in_a_process) == _pinned()[name]


if __name__ == "__main__":
    pins = {name: _pins(argv, exit_only) for name, argv, exit_only in CASES}
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pins)} calls in {FIXTURE}", file=sys.stderr)
