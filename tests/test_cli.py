import argparse
import gc
import importlib
import json
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ginalg import echelonize, format_form, random_form
from ginalg.cli import run
from oracles import add, scale


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def quadrics_file(tmp_path):
    path = tmp_path / "V.txt"
    path.write_text(
        "# three quadrics\n"
        "s=4 d=2 order=revlex\n"
        "x1^2 - x2*x4\n"
        "x1*x2 - x3*x4\n"
        "x1*x3 - x4^2\n"
    )
    return str(path)


def test_in_subcommand(capsys, quadrics_file):
    code, out, _ = invoke(capsys, ["in", quadrics_file])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "monomials": ["x1^2", "x1*x2", "x1*x3"],
        "dim": 3,
        "degree": 2,
        "order": "revlex",
    }


def test_gin_subcommand_schema_and_determinism(capsys, quadrics_file):
    code, out1, _ = invoke(capsys, ["gin", "--seed", "7", quadrics_file])
    assert code == 0
    payload = json.loads(out1)
    assert set(payload) == {"result", "trials", "agreements", "stable", "seeds"}
    assert payload["stable"] is True and payload["trials"] == 3
    code, out2, _ = invoke(capsys, ["gin", "--seed", "7", quadrics_file])
    assert out1 == out2  # byte-identical


def test_gin_ideal_subcommand(capsys, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("s=3 order=revlex\nx1^2\n")
    code, out, _ = invoke(capsys, ["gin-ideal", "--dmax", "3", "--seed", "1", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["x1^2"]
    assert payload["stable"] is True
    assert set(payload["per_degree"]) == {"2", "3"}


def test_restrict_subcommand(capsys, quadrics_file):
    code, out, _ = invoke(capsys, ["restrict", "--hyperplane", "x4", "--text", quadrics_file])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s=3 d=2 order=revlex"
    assert lines[1:] == ["x1^2", "x1*x2", "x1*x3"]


def test_gcd_subcommand(capsys):
    code, out, _ = invoke(capsys, ["gcd", "--vars", "3", "x1^2*x2", "x1*x2^2"])
    assert code == 0
    assert json.loads(out) == {"gcd": "x1*x2", "degree": 2}


def test_factor_subcommand(capsys, tmp_path):
    path = tmp_path / "V.txt"
    path.write_text("s=3 d=2 order=revlex\nx1^2 + x1*x2\nx1*x3\n")
    code, out, _ = invoke(capsys, ["factor", str(path)])
    assert code == 0
    assert json.loads(out) == {"p": "x1", "m": 1}


def test_verify_not_applicable_exits_zero(capsys, quadrics_file):
    code, out, _ = invoke(capsys, ["verify", "--seed", "3", quadrics_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "not-applicable"
    assert payload["shape"]["m"] == 0


def test_verify_certificate_round_trip(capsys, tmp_path):
    code, out, _ = invoke(
        capsys,
        ["make-instance", "--vars", "4", "--r", "3", "--n", "1", "--m", "1", "--seed", "5",
         "--out", str(tmp_path / "inst.txt")],
    )
    assert code == 0
    made = json.loads(out)
    assert len(made["V"]) == 3 and made["p"]
    code, out, _ = invoke(capsys, ["verify", "--seed", "11", str(tmp_path / "inst.txt")])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "certificate"
    cert = payload["certificate"]
    assert set(cert) == {"p", "m", "r", "n", "W_n", "checked"}
    assert cert["checked"] is True and cert["m"] == 1


@pytest.mark.parametrize("found", [0, 2])
def test_verify_reports_a_factor_degree_other_than_m(capsys, monkeypatch, tmp_path, found):
    # the planted instance certifies with m = 1; a common factor of another degree is a violation
    from ginalg import factors, parse_form

    path = str(tmp_path / "inst.txt")
    invoke(capsys, ["make-instance", "--vars", "4", "--r", "3", "--n", "1", "--m", "1", "--seed", "5", "--out", path])
    factor = parse_form("1" if found == 0 else "x1^2", 4)
    monkeypatch.setattr(factors, "common_factor", lambda space: (factor, found))
    code, out, _ = invoke(capsys, ["verify", "--seed", "11", path])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "violation" and payload["certificate"] is None
    details = payload["details"]
    keys = {"basis", "gin", "factor", "factor_degree", "expected_degree", "seed", "trials", "bound"}
    assert set(details) == (keys | {"note"} if found > 1 else keys)
    assert len(details["basis"]) == 3 and details["gin"] == payload["gin"]["result"]
    assert details["factor"] == format_form(factor)
    assert (details["factor_degree"], details["expected_degree"]) == (found, 1)
    assert (details["seed"], details["trials"], details["bound"]) == (11, 3, 100)


def test_probe_subcommand(capsys, tmp_path):
    code, _, _ = invoke(
        capsys,
        ["make-instance", "--vars", "4", "--r", "3", "--n", "1", "--m", "1", "--seed", "6",
         "--out", str(tmp_path / "inst.txt")],
    )
    assert code == 0
    code, out, _ = invoke(
        capsys, ["probe", "--expected-m", "1", "--seed", "1006", str(tmp_path / "inst.txt")]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert all(s["factor_degree"] >= 1 for s in payload["samples"])


def test_hilbert_borel_colon_subcommands(capsys):
    j1 = "x1^2, x1*x2, x2^2, x1*x3^2, x2*x3^2, x3^4"
    code, out, _ = invoke(capsys, ["hilbert", "--vars", "4", "--dmax", "4", j1])
    assert code == 0 and json.loads(out)["values"] == [1, 4, 7, 8, 8]
    code, out, _ = invoke(capsys, ["borel", "--vars", "4", j1])
    assert code == 0 and json.loads(out) == {"borel_fixed": True}
    code, out, _ = invoke(capsys, ["colon", "--vars", "4", j1])
    assert code == 0
    payload = json.loads(out)
    assert payload["saturated"] is True
    code, out, _ = invoke(capsys, ["colon", "--vars", "4", "x1*x4"])
    assert json.loads(out) == {"colon": ["x1"], "saturated": False}


def test_enumerate_subcommand(capsys):
    code, out, _ = invoke(
        capsys, ["enumerate", "--vars", "4", "--dmax", "4", "--hf", "1,4,7,8,8"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["candidates"][0] == ["x1^2", "x1*x2", "x2^2", "x1*x3^2", "x2*x3^2", "x3^4"]
    assert payload["candidates"][1] == [
        "x1^2", "x1*x2", "x1*x3", "x2^3", "x2^2*x3", "x2*x3^2", "x3^4",
    ]


@pytest.mark.parametrize("hf", ["-1,2", "2,3,3"])
def test_enumerate_impossible_hilbert_function_exits_three(capsys, hf):
    code, out, err = invoke(capsys, ["enumerate", "--vars", "2", "--dmax", "2", f"--hf={hf}"])
    assert code == 3 and out == ""
    assert "nonnegative with value 1 in degree 0" in err


@pytest.mark.parametrize(
    "hf",
    [
        "1,3,7",  # 7 quotient monomials of degree 2, but S_2 has 6
        "1,2,6",  # the ideal has 1 monomial of degree 1 and none of degree 2
        "1,3,1",  # 5 more ideal monomials in degree 2 than in 1, but x1, x2 have 3 of degree 2
    ],
)
def test_infeasible_hilbert_function_has_no_candidate(capsys, hf):
    from ginalg import enumerate_gin_candidates

    assert enumerate_gin_candidates(3, [int(v) for v in hf.split(",")], 2) == []
    assert invoke(capsys, ["enumerate", "--text", "--vars", "3", "--dmax", "2", "--hf", hf]) == (0, "none\n", "")


def test_ci_demo_text_output(capsys):
    code, out, _ = invoke(capsys, ["ci-demo", "--seed", "1"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "gin = J1: PASS"


def test_ci_demo_json_output(capsys):
    code, out, _ = invoke(capsys, ["ci-demo", "--seed", "1", "--json"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_header_overrides_flags_with_warning(capsys, quadrics_file):
    code, out, err = invoke(capsys, ["in", "--vars", "3", quadrics_file])
    assert code == 0
    assert "header wins" in err
    assert json.loads(out)["dim"] == 3


def test_empty_body_gives_zero_subspace(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("s=3 d=2 order=revlex\n# nothing else\n")
    code, out, _ = invoke(capsys, ["in", str(path)])
    assert code == 0
    assert json.loads(out) == {"monomials": [], "dim": 0, "degree": 2, "order": "revlex"}


def test_usage_errors_exit_three(capsys, tmp_path):
    code, _, err = invoke(capsys, ["no-such-command"])
    assert code == 3
    code, _, err = invoke(capsys, ["gcd", "--vars", "2", "x1 +", "x2"])
    assert code == 3 and "error" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("s=2 d=2 order=revlex\nx1 + x2^2\n")
    code, _, err = invoke(capsys, ["in", str(bad)])
    assert code == 3 and "bad.txt:2" in err


def _ginalg(argv):
    # a subprocess with a timeout, so a redraw loop that never ends fails the test
    return subprocess.run(
        [sys.executable, "-m", "ginalg", *argv], capture_output=True, text=True, timeout=60
    )


# Linux keeps the high-water mark of the memory a process replaces at exec, so a child
# spawned by pytest would read pytest's resident set as its own floor.  This launcher is a
# fresh interpreter of a few MiB: it spawns the call, caps its CPU time so a call that never
# ends fails the test, and reports the call's own rusage and exit code on its stderr.
_PEAK_RSS_LAUNCHER = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
argv = [sys.executable, "-m", "ginalg", *sys.argv[1:]]
quiet = [(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet), 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status), file=sys.stderr)
"""


def _peak_rss_kib(argv, stdout=subprocess.DEVNULL):
    """Peak resident set size in KiB of one `python -m ginalg` call, read from that child's
    own rusage: RUSAGE_CHILDREN holds the largest over every child waited for."""
    launcher = [sys.executable, "-c", _PEAK_RSS_LAUNCHER, *argv]
    peak, code = map(int, subprocess.run(launcher, stdout=stdout, stderr=subprocess.PIPE, check=True).stderr.split())
    assert code == 0
    return peak


def test_a_gin_call_holds_one_change_at_a_time(tmp_path):
    """Each trial's change is drawn as the scan pulls it, so the peak memory of `gin` does
    not grow with --trials: at s=100 every change has 100 x 100 entries, and holding all of
    them made --trials 100 peak about 90 MiB above --trials 3."""
    path = tmp_path / "V.txt"
    path.write_text("s=100 d=1\nx1\n")
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    peaks = []
    for out in outs:
        with out.open("w") as stdout:
            peaks.append(_peak_rss_kib(["gin", "--trials", "100", str(path)], stdout))
    assert outs[0].read_bytes() == outs[1].read_bytes() != b""
    assert max(peaks) <= _peak_rss_kib(["gin", "--trials", "3", str(path)]) + 8 * 1024


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_bounds_below_one_exit_three(quadrics_file, bound):
    commands = [
        ["make-instance", "--vars", "4", "--r", "3", "--n", "1", "--m", "1", "--bound", bound],
        ["probe", "--bound", bound, quadrics_file],
        ["ci-demo", "--bound", bound],
    ]
    for argv in commands:
        result = _ginalg(argv)
        assert result.returncode == 3 and result.stdout == "", argv
        assert "bound must be at least 1" in result.stderr, argv


def test_oversized_instance_is_refused_before_any_draw(capsys, monkeypatch):
    """dim W_n = 462 rows over the 3003 monomials of degree 8 in 7 variables: the refusal
    comes before a form is drawn or a row eliminated, so the call cannot hang."""
    from ginalg import factors, subspaces

    def never(*args, **kwargs):
        raise AssertionError("make-instance drew or eliminated before its size check")

    monkeypatch.setattr(subspaces.RowEchelon, "add", never)
    monkeypatch.setattr(factors, "random_form", never)
    code, out, err = invoke(capsys, ["make-instance", "--vars", "7", "--r", "7", "--n", "5", "--m", "3"])
    assert code == 3 and out == ""
    assert err.startswith("error: instance too large") and err.count("\n") == 1


def test_zero_variables_exit_three(tmp_path):
    # restricting an s=1 subspace leaves s=0, where no coordinate change can be drawn
    one = tmp_path / "one.txt"
    one.write_text("s=1 d=2 order=revlex\nx1^2\n")
    result = _ginalg(["restrict", "--hyperplane", "x1", "--text", str(one)])
    assert result.returncode == 0 and result.stdout == "s=0 d=2 order=revlex\n"
    zero = tmp_path / "zero.txt"
    zero.write_text(result.stdout)
    constant = tmp_path / "constant.txt"
    constant.write_text("s=0\n1\n")
    for argv in (["gin", str(zero)], ["verify", str(zero)], ["gin-ideal", "--dmax", "2", str(constant)]):
        result = _ginalg(argv)
        assert result.returncode == 3 and result.stdout == "", argv
        assert "need at least one variable" in result.stderr, argv


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_probe_without_trials_exits_three(capsys, quadrics_file, trials):
    code, out, err = invoke(capsys, ["probe", "--trials", trials, quadrics_file])
    assert code == 3 and out == ""
    assert "trials must be at least 1" in err


def test_mixed_degree_file_rejected(capsys, tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("s=2 d=2 order=revlex\nx1^2\nx1*x2^2\n")
    code, _, err = invoke(capsys, ["in", str(path)])
    assert code == 3 and "degree" in err


def test_unstable_gin_exits_inconclusive(capsys, tmp_path):
    # bound 1 draws disagree at this seed; unanimity fails and the report says so
    path = tmp_path / "V.txt"
    path.write_text("s=3 d=2 order=revlex\nx1*x3 - x2^2\nx1^2 + x3^2\n")
    code, out, _ = invoke(capsys, ["gin", "--seed", "0", "--bound", "1", str(path)])
    assert code == 2
    payload = json.loads(out)
    assert payload["stable"] is False and payload["agreements"] < payload["trials"]
    # the largest trial is reported: the Borel-fixed gin, not the majority x1^2 x2^2
    assert payload["result"] == ["x1^2", "x1*x2"]
    # the same span written with a duplicate, a multiple and a zero row gives the same report
    path.write_text("s=3 d=2 order=revlex\nx1^2 + x3^2\nx1*x3 - x2^2\n0\n-2*x2^2 + 2*x1*x3\nx1^2 + x3^2\n")
    assert invoke(capsys, ["gin", "--seed", "0", "--bound", "1", str(path)])[:2] == (code, out)


def test_unstable_gin_makes_verify_inconclusive(capsys, tmp_path):
    # verify draws the unstable gin above, and an unstable gin is no verdict either way
    path = tmp_path / "V.txt"
    path.write_text("s=3 d=2 order=revlex\nx1*x3 - x2^2\nx1^2 + x3^2\n")
    argv = ["verify", "--seed", "0", "--bound", "1", str(path)]
    assert invoke(capsys, argv[:1] + ["--text"] + argv[1:]) == (2, "status: inconclusive\n", "")
    code, out, _ = invoke(capsys, argv)
    payload = json.loads(out)
    assert code == 2 and payload["status"] == "inconclusive" and payload["gin"]["stable"] is False
    assert payload["shape"] is None and payload["certificate"] is None


def test_probe_sample_whose_restriction_is_zero(capsys, tmp_path):
    """V = (x1 + x2) * S_1 in s=2 restricted to x1 + x2 = 0 is zero, which has no common
    factor: the sample shows '-' and null, and consistency is read from the others."""
    path = tmp_path / "V.txt"
    path.write_text("s=2 d=2\nx1^2 + x1*x2\nx1*x2 + x2^2\n")
    argv = ["probe", "--bound", "1", "--trials", "8", "--seed", "0", str(path)]
    code, out, _ = invoke(capsys, argv[:1] + ["--text"] + argv[1:])
    assert (code, out) == (0, "restriction factor degrees: 2 2 2 2 2 2 2 - (subspace factor degree 1)\n")
    code, out, _ = invoke(capsys, argv)
    payload = json.loads(out)
    zero = [sample for sample in payload["samples"] if sample["factor_degree"] is None]
    assert code == 0 and zero == [{"h": "x1 + x2", "factor_degree": None, "factor": None}]
    assert payload["consistent"] is True and payload["subspace_factor_degree"] == 1


@pytest.mark.parametrize("order", ["revlex", "lex", "mixed"])
def test_gin_of_spanning_rows_equals_gin_of_the_echelon_basis(capsys, tmp_path, order):
    """gin reads the file's forms as spanning rows, with no elimination first: duplicate,
    scalar-multiple and zero rows give byte for byte the report of the echelon basis."""
    rng = random.Random(len(order))
    forms = [random_form(rng, 4, 2, 3) for _ in range(3)]
    combination = add(scale(forms[0], Fraction(-3, 2)), scale(forms[2], 5))
    spanning = tmp_path / "spanning.txt"
    lines = [format_form(f) for f in forms + [forms[1], scale(forms[0], 4), combination]] + ["0", "0*x1^2"]
    rng.shuffle(lines)
    spanning.write_text(f"s=4 d=2 order={order}\n" + "\n".join(lines) + "\n")
    basis = tmp_path / "basis.txt"
    space = echelonize(forms, order)
    basis.write_text(f"s=4 d=2 order={order}\n" + "\n".join(format_form(f) for f in space.basis) + "\n")
    for flags in ([], ["--seed", "7919", "--text"], ["--seed", "3", "--bound", "1", "--trials", "4"]):
        expected = invoke(capsys, ["gin", *flags, str(basis)])
        assert expected[0] in (0, 2) and expected[2] == ""
        assert invoke(capsys, ["gin", *flags, str(spanning)]) == expected, flags
    # the zero subspace, as a header alone or as zero rows
    zero = tmp_path / "zero.txt"
    zero.write_text(f"s=4 d=2 order={order}\n")
    expected = invoke(capsys, ["gin", str(zero)])
    assert expected[0] == 0 and json.loads(expected[1])["result"] == []
    zero.write_text(f"s=4 d=2 order={order}\n0\n0*x1^2\n")
    assert invoke(capsys, ["gin", str(zero)]) == expected


def test_a_repeated_line_builds_one_more_column_per_trial(capsys, monkeypatch, tmp_path):
    """Dependent rows stop the column scan at their rank, taken at the first dependent
    column: a file with a repeated line scans what the file without it scans, plus, per
    trial, the one dependent column that shows the rows dependent, not the whole piece."""
    from ginalg import gin

    built = []
    tables = gin._position_tables

    def counting(order, num_vars, degree):
        built.append(degree)  # one call per transposed image built
        return tables(order, num_vars, degree)

    monkeypatch.setattr(gin, "_position_tables", counting)
    rng = random.Random(8)
    lines = [format_form(random_form(rng, 4, 3, 10)) for _ in range(8)]
    reports = []
    for body in (lines, lines + [lines[2]]):
        path = tmp_path / "V.txt"
        path.write_text("s=4 order=revlex\n" + "\n".join(body) + "\n")
        built.clear()
        reports.append((invoke(capsys, ["gin", "--seed", "5", str(path)]), built.count(3)))
    (plain, plain_columns), (repeated, repeated_columns) = reports
    assert plain[0] == 0 and repeated == plain
    assert 3 * 8 <= plain_columns < repeated_columns <= plain_columns + 3 < 3 * 20


@pytest.mark.parametrize(
    "argv, body, expected",
    [
        (["restrict", "--hyperplane", "x2"], "s=2\nx1^1200 + x2^1200\n", {"s": 1, "basis": ["x1^1200"]}),
        (["gin"], "s=1\nx1^1200\n", {"result": ["x1^1200"], "stable": True}),
        (["gin"], "s=400 d=1\nx1\n", {"result": ["x1"], "stable": True}),
        (["probe", "--trials", "1"], "s=600 d=1\nx1\n", {"subspace_factor_degree": 1, "consistent": True}),
        (["gcd", "--vars", "600", "x1*x2", "x1*x3"], None, {"gcd": "x1"}),
        (["hilbert", "--vars", "600", "--dmax", "1", "x1"], None, {"values": [1, 599]}),
        (["make-instance", "--vars", "600", "--r", "3", "--n", "0", "--m", "1"], None, {"s": 600}),
        (["enumerate", "--vars", "2", "--dmax", "1200", "--hf", "1,1"], None, {"candidates": [["x1"]]}),
    ],
    ids=["restrict", "gin", "gin-s400", "probe-s600", "gcd-s600", "hilbert-s600", "make-instance-s600", "enumerate"],
)
def test_degree_beyond_the_recursion_limit(capsys, tmp_path, argv, body, expected):
    """A monomial's image is built up from its divisors' in a loop, the monomials of a
    degree are listed in one and `enumerate` searches its degrees on a stack, so no
    degree, variable count or dmax meets the interpreter's recursion limit."""
    if body is not None:
        path = tmp_path / "V.txt"
        path.write_text(body)
        argv = argv + [str(path)]
    code, out, _ = invoke(capsys, argv)
    payload = json.loads(out)
    assert code == 0 and {key: payload[key] for key in expected} == expected


def test_one_dimensional_gin_of_high_degree_within_budget(capsys, tmp_path):
    """The scan lists the d + 1 monomials of each degree up to d in 2 variables, which at
    d = 600 takes well under the budget; a listing that recursed down to no variables
    took O(d^2) steps per degree, 11 s in all."""
    from ginalg import forms, gin

    for cached in (forms.monomials_of_degree, forms.monomial_positions, gin._position_tables):
        cached.cache_clear()
    path = tmp_path / "V.txt"
    path.write_text("s=2\nx1^600 + x2^600\n")
    start = time.monotonic()
    code, out, _ = invoke(capsys, ["gin", str(path)])
    elapsed = time.monotonic() - start
    assert code == 0 and json.loads(out)["result"] == ["x1^600"] and elapsed < 4.0


def test_gin_of_too_many_monomials_exits_three(tmp_path):
    """A trial tabulates every monomial of degree at most d, 10.8M of them here, which ran
    past a minute; gin and verify refuse first."""
    path = tmp_path / "V.txt"
    path.write_text("s=3\nx1^400 + x2^400 + x3^400\n")
    for argv in (["gin", "--text"], ["verify"]):
        result = _ginalg(argv + [str(path)])
        assert result.returncode == 3 and result.stdout == ""
        assert "s=3 has 10827401 of degree at most 400 (limit 300000)" in result.stderr


def test_gin_of_too_many_monomials_exits_before_drawing_a_change(capsys, monkeypatch, tmp_path):
    """A change costs O(s^2) to draw and check, so a wide s is refused before any draw:
    s=800 has 321201 monomials of degree at most 2, and 320400 of degree 2."""
    from ginalg import gin

    def refuse(num_vars, seed, bound):
        raise AssertionError(f"drew a change in {num_vars} variables")

    monkeypatch.setattr(gin, "random_change", refuse)
    path = tmp_path / "V.txt"
    path.write_text("s=800\nx1^2\n")
    for argv, message in [
        (["gin", "--text"], "s=800 has 321201 of degree at most 2 (limit 300000)"),
        (["verify"], "s=800 has 321201 of degree at most 2 (limit 300000)"),
        (["gin-ideal", "--dmax", "2"], "graded piece too large: s=800, d=2 has 320400 monomials (limit 150)"),
    ]:
        code, out, err = invoke(capsys, argv + [str(path)])
        assert code == 3 and out == ""
        assert message in err


def test_gin_reads_its_file_without_building_a_form(capsys, monkeypatch, quadrics_file):
    from ginalg import forms

    built = []
    init = forms.Form.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(forms.Form, "__init__", counting)
    code, out, _ = invoke(capsys, ["gin", quadrics_file])
    assert code == 0 and json.loads(out)["stable"] and built == []


@pytest.mark.parametrize(
    "flags, body, message, commands",
    [
        ([], "s=2 d=2\nx1^2\nx1*x2^2\n", "error: {path}: form of degree 3 in a degree-2 subspace file\n", ("gin", "in")),
        ([], "s=2\nx1^2\nx2^3\n", "error: {path}: form of degree 3 in a degree-2 subspace file\n", ("gin", "in")),
        ([], "s=2\n# nothing\n", "error: {path}: empty body needs d=<int> in the header\n", ("gin", "in")),
        (["--vars", "0"], "x1^2\n", "error: {path}:1: variable x1 out of range 1..0 (at position 0)\n", ("gin", "in")),
        (["--vars", "0"], "1\n", "error: need at least one variable\n", ("gin",)),
        (
            ["--vars", "-1"],
            "x1^2\n",
            "usage error: argument --vars: needs an integer of at least 0, got '-1'\nusage: ginalg [-h] command ...\n",
            ("gin", "in"),
        ),
        ([], "s=2 d=x\nx1^2\n", "error: {path}:1: header 'd=x' needs a nonnegative integer\n", ("gin", "in")),
        ([], "s=2 q=1\nx1^2\n", "error: {path}:1: unknown header key 'q'; expected s, d or order\n", ("gin", "in")),
        ([], "s=2 d\nx1^2\n", "error: {path}:1: bad header token 'd'\n", ("gin", "in")),
    ],
    ids=["wrong-degree", "wrong-degree-no-d", "empty-body", "vars-zero", "vars-zero-constant", "vars-negative",
         "header-count", "header-key", "header-token"],
)
def test_subspace_file_errors_exit_three_with_one_message(capsys, tmp_path, flags, body, message, commands):
    """gin skips the elimination, not the checks: it reads the file through the same
    degree inference and degree check as `in`, so its errors are the same bytes."""
    path = tmp_path / "V.txt"
    path.write_text(body)
    for command in commands:
        assert invoke(capsys, [command, *flags, str(path)]) == (3, "", message.format(path=path)), command


def test_randomized_subcommands_are_byte_deterministic(capsys, tmp_path):
    inst = str(tmp_path / "inst.txt")
    runs = [
        ["make-instance", "--vars", "4", "--r", "3", "--n", "1", "--m", "1", "--seed", "9",
         "--out", inst],
        ["verify", "--seed", "13", inst],
        ["probe", "--seed", "17", inst],
        ["ci-demo", "--seed", "2"],
    ]
    for argv in runs:
        code1, out1, _ = invoke(capsys, argv)
        code2, out2, _ = invoke(capsys, argv)
        assert (code1, out1) == (code2, out2), argv


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "ginalg", "gcd", "--vars", "2", "x1^2 - x2^2", "x1 + x2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"gcd": "x1 + x2", "degree": 1}


def test_run_leaves_the_collector_as_it_found_it(capsys, quadrics_file):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    for argv in (["gin", quadrics_file], ["ci-demo"], ["gcd", "--vars", "2", "x1"]):
        invoke(capsys, argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled), argv


def test_main_freezes_the_collector_only_after_run_returns(monkeypatch):
    from ginalg import cli

    seen = []

    def recording(argv):
        seen.append((argv, gc.get_freeze_count()))
        return 2

    monkeypatch.setattr(cli, "run", recording)
    monkeypatch.setattr(sys, "argv", ["ginalg", "gin", "V.txt"])
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        after = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    assert exit_info.value.code == 2
    assert seen == [(["gin", "V.txt"], before)]
    assert after > before


def test_both_entry_points_reach_main(monkeypatch):
    from ginalg import cli

    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.partition("[project.scripts]\n")[2].partition("\n[")[0]
    name, equals, target = scripts.split()
    module, _, attribute = target.strip('"').partition(":")
    assert (name, equals) == ("ginalg", "=")
    assert getattr(importlib.import_module(module), attribute) is cli.main
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main"))
    runpy.run_module("ginalg", run_name="__main__")
    assert calls == ["main"]


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_a_one_command_parser_matches_the_full_tree():
    """A call naming a subcommand builds that subparser alone; its usage and help, and
    the top-level usage that a usage error prints, are the full tree's."""
    from ginalg.cli import COMMANDS, build_parser

    full = build_parser()
    assert list(_subparsers(full)) == list(COMMANDS)
    for name in COMMANDS:
        alone = build_parser([name, "--json"])
        assert list(_subparsers(alone)) == [name]
        sub, full_sub = _subparsers(alone)[name], _subparsers(full)[name]
        assert sub.prog == f"ginalg {name}"
        assert sub.format_usage() == full_sub.format_usage()
        assert sub.format_help() == full_sub.format_help()
        assert alone.format_usage() == full.format_usage() == "usage: ginalg [-h] command ...\n"


def test_invariant_failure_exits_one(capsys, monkeypatch):
    from ginalg import InvariantError, factors

    def broken(f, g):
        raise InvariantError("inexact integer division")

    monkeypatch.setattr(factors, "gcd_forms", broken)
    code, out, err = invoke(capsys, ["gcd", "--vars", "2", "x1", "x2"])
    assert code == 1 and out == ""
    assert "assertion failure: inexact integer division" in err


def test_invariant_checks_survive_optimized_mode():
    # python -O strips assert statements; the exact-division check must still raise
    result = subprocess.run(
        [sys.executable, "-O", "-c", "from ginalg.factors import _exact_quotient; _exact_quotient({(): 3}, {(): 2})"],
        capture_output=True,
        text=True,
    )
    assert result.returncode != 0
    assert "InvariantError: inexact integer division" in result.stderr


def test_gcd_form_with_leading_minus(capsys):
    # argparse takes the form for an option; the error names both ways round it
    code, out, err = invoke(capsys, ["gcd", "--vars", "3", "-2*x1^2+2*x2^2", "x1*x3"])
    assert code == 3 and out == ""
    assert "follow '--'" in err and "--hyperplane=" in err
    code, out, _ = invoke(capsys, ["gcd", "--vars", "3", "--", "-2*x1^2+2*x1*x2", "x1*x3"])
    assert code == 0
    assert json.loads(out) == {"gcd": "x1", "degree": 1}


def test_restrict_hyperplane_with_leading_minus(capsys, quadrics_file):
    code, out, err = invoke(capsys, ["restrict", "--hyperplane", "-x1+x3", quadrics_file])
    assert code == 3 and out == ""
    assert "follow '--'" in err and "--hyperplane=" in err
    code, out, _ = invoke(capsys, ["restrict", "--hyperplane=-x1+x3", quadrics_file])
    assert code == 0
    assert json.loads(out) == json.loads(invoke(capsys, ["restrict", "--hyperplane", "x1-x3", quadrics_file])[1])


def test_hilbert_negative_dmax_exits_three(capsys):
    code, out, err = invoke(capsys, ["hilbert", "--vars", "3", "--dmax", "-2", "x1"])
    assert code == 3 and out == ""
    assert "dmax must be nonnegative" in err


def test_hilbert_too_many_monomials_exits_three():
    result = _ginalg(["hilbert", "--vars", "6", "--dmax", "40", "x1^2"])
    assert result.returncode == 3 and result.stdout == ""
    assert "s=6 has 9366819 of degree at most 40" in result.stderr


def test_gcd_of_coprime_dense_cubics_in_five_variables():
    rng = random.Random(5)
    f, g = (format_form(random_form(rng, 5, 3, 9)) for _ in range(2))
    result = _ginalg(["gcd", "--vars", "5", "--text", "--", f, g])
    assert result.returncode == 0 and result.stdout == "1\n"


def test_enumerate_too_many_subsets_exits_three():
    result = _ginalg(["enumerate", "--vars", "5", "--dmax", "4", "--hf", "1,5,15,35,62,90"])
    assert result.returncode == 3 and result.stdout == ""
    assert "degree 4 has 23535820 sets of 8 out of 35 monomials" in result.stderr


def test_enumerate_too_many_monomials_exits_three(capsys, monkeypatch):
    """Each candidate is checked by Hilbert functions that list every monomial of degree at
    most dmax + 1, so `enumerate` shares the bound of `hilbert` and is refused before it
    searches; an infeasible Hilbert function is still answered first."""
    from ginalg import ideals

    def refuse(*args):
        raise AssertionError("searched past the monomial bound")

    monkeypatch.setattr(ideals, "_borel_closed_extensions", refuse)
    code, out, err = invoke(capsys, ["enumerate", "--vars", "2", "--dmax", "100000", "--hf", "1,1"])
    assert code == 3 and out == ""
    assert "too many monomials: s=2 has 5000250003 of degree at most 100001 (limit 1000000)" in err
    assert invoke(capsys, ["enumerate", "--text", "--vars", "2", "--dmax", "100000", "--hf", "1,3"]) == (0, "none\n", "")


def test_gin_ideal_oversized_piece_exits_three(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("s=5\nx1^2 + 3*x2*x5 - x4^2\nx1*x3 - 2*x5^2\nx2^2 + x3*x4\n")
    result = _ginalg(["gin-ideal", "--dmax", "40", str(path)])
    assert result.returncode == 3 and result.stdout == ""
    assert "s=5, d=40 has 135751 monomials" in result.stderr


@pytest.mark.parametrize("header", ["s=2 d=-1", "s=-1 d=2", "s=x", "s=2 d=1.5"])
def test_bad_header_counts_exit_three(tmp_path, header):
    # s and d are nonnegative integers; an empty body must not hide a bad d
    path = tmp_path / "header.txt"
    path.write_text(f"# header only\n{header}\n")
    result = _ginalg(["in", str(path)])
    assert result.returncode == 3 and result.stdout == ""
    bad = next(token for token in header.split() if not token.partition("=")[2].isdigit())
    assert f"{path}:2: header {bad!r} needs a nonnegative integer" in result.stderr


def test_malformed_form_line_reports_line_and_position(tmp_path):
    path = tmp_path / "V.txt"
    path.write_text("x1^2 + x2^2\nx1*x2 + 3x2^2\n")
    result = _ginalg(["in", "--vars", "2", str(path)])
    assert result.returncode == 3 and result.stdout == ""
    assert f"{path}:2: expected '+' or '-' (at position 9)" in result.stderr


@pytest.mark.parametrize("body", ["0\nx1^2\n", "x1^2\n0\n"])
def test_degree_comes_from_first_nonzero_form(capsys, tmp_path, body):
    # the zero form parses at degree 0, so it must not fix the file's degree
    path = tmp_path / "V.txt"
    path.write_text("s=2\n" + body)
    code, out, _ = invoke(capsys, ["in", "--text", str(path)])
    assert (code, out) == (0, "x1^2\n")


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["in"], "s=3 d=2 dd=5\nx1^2\n", "{path}:1: unknown header key 'dd'; expected s, d or order"),
        (["in"], "s=3 s=4 d=2\nx1^2\n", "{path}:1: repeated header key 's'"),
        (["in", "--vars", "-1"], "d=2\nx1^2\n", "argument --vars: needs an integer of at least 0, got '-1'"),
        (["hilbert", "--vars", "-2", "--dmax", "2", "x1"], None, "argument --vars: needs an integer of at least 1, got '-2'"),
        (["hilbert", "--vars", "0", "--dmax", "2", "1"], None, "argument --vars: needs an integer of at least 1, got '0'"),
        (["colon", "--vars", "0", "1"], None, "argument --vars: needs an integer of at least 1, got '0'"),
        (["enumerate", "--vars", "2", "--dmax", "2", "--hf", "1,a"], None, "--hf needs comma-separated integers, got '1,a'"),
        (["gin"], "x1^2 + x2^2\n", "{path}: number of variables unknown; add a header or pass --vars"),
        (["gin-ideal", "--dmax", "3"], "s=3\n0*x1^2\n0\n", "{path}: no nonzero generators"),
        (["enumerate", "--vars", "1", "--dmax", "2", "--hf", "1,1,1"], None, "need at least two variables"),
        (["enumerate", "--vars", "3", "--dmax", "0", "--hf", "1,3,5"], None, "dmax must be at least 1"),
        (["enumerate", "--vars", "3", "--dmax", "2", "--hf", " "], None, "quotient Hilbert function must be nonempty"),
    ],
    ids=[
        "unknown-key",
        "repeated-key",
        "in-vars",
        "hilbert-vars",
        "hilbert-vars-zero",
        "colon-vars-zero",
        "enumerate-hf",
        "no-vars",
        "zero-generators",
        "one-variable",
        "dmax-zero",
        "empty-hf",
    ],
)
def test_bad_header_keys_and_flags_exit_three(tmp_path, argv, text, message):
    path = tmp_path / "V.txt"
    if text is not None:
        path.write_text(text)
        argv = argv + [str(path)]
    result = _ginalg(argv)
    assert result.returncode == 3 and result.stdout == ""
    assert message.format(path=path) in result.stderr
    assert "must follow '--'" not in result.stderr


def test_integer_beyond_the_digit_limit_exits_three(tmp_path):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no integer string limit before Python 3.11")
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    limit = f"integer longer than the {sys.get_int_max_str_digits()}-digit limit"
    result = _ginalg(["gcd", "--vars", "2", f"{digits}*x1", "x1"])
    assert result.returncode == 3 and result.stdout == ""
    assert f"{limit} (at position 0)" in result.stderr
    path = tmp_path / "V.txt"
    path.write_text(f"s=2 d=1\nx2\n3*x1 - 1/{digits}*x2\n")
    result = _ginalg(["in", str(path)])
    assert result.returncode == 3 and result.stdout == ""
    assert f"{path}:3: {limit} (at position 9)" in result.stderr
