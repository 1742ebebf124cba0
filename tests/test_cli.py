import json
import random
import subprocess
import sys

import pytest

from ginalg import format_form, random_form
from ginalg.cli import run


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


def test_invariant_failure_exits_one(capsys, monkeypatch):
    from ginalg import InvariantError, cli

    def broken(f, g):
        raise InvariantError("inexact integer division")

    monkeypatch.setattr(cli, "gcd_forms", broken)
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
    "argv, header, message",
    [
        (["in"], "s=3 d=2 dd=5", "{path}:1: unknown header key 'dd'; expected s, d or order"),
        (["in"], "s=3 s=4 d=2", "{path}:1: repeated header key 's'"),
        (["in", "--vars", "-1"], "d=2", "argument --vars: needs an integer of at least 0, got '-1'"),
        (["hilbert", "--vars", "-2", "--dmax", "2", "x1"], None, "argument --vars: needs an integer of at least 1, got '-2'"),
        (["hilbert", "--vars", "0", "--dmax", "2", "1"], None, "argument --vars: needs an integer of at least 1, got '0'"),
        (["colon", "--vars", "0", "1"], None, "argument --vars: needs an integer of at least 1, got '0'"),
        (["enumerate", "--vars", "2", "--dmax", "2", "--hf", "1,a"], None, "--hf needs comma-separated integers, got '1,a'"),
    ],
    ids=["unknown-key", "repeated-key", "in-vars", "hilbert-vars", "hilbert-vars-zero", "colon-vars-zero", "enumerate-hf"],
)
def test_bad_header_keys_and_flags_exit_three(tmp_path, argv, header, message):
    path = tmp_path / "V.txt"
    if header is not None:
        path.write_text(f"{header}\nx1^2\n")
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
