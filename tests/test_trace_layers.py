"""The benchmark's per-layer trace wraps functions by name; each must exist, the ideal
pieces must run through the wrapped name, and a traced CLI call must print what the
untraced one prints and record the spans of the layers it runs."""

import importlib.util
import inspect
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ginalg import REVLEX, ci_quadrics_demo, gin, gin_ideal_truncated, random_form

DRIVER = Path(__file__).resolve().parent.parent / "perfbench" / "trace_driver.py"


def test_every_traced_layer_name_resolves():
    spec = importlib.util.spec_from_file_location("trace_driver", DRIVER)
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    missing = [
        f"{layer}.{name}"
        for layer, (module, names) in driver.LAYERS.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_ideal_graded_piece_keeps_the_traced_signature():
    # the trace reads the piece's size from its first four positional arguments
    parameters = list(inspect.signature(gin.ideal_graded_piece).parameters)
    assert parameters[:4] == ["gens", "degree", "order", "num_vars"]


def test_ideal_pieces_run_through_the_module_attribute(monkeypatch):
    calls = []
    original = gin.ideal_graded_piece

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(gin, "ideal_graded_piece", counting)
    rng = random.Random(1)
    quadrics = [random_form(rng, 4, 2, 100) for _ in range(3)]
    gin_ideal_truncated(quadrics, 4, REVLEX, trials=2, seed=1)
    assert calls == [2, 3, 4] * 2
    calls.clear()
    assert ci_quadrics_demo(seed=1).ok
    assert calls


# V = (x1 + x4) * (x1, x2 - x3, x3 + 2*x4): its gin is x1*(x1, x2, x3), so `verify` certifies
PLANTED = "s=4 d=2 order=revlex\nx1^2+x1*x4\nx1*x2-x1*x3+x2*x4-x3*x4\nx1*x3+2*x1*x4+x3*x4+2*x4^2\n"
QUADRICS = "s=4 d=2 order=revlex\nx1^2+x2*x3\nx2^2-x1*x4\nx3^2+x1*x2-x4^2\n"

# one small call per benchmark subcommand, and a span it must record under another
TRACED_CALLS = {
    "gin": (["gin", "V.txt"], "gin.gin_subspace", "cli.run"),
    "gin-ideal": (["gin-ideal", "--dmax", "3", "G.txt"], "gin.ideal_graded_piece", "gin.gin_ideal_truncated"),
    "make-instance": (
        ["make-instance", "--vars", "4", "--r", "3", "--n", "1", "--m", "1"],
        "factors.make_instance",
        "cli.run",
    ),
    "verify": (["verify", "V.txt"], "gin.gin_subspace", "factors.verify_main_theorem"),
    "probe": (["probe", "V.txt"], "factors.hyperplane_factor_probe", "cli.run"),
    "ci-demo": (["ci-demo"], "demo.ci_quadrics_demo", "cli.run"),
}


@pytest.mark.parametrize("command", TRACED_CALLS)
def test_a_traced_call_prints_the_untraced_output_and_records_its_spans(tmp_path, command):
    argv, name, ancestor = TRACED_CALLS[command]
    (tmp_path / "V.txt").write_text(PLANTED)
    (tmp_path / "G.txt").write_text(QUADRICS)

    def call(*prefix):
        full = [sys.executable, *prefix, *argv]
        return subprocess.run(full, capture_output=True, text=True, timeout=120, cwd=tmp_path)

    plain = call("-m", "ginalg")
    traced = call(str(DRIVER), str(tmp_path / "spans.json"), "--")
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), traced.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]

    def ancestors(span):
        while span[3] >= 0:
            span = spans[span[3]]
            yield span[0]

    assert any(span[0] == name and ancestor in ancestors(span) for span in spans)
