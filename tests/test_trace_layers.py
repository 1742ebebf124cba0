"""The benchmark's per-layer trace wraps functions by name; each must exist, and the
ideal pieces must run through the wrapped name."""

import importlib.util
import inspect
import random
from pathlib import Path

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
