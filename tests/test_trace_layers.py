"""The benchmark's per-layer trace wraps functions by name; each must exist."""

import importlib.util
from pathlib import Path

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
