"""The package's promises: stdlib only at run time, source that Python 3.10 accepts,
and no runtime check written as `assert`, which `python -O` strips."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ginalg"


def test_sources_parse_as_python_3_10():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_sources_hold_no_assert_statement():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _modules_loaded_by_importing_cli() -> set[str]:
    # compared against the modules loaded before the import, since site may load others
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ginalg.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_cli_imports_only_the_standard_library():
    loaded = {name.partition(".")[0] for name in _modules_loaded_by_importing_cli()}
    assert sorted(loaded - set(sys.stdlib_module_names) - {"ginalg"}) == []


def test_cli_import_loads_no_code_generation_modules():
    # every CLI call is a new process; dataclasses would load these and exec code per class
    generators = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert sorted(generators & _modules_loaded_by_importing_cli()) == []


def test_only_record_sets_attributes_past_its_guard():
    """Immutability lives in `forms.Record`: no other class defines `__setattr__` or
    `__delattr__`, and nothing outside Record calls `object.__setattr__`."""
    found, records = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside_record = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Record":
                records += 1
                inside_record.update(id(child) for child in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in inside_record:
                continue
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.name}:{item.lineno} {node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__")
                ]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append(f"{path.name}:{node.lineno} object.__setattr__")
    assert records == 1 and found == []
