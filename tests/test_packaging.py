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
