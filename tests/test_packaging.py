"""The package's promises: stdlib only at run time, source that Python 3.10 accepts,
no runtime check written as `assert`, which `python -O` strips, no unused import,
no class with ring operators, a CLI call that loads only the modules its
subcommand uses, and an exit that may skip the last collections: every file
opened for writing is closed by its `with`, and only `cli.main` touches `gc`."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import ginalg

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


def test_no_class_defines_ring_operators():
    """Forms are computed on as integer rows; `Form` is only parsed, formatted and returned,
    and the tests' oracles keep their own arithmetic."""
    operators = {"__add__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__"}
    found = [
        f"{path.name}:{item.lineno} {node.name}.{item.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in operators
    ]
    assert found == []


def _open_mode(call: ast.Call):
    """The mode argument of an `open` call: the keyword, else the positional argument
    after the path of the builtin or the first of a method such as `Path.open`; None
    when the call gives none, which opens for reading."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    positional = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    return positional[0] if positional else None


def test_every_file_opened_for_writing_is_a_with_item():
    """`cli.main` freezes the collector before the process exits, so no written buffer may
    wait on a finalizer to be flushed: each open with a mode that is not plainly a read
    is the item of a `with`, which closes it before `run` returns."""
    found, writes = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        with_items = {
            id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With) for item in node.items
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name != "open":
                continue
            mode = _open_mode(node)
            if mode is None or isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"):
                continue
            writes += 1
            if id(node) not in with_items:
                found.append(f"{path.name}:{node.lineno}")
    assert writes and found == []


def test_only_cli_main_reads_gc():
    """The collector is the process's, shared with every in-process caller of `run`; only
    `main`, where the process ends, may change it."""
    found, reads_in_main = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside_main = {
            id(child)
            for node in tree.body
            if path.name == "cli.py" and isinstance(node, ast.FunctionDef) and node.name == "main"
            for child in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "gc":
                if id(node) in inside_main:
                    reads_in_main += 1
                else:
                    found.append(f"{path.name}:{node.lineno} gc")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.append(f"{path.name}:{node.lineno} from gc import")
            elif isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names):
                if path.name != "cli.py" or any(alias.asname for alias in node.names if alias.name == "gc"):
                    found.append(f"{path.name}:{node.lineno} import gc")
    assert reads_in_main and found == []


def _modules_loaded_by(code: str, *argv: str, cwd=None) -> set[str]:
    """The modules that running code loads, printed on its last stdout line; compared
    against the modules loaded before it, since site may load others."""
    script = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - before))\n"
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60, cwd=cwd
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


# the CLI and every module its handlers import at call time
WHOLE_PACKAGE = "import ginalg.cli, ginalg.factors, ginalg.ideals, ginalg.demo"


def test_cli_imports_only_the_standard_library():
    loaded = {name.partition(".")[0] for name in _modules_loaded_by(WHOLE_PACKAGE)}
    assert sorted(loaded - set(sys.stdlib_module_names) - {"ginalg"}) == []


def test_cli_import_loads_no_code_generation_modules():
    # every CLI call is a new process; dataclasses would load these and exec code per class
    generators = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert sorted(generators & _modules_loaded_by(WHOLE_PACKAGE)) == []


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


def test_every_imported_name_is_used():
    """Each name a module imports, at module or function level, is read somewhere in it."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_importing_the_package_loads_no_submodule():
    assert _modules_loaded_by("import ginalg") == {"ginalg"}


# the package modules each module imports at module level (`__init__` resolves its exports
# by name, on first access); every import, at module or function level, runs down this order
MODULE_IMPORTS = {
    "__init__": set(),
    "__main__": {"cli"},
    "forms": set(),
    "subspaces": {"forms"},
    "ideals": {"forms", "subspaces"},
    "gin": {"forms", "subspaces"},
    "factors": {"forms", "subspaces"},
    "demo": {"forms", "subspaces", "gin", "ideals"},
    "cli": {"forms", "subspaces"},
}
LAYER_ORDER = ("forms", "subspaces", "ideals", "gin", "factors", "demo", "cli", "__main__")


def _package_imports(tree: ast.AST, function: str | None = None):
    """(enclosing top-level function or None, imported package module) for each import of
    a ginalg module under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _package_imports(node, function or node.name)
        elif isinstance(node, ast.ImportFrom) and node.level:
            for name in [node.module] if node.module else [alias.name for alias in node.names]:
                yield function, name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module]
            for name in modules:
                if name.partition(".")[0] == "ginalg":
                    yield function, name.partition(".")[2] or "__init__"
        else:
            yield from _package_imports(node, function)


def test_package_imports_run_one_way():
    """No import cycle, and each module loads only the layers below it; a function imports a
    package module only in a CLI handler, which loads its own subcommand, and in
    `verify_main_theorem`, the one function of `factors` that draws a gin."""
    module_level, in_functions = {}, []
    for path in sorted(SRC.glob("*.py")):
        module_level[path.stem] = set()
        for function, target in _package_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if function is None:
                module_level[path.stem].add(target)
            else:
                in_functions.append((path.stem, function, target))
    assert module_level == MODULE_IMPORTS
    stray = [
        f"{m}.{f}"
        for m, f, _ in in_functions
        if not (m == "cli" and f.startswith("cmd_") or (m, f) == ("factors", "verify_main_theorem"))
    ]
    assert stray == []
    rank = {module: i for i, module in enumerate(LAYER_ORDER)}
    edges = [(m, t) for m, targets in module_level.items() for t in targets] + [(m, t) for m, _, t in in_functions]
    assert [f"{m} -> {t}" for m, t in edges if rank[t] >= rank[m]] == []
    assert ("factors", "verify_main_theorem", "gin") in in_functions


CLI_CORE = {"ginalg", "ginalg.cli", "ginalg.forms", "ginalg.subspaces"}
SUBSPACE_FILE = "s=3 d=3 order=revlex\nx1^3+x1^2*x2\nx1*x2^2+x2^3\nx1^2*x3+x1*x2*x3\n"


# each call's arguments after the subcommand, and the modules it loads beyond CLI_CORE
SUBCOMMAND_CALLS = {
    "gin": (["V.txt"], {"ginalg.gin"}),
    "in": (["V.txt"], set()),
    "gin-ideal": (["--dmax", "4", "V.txt"], {"ginalg.gin"}),
    "restrict": (["--hyperplane", "x3", "V.txt"], set()),
    "factor": (["V.txt"], {"ginalg.factors"}),
    "make-instance": (["--vars", "4", "--r", "3", "--n", "1", "--m", "1"], {"ginalg.factors"}),
    "verify": (["V.txt"], {"ginalg.gin", "ginalg.factors"}),
    "probe": (["V.txt"], {"ginalg.factors"}),
    "gcd": (["--vars", "2", "x1^2-x2^2", "x1+x2"], {"ginalg.factors"}),
    "hilbert": (["--vars", "3", "--dmax", "3", "x1^2, x1*x2"], {"ginalg.ideals"}),
    "borel": (["--vars", "3", "x1^2, x1*x2"], {"ginalg.ideals"}),
    "colon": (["--vars", "3", "x1^2, x1*x3"], {"ginalg.ideals"}),
    "enumerate": (["--vars", "3", "--dmax", "2", "--hf", "1,3,3"], {"ginalg.ideals"}),
    "ci-demo": ([], {"ginalg.gin", "ginalg.ideals", "ginalg.demo"}),
}


def test_every_subcommand_has_a_module_load_call():
    from ginalg.cli import COMMANDS

    assert sorted(SUBCOMMAND_CALLS) == sorted(COMMANDS)


@pytest.mark.parametrize("command", SUBCOMMAND_CALLS)
def test_a_cli_call_loads_only_its_subcommand_modules(tmp_path, command):
    args, extra = SUBCOMMAND_CALLS[command]
    (tmp_path / "V.txt").write_text(SUBSPACE_FILE)
    code = "from ginalg.cli import run\nif run(sys.argv[1:]):\n    sys.exit('nonzero exit')"
    loaded = _modules_loaded_by(code, command, *args, cwd=tmp_path)
    assert {name for name in loaded if name.partition(".")[0] == "ginalg"} == CLI_CORE | extra


def test_every_exported_name_resolves_and_is_listed():
    listing = dir(ginalg)
    for name in ginalg.__all__:
        assert getattr(ginalg, name) is not None, name
        assert name in listing, name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(ginalg, "no_such_name")
