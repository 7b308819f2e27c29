"""The package has no runtime dependency: every module imports only the
standard library and itself, pyproject.toml declares `dependencies = []`,
and the console script's target exists.  Third-party packages may be
installed where the suite runs, so an accidental import would pass every
other test there."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import treecount

PACKAGE = Path(treecount.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = absolute_imports(path) - {"__future__"} - set(sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_import_scan_sees_third_party_names(tmp_path):
    source = tmp_path / "example.py"
    source.write_text("import numpy.linalg\nfrom scipy import sparse\nfrom . import graph\nimport math\n")
    assert absolute_imports(source) == {"numpy", "scipy", "math"}


def package_imports(path: Path) -> set[str]:
    """The treecount modules one source file imports, by file stem:
    `from .graph import Graph`, `from . import linalg` and `import
    treecount.linalg` name graph, linalg and linalg, and a name taken from
    the package itself (`from treecount import tau`) names `__init__`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "treecount":
                    names.add(rest.split(".")[0] or "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif node.module.split(".")[0] == "treecount":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(
                    alias.name if (path.parent / f"{alias.name}.py").exists() else "__init__"
                    for alias in node.names
                )
    return names


def test_package_import_scan_names_modules(tmp_path):
    (tmp_path / "linalg.py").write_text("")
    source = tmp_path / "example.py"
    source.write_text(
        "import math\nimport treecount.kirchhoff\nfrom .graph import Graph\n"
        "from . import linalg\nfrom treecount import tau\nfrom treecount.families import KINDS\n"
    )
    assert package_imports(source) == {"kirchhoff", "graph", "linalg", "__init__", "families"}


def test_oracle_reaches_neither_linalg_nor_kirchhoff():
    """The brute-force oracles are the ground truth for the determinant
    methods, so no import of oracle.py, direct or through another package
    module, reaches linalg or kirchhoff: a bug there cannot validate
    itself.  The package's `__init__` imports every module, so it is out
    too."""
    reached, todo = set(), ["oracle"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(package_imports(PACKAGE / f"{module}.py"))
    assert not reached & {"linalg", "kirchhoff", "__init__"}, f"oracle.py reaches {sorted(reached)}"


def pyproject_value(key: str) -> str:
    """The raw value of `key = ...` in pyproject.toml (read without tomllib,
    which Python 3.10 lacks)."""
    text = PYPROJECT.read_text(encoding="utf-8")
    [value] = re.findall(rf"^{re.escape(key)}\s*=\s*(.*?)\s*$", text, re.MULTILINE)
    return value


def test_pyproject_declares_no_dependencies():
    assert pyproject_value("dependencies") == "[]"


def test_console_script_target_is_callable():
    target = pyproject_value("treecount").strip('"')
    assert target == "treecount.cli:entrypoint"
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))
