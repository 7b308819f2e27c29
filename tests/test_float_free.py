"""No library module has a floating-point code path: every source file but
cli.py, which times operations with floats, is parsed and scanned for a
float literal, a true division (`/` or `/=`), and a call to `float` or
`round`."""

import ast
from pathlib import Path

import pytest

import treecount

SOURCES = sorted(path for path in Path(treecount.__file__).parent.glob("*.py") if path.name != "cli.py")


def float_nodes(source: str, filename: str = "<source>") -> list[str]:
    """'line: what' for each float literal, true division and call to
    float or round in one source text, in line order."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round"):
            found.append((node.lineno, f"call to {node.func.id}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "linalg.py", "kirchhoff.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_library_module_has_no_float_path(path):
    assert float_nodes(path.read_text(encoding="utf-8"), str(path)) == []


def test_float_scan_sees_each_kind():
    source = "a = 0.5\nb = a / 2\nb /= 3\nc = float(b)\nd = round(c)\ne = 7 // 2\nf = Fraction(1, 2)\n"
    assert float_nodes(source) == [
        "1: float literal 0.5",
        "2: true division",
        "3: true division",
        "4: call to float",
        "5: call to round",
    ]
