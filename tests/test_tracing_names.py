"""Every function the benchmark's tracer wraps still exists.

perfbench/tracing.py swaps each "module.qualname" in its WRAPPED dict for
a wrapper, reading the original from its owner's __dict__, so deleting or
renaming one of them breaks the traced benchmark runs.  The file is parsed
here, not imported, so the package's own suite pins those names."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_names() -> list[str]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("no WRAPPED assignment in perfbench/tracing.py")


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert names
    for name in names:
        module, *owners, attr = name.split(".")
        owner = importlib.import_module(f"treecount.{module}")
        for part in owners:
            owner = owner.__dict__[part]
        assert attr in owner.__dict__, name
