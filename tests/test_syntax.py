"""Every source file of the package parses as Python 3.10, the oldest
version it supports, so syntax from a newer version fails here even when
the suite runs on a newer interpreter."""

import ast
from pathlib import Path

import pytest

import treecount

SOURCES = sorted(Path(treecount.__file__).parent.rglob("*.py"))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "linalg.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
