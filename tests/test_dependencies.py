"""The engine has no third-party runtime dependency: every import in
src/galoiskit is relative or names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "galoiskit").glob("*.py"))


def foreign_imports(source):
    """Top-level module names of the absolute imports outside the stdlib."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_sources_found():
    assert any(path.name == "qfactor.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_relative_or_stdlib(path):
    assert foreign_imports(path.read_text()) == []


def test_checker_flags_third_party_and_absolute_imports():
    source = "import math\nfrom . import poly\nimport sympy.core\nfrom galoiskit import qfactor\n"
    assert foreign_imports(source) == ["sympy.core", "galoiskit"]
