"""The engine has no third-party runtime dependency: every import in
src/galoiskit is relative or names a standard-library module.  And every
name a module imports is used in that module."""

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


def unused_imports(source):
    """Names bound by an import (at any depth) that no expression reads."""
    tree, bound = ast.parse(source), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_sources_found():
    assert any(path.name == "qfactor.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_relative_or_stdlib(path):
    assert foreign_imports(path.read_text()) == []


def test_checker_flags_third_party_and_absolute_imports():
    source = "import math\nfrom . import poly\nimport sympy.core\nfrom galoiskit import qfactor\n"
    assert foreign_imports(source) == ["sympy.core", "galoiskit"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_imports():
    source = ("import os.path\nimport math as m\nfrom .poly import P, Q\n"
              "def f():\n    from .linalg import lll\n    return m.pi, P, os.sep\n")
    assert unused_imports(source) == ["Q", "lll"]
