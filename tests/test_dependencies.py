"""The engine has no third-party runtime dependency: every import in
src/galoiskit is relative or names a standard-library module.  Every name
a module imports is used in that module, every private module-level name
is used somewhere in the package outside its own definition, every private
method is read outside its own body, and every private attribute stored on
self is loaded somewhere."""

import ast
import sys
from collections import Counter
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


def dead_helpers(sources):
    """(module, name) for each private module-level name, defined by a def,
    a class or an assignment in one of the sources (module -> text), that
    no statement of the package reads except its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    readers = {}  # name -> the top-level statements that read it
    for tree in trees.values():
        for stmt in tree.body:
            for name in _read_names(stmt):
                readers.setdefault(name, set()).add(id(stmt))
    out = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            out += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")
                    and not readers.get(n, set()) - {id(top)}]
    return out


def _read_names(node):
    """Names a statement reads: loaded names, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_private_helper_is_used():
    assert dead_helpers({path.stem: path.read_text() for path in SOURCES}) == []


def test_checker_flags_a_dead_helper():
    sources = {
        "a": ("from .b import _shared\n_LIMIT = 3\n_UNUSED = 4\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else _LIMIT\n"
              "def public():\n    return _shared()\n"),
        "b": "def _shared():\n    return 1\nclass _Dead:\n    pass\n",
    }
    assert dead_helpers(sources) == [("a", "_UNUSED"), ("a", "_recursive"), ("b", "_Dead")]


def dead_members(sources):
    """(module, name) for each private method of a class body that no
    statement of the package reads outside the method's own body, named
    Class.method, and for each private attribute stored on self that no
    expression of the package loads, named self.attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loads = Counter()
    for tree in trees.values():
        loads += _loaded_members(tree)
    out = []
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            out += [(module, f"{cls.name}.{f.name}") for f in cls.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(f.name)
                    and loads[f.name] == _loaded_members(f)[f.name]]
        stored = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                  and n.value.id == "self" and _private(n.attr)}
        out += [(module, f"self.{name}") for name in sorted(stored) if not loads[name]]
    return out


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _loaded_members(node):
    """Counts of the names a node reads: loaded names and attributes, and
    the attributes an augmented assignment updates."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
        elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute):
            out[n.target.attr] += 1
    return out


def test_every_private_member_is_used():
    assert dead_members({path.stem: path.read_text() for path in SOURCES}) == []


def test_checker_flags_a_dead_member():
    sources = {
        "a": ("class A:\n"
              "    def __init__(self):\n        self._kept, self._dead, self._count = 1, 2, 0\n"
              "    def _used(self):\n        self._count += 1\n        return self._kept\n"
              "    def _recursive(self, n):\n        return self._recursive(n - 1) if n else 0\n"
              "    def _unread(self):\n        return 0\n"
              "    def public(self):\n        return self._used()\n"),
        "b": ("from .a import A\n"
              "class B(A):\n    def _aliased(self):\n        return 1\n    run = _aliased\n"
              "    def _read_elsewhere(self):\n        return 2\n"
              "def f(b):\n    b._late = 3\n    return b._read_elsewhere()\n"),
    }
    assert dead_members(sources) == [("a", "A._recursive"), ("a", "A._unread"), ("a", "self._dead")]
