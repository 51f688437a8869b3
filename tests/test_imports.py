"""Every name a stickbound module imports is used there or listed in __all__."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stickbound"


def unused_imports(source: str) -> list:
    """Names the module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_unused_imports_finds_what_is_neither_read_nor_exported():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from .geom import lattice, bbox as box, Point3\n"
        "__all__ = ['Point3']\n"
        "def f(p: system.Any):\n"
        "    return box(p)\n"
    )
    assert unused_imports(source) == ["lattice", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def private_top_level_names(tree) -> set:
    """Private (single leading underscore, not dunder) names a module defines
    at top level: functions, classes and assigned constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_every_private_name_is_referenced_in_src():
    """A private helper that only the tests use belongs in the tests: every
    private top-level name of a module is read somewhere in src/, by name
    or as an attribute, besides its definition."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = {(m, n) for m, tree in trees.items() for n in private_top_level_names(tree)}
    assert len(defined) > 40
    assert sorted((m, n) for m, n in defined if n not in read) == []
