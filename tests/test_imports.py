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
