"""Every name a library module imports is read somewhere in that module.

An import left behind when the code that used it goes away still loads a
module and still reads as a dependency. Each module under src/setgraphs is
parsed with ast; a name counts as read where it is loaded, or listed in the
module's __all__. `from __future__` lines are compiler switches, not names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "setgraphs"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_a_leftover_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from dataclasses import dataclass, field\n"
        "from .core import adjacent as meets\n"
        "__all__ = ['json']\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = 0\n"
    )
    assert unused_imports(source) == ["field", "meets", "os"]
