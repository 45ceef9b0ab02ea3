"""The package carries no test-only surface.

Every module-level function and class in ``src/multislice`` must be reached
from the package itself or be a name the acceptance tests import.  A
definition counts as reached when code outside every unreached definition
names it, repeated until nothing changes, so two dead functions that call
each other are both found.  A name counts where it is read directly, as an
attribute of a package module (``exactla.exchangeable_rank``) or as a
re-export in ``__init__.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "multislice"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def unreached() -> set[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    modules = {path.stem for path in trees}
    accepted = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defs = {
        node.name: (f"{path.stem}.{node.name}", node)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
    }

    def names(top: ast.stmt, reexports: bool) -> set[str]:
        out = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                out.add(node.attr)
            elif isinstance(node, ast.alias) and reexports:
                out.add(node.name)
        return out

    dead: set[str] = set()
    while True:
        read = set()
        for path, tree in trees.items():
            for top in tree.body:
                if not any(top is defs[name][1] for name in dead):
                    read |= names(top, path.name == "__init__.py") - {getattr(top, "name", None)}
        found = {name for name in defs if name not in read and name not in accepted}
        if found == dead:
            return {defs[name][0] for name in dead}
        dead = found


def test_every_definition_is_reached():
    assert unreached() == set()
