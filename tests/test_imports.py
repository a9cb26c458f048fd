"""Every module of the package uses each name it imports.

A name counts as used when the module reads it anywhere (as a bare name,
or as the root of an attribute chain), or lists it in ``__all__``, which
is how ``__init__.py`` re-exports. ``from __future__`` imports are
compiler directives, not names, and are skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arsusim"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, as ``line name``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{line} {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in used]


def test_every_module_is_checked():
    assert {"__init__.py", "messages.py", "sim.py"} <= {
        path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field as fld\n"
        "__all__ = ['fld']\n"
        "def f(x: dataclass) -> None:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["2 os"]
