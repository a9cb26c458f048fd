"""Every module of the package uses each name it imports, and the
package's modules import one another without a cycle.

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


def package_imports(source: str) -> set[str]:
    """The package modules ``source`` imports with ``from .x import``."""
    return {node.module for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module}


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle of ``graph`` (module to the modules it imports), as the
    modules along it, first one repeated at the end; [] if there is
    none."""
    done: set[str] = set()
    path: list[str] = []

    def visit(module: str) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for imported in sorted(graph.get(module, ())):
            cycle = visit(imported)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_package_imports_have_no_cycle():
    graph = {path.stem: package_imports(path.read_text())
             for path in MODULES}
    # So ``trace`` cannot come to import ``sim``.
    assert "trace" in graph["sim"]
    assert import_cycle(graph) == []


def test_an_import_cycle_is_found():
    source = "from . import x\nfrom .b import y\nfrom .c.d import z\n"
    assert package_imports(source) == {"b", "c.d"}
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == [
        "b", "c", "b"]
