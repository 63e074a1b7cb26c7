"""Source hygiene: no leftover imports, no ``__all__`` entry without a definition,
no unreferenced private helper or unexported public one, no private name read
from another module, no syntax newer than the oldest supported Python.

A static check over ``src/eventstudy/*.py`` with the standard ``ast`` module,
so a deletion that leaves an import, an export or a helper behind fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "eventstudy").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def _imported(tree: ast.Module) -> dict[str, int]:
    """Every name an import binds, with its line; ``__future__`` imports excluded."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level: definitions, assignments and imports."""
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _loaded(tree: ast.Module) -> set[str]:
    """Names the module reads bare."""
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_export_is_defined(path):
    tree = _tree(path)
    missing = sorted(set(_exported(tree)) - _defined(tree))
    assert not missing, f"{path.name}: __all__ names with no definition {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_the_oldest_supported_python(path):
    # pyproject.toml's ``requires-python = ">=3.10"``, held without a 3.10
    # interpreter: ``feature_version`` rejects newer grammar, such as ``except*``.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_private_name_is_referenced(path):
    tree = _tree(path)
    private = {name for name in _defined(tree) - set(_imported(tree)) if _is_private(name)}
    stale = sorted(private - _loaded(tree))
    assert not stale, f"{path.name}: module-level private names never referenced {stale}"


def _read_from_outside() -> set[str]:
    """Names the package reads from another module: imported by name, or read
    as an attribute (``report_mod.run``)."""
    read: set[str] = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_unexported_public_name_is_read(path):
    tree = _tree(path)
    public = {
        name for name in _defined(tree) - set(_imported(tree)) - set(_exported(tree))
        if not name.startswith("_")
    }
    stale = sorted(public - _loaded(tree) - _read_from_outside())
    assert not stale, f"{path.name}: public names neither exported nor read {stale}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_name_read_from_another_module(path):
    # A private name is its module's own: another module that needs it
    # should read a public one (``from .report import _x`` or
    # ``report_mod._x`` both fail here).
    tree = _tree(path)
    imported = set(_imported(tree))
    reads = {
        node.lineno: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if _is_private(alias.name)
    }
    reads.update(
        (node.lineno, f"{node.value.id}.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in imported and _is_private(node.attr)
    )
    assert not reads, f"{path.name}: private names read from another module (line: name) {reads}"
