"""Every name a module imports is used in it, and every private helper is read (no linter runs on this package)."""

from __future__ import annotations

import ast
import pathlib

import pytest

import scenemine

PACKAGE = pathlib.Path(scenemine.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, except ``from __future__``."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations such as ``"Literal | VarRef"``."""
    used = _names(tree)
    for node in ast.walk(tree):
        for annotation in filter(None, (getattr(node, "annotation", None), getattr(node, "returns", None))):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _names(ast.parse(part.value, mode="eval"))
    return used


def test_the_scan_sees_every_module():
    assert "dsl.py" in MODULES and "predicates.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}, f"{module}: imported but never used (name: line) {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each module-level function, class or assigned name with one leading underscore."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            names = []
        defined.update((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))
    return defined


def _reads(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attribute names and the names it imports from other modules."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_helper_is_read_somewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    unread = {
        f"{module}:{line}": name
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    }
    assert unread == {}, f"private helpers nothing in the package reads (module:line: name) {unread}"


def test_every_public_name_resolves():
    """``__init__.py`` is skipped above, so a stale export would only show here."""
    assert len(set(scenemine.__all__)) == len(scenemine.__all__)
    assert [name for name in scenemine.__all__ if not hasattr(scenemine, name)] == []
