"""Every name a module imports is used in it (no linter runs on this package)."""

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


def test_every_public_name_resolves():
    """``__init__.py`` is skipped above, so a stale export would only show here."""
    assert len(set(scenemine.__all__)) == len(scenemine.__all__)
    assert [name for name in scenemine.__all__ if not hasattr(scenemine, name)] == []
