"""Structural guards on the package source, read with the AST."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pcl"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import statement of a pcl module names, as a dotted path.

    ``from . import x`` names both ``pcl`` and ``pcl.x``, since x may be a
    submodule or a name.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "pcl" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "dimensions.py", "online.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    """Theorem checks raise AssertionError themselves, so ``python -O`` keeps them."""
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"bare assert statements in {path.name} at lines {lines}"


def _layer_imports(imported: set[str], layer: str) -> set[str]:
    return {m for m in imported if m == f"pcl.{layer}" or m.startswith(f"pcl.{layer}.")}


def test_dimensions_imports_nothing_from_online():
    imported = _imported_modules(_tree(SRC / "dimensions.py"))
    assert not _layer_imports(imported, "online")
    # the guard sees the module's real imports
    assert "pcl.core" in imported


def test_geometry_imports_nothing_from_dimensions():
    """The margin verdicts stand on core and learners alone."""
    imported = _imported_modules(_tree(SRC / "geometry.py"))
    assert not _layer_imports(imported, "dimensions")
    assert "pcl.core" in imported and "pcl.learners" in imported
