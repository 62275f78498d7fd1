"""Static checks of the package's imports and exports, with stdlib ``ast`` only.

No linter runs on this package, so these tests catch what a deletion can
leave behind: an import no code reads any more, or a name in
``tritri.__all__`` that the package no longer defines.
"""

import ast
from pathlib import Path

import pytest

import tritri

PACKAGE = Path(tritri.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)


def _imported_names(tree: ast.Module) -> set[str]:
    """Every name an import statement binds; ``import a.b`` binds ``a``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name):
    tree = _tree(name)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - read) == []


def test_every_exported_name_resolves():
    assert len(set(tritri.__all__)) == len(tritri.__all__)
    missing = [name for name in tritri.__all__ if not hasattr(tritri, name)]
    assert missing == []


def test_the_package_imports_only_what_it_exports():
    # what __init__ imports from its modules is there to be exported
    imported = _imported_names(_tree("__init__.py"))
    assert sorted(imported - set(tritri.__all__)) == []
