"""Checks of the package's imports and exports.

No linter runs on this package, so static checks, with stdlib ``ast`` only,
catch what a deletion can leave behind: an import no code reads any more, a
helper no code calls any more, or a name in ``tritri.__all__`` that the
package no longer defines.  One more check imports the CLI in a fresh
interpreter and looks at the modules it loaded, and one resolves the
package paths that README.md names.
"""

import ast
import os
import pkgutil
import re
import subprocess
import sys
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


def _private_names(tree: ast.Module) -> set[str]:
    """The ``_``-prefixed names, dunders aside, that a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_read():
    # read in its own module, or imported by another one of the package
    trees = {name: _tree(name) for name in [*MODULES, "__init__.py"]}
    unread = []
    for name, tree in trees.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        imported = {a.name for other, t in trees.items() if other != name
                    for n in ast.walk(t) if isinstance(n, ast.ImportFrom) for a in n.names}
        unread += [f"{name}: {p}" for p in sorted(_private_names(tree) - read - imported)]
    assert unread == []


def test_every_public_function_and_class_is_exported_or_read():
    # a public helper that is neither exported nor read is dead code; the
    # oracle is exempt, since its API serves the tests and the benchmark
    trees = {name: _tree(name) for name in MODULES}
    read = {n.id for t in trees.values() for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = [f"{name}: {node.name}" for name, tree in trees.items() if name != "oracle.py"
              for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in {*read, *tritri.__all__}]
    assert unread == []


def test_the_oracle_imports_no_kernel_geometry():
    # the oracle referees the kernel, so it may share the tolerance, the
    # error and the labels, but none of the kernel's geometry
    imported = set()
    for node in ast.walk(_tree("oracle.py")):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("tritri")):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import) and any(a.name.startswith("tritri") for a in node.names):
            imported.add("import tritri")
    assert imported <= {"DEFAULT_TOLERANCE", "Tolerance", "DegenerateTriangle", "CaseLabel"}


def test_every_package_path_in_the_readme_resolves():
    # a module merged away, or a name moved, leaves its old path in the prose
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paths = set(re.findall(r"`(tritri(?:\.\w+)+)`", readme))
    assert paths
    for path in paths:
        pkgutil.resolve_name(path)  # imports the longest module prefix, then looks up the rest


def test_importing_the_cli_loads_no_slow_module():
    # each costs start-up time on every CLI run, and the CLI needs none: it
    # runs serially, and pathlib served only type annotations.  ``-S`` keeps
    # ``site`` from loading any of them first
    slow = ["concurrent.futures", "dataclasses", "inspect", "pathlib"]
    code = f"import sys, tritri.cli; print(sorted(set({slow!r}) & sys.modules.keys()))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
