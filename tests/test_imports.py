"""Checks of the package's imports and exports.

No linter runs on this package, so static checks, with stdlib ``ast`` only,
catch what a deletion can leave behind: an import no code reads any more, a
helper no code calls any more, or a name in ``tritri.__all__`` that the
package no longer defines.  Another finds an ``except StopIteration``,
which ends a loop by exception.  One more check imports and runs the CLI
in a fresh interpreter and looks at the modules it loaded, one resolves the
package paths that README.md names, one finds every exported name and
every CLI option in it, and one runs its Python examples.
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
import tritri.cli

PACKAGE = Path(tritri.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
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


@pytest.mark.parametrize("name", [*MODULES, "__init__.py"])
def test_no_module_catches_stop_iteration(name):
    # ending a loop by catching ``next``'s StopIteration is control flow by
    # exception; a ``for`` loop or a length check says the same plainly
    caught = [node.lineno for node in ast.walk(_tree(name)) if isinstance(node, ast.ExceptHandler)
              and node.type is not None and "StopIteration" in ast.unparse(node.type)]
    assert caught == []


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
    paths = set(re.findall(r"`(tritri(?:\.\w+)+)`", README.read_text(encoding="utf-8")))
    assert paths
    for path in paths:
        pkgutil.resolve_name(path)  # imports the longest module prefix, then looks up the rest


def test_every_exported_name_is_in_the_readme():
    # an exported name the README never mentions is API no reader can find
    readme = README.read_text(encoding="utf-8")
    missing = [name for name in tritri.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert missing == []


def test_every_cli_option_is_in_the_readme():
    # the CLI states its options in one table; a row the README never names
    # is an option no reader can find
    readme = README.read_text(encoding="utf-8")
    missing = [row[0] for row in tritri.cli._OPTIONS if not re.search(rf"{row[0]}\b", readme)]
    assert missing == []


def test_the_readme_python_examples_run():
    # in order and in one namespace, as a reader pastes them into one session
    readme = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"```python\n(.*?)```", readme, re.S))
    assert blocks
    namespace: dict = {}
    for block in blocks:
        # padded with newlines, so that a traceback names the README's own line
        code = "\n" * readme.count("\n", 0, block.start(1)) + block[1]
        exec(compile(code, str(README), "exec"), namespace)


def test_importing_the_cli_loads_no_slow_module(tmp_path):
    # each costs start-up time on every CLI run, and the CLI needs none: it
    # runs serially, parses a plain command line itself, pathlib served only
    # type annotations, and json only the summary line.  ``-S`` keeps
    # ``site`` from loading any of them first; ``main`` runs each command
    # line of bench/run.py's workloads, so that parsing the command line
    # and the run are checked as well
    slow = ["argparse", "concurrent.futures", "dataclasses", "gettext", "inspect", "json",
            "locale", "pathlib"]
    (tmp_path / "pairs.txt").write_text("0 0 0  4 0 0  0 4 0   1 1 -1  1 1 2  3 3 2\n")
    (tmp_path / "a.off").write_text("OFF\n3 1 0\n0 0 0\n4 0 0\n0 4 0\n3 0 1 2\n")
    (tmp_path / "b.off").write_text("OFF\n3 1 0\n1 1 -1\n1 1 2\n3 3 2\n3 0 1 2\n")
    runs = [["pair", "--input", "pairs.txt"], ["mesh", "a.off", "a.off"], ["mesh", "a.off", "b.off"]]
    code = ("import sys\nfrom tritri.cli import main\n"
            f"codes = [main([*args, '--jobs', '1', '--output', 'out.jsonl']) for args in {runs!r}]\n"
            f"print(codes, sorted(set({slow!r}) & sys.modules.keys()))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip() == "[0, 0, 0] []"
