"""Module-level names in the package match their uses and exports.

An import left behind by a deletion keeps dead names alive, so one check
parses each module of ``src/opsum`` and fails on any module-level import
whose bound name is never referenced.  ``__init__.py`` (whose imports are
re-exports) and ``from __future__`` imports are exempt; a name listed in
the module's ``__all__`` counts as used.

A deletion can also leave its name in ``__all__``, which breaks
``from module import *`` with an AttributeError, so another check fails
on any ``__all__`` entry that no def, class, assignment or import binds at
module level.

A deletion can likewise leave a private helper behind with no caller, so
one more check fails on any private module-level function, class or
constant that no ``Name`` or ``Attribute`` anywhere in the package reads.

The next two keep the package layered: every import of a sibling module
sits at module level, where it is seen at import time, and the module-level
``from .x import`` edges form no cycle.

One more keeps library control flow off ``assert``, which ``python -O``
strips: it fails on any ``assert`` statement in ``src/opsum``.

The last one keeps ``import opsum`` from loading ``scipy.optimize``, which
no pipeline uses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opsum"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _module_level_imports(tree: ast.Module):
    """Every import statement at module level, try/if bodies included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))


def _imported_names(tree: ast.Module):
    """(bound name, line) of every import at module level, try/if bodies included."""
    for node in _module_level_imports(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _bound_names(tree: ast.Module) -> set[str]:
    """Names bound at module level, try/if bodies included."""
    names = {name for name, _ in _imported_names(tree)}
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported_names(tree)
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_all_names_are_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unbound = sorted(_exported(tree) - _bound_names(tree))
    assert not unbound, f"{path.name} lists names in __all__ it never binds: {', '.join(unbound)}"


def _private_definitions(tree: ast.Module):
    """(name, line) of each private function, class or constant at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def test_no_unreferenced_private_definitions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in ALL_MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = sorted(f"{module}: {name} (line {line})" for module, tree in trees.items()
                  for name, line in _private_definitions(tree)
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)
    assert not dead, f"private names never referenced: {', '.join(dead)}"


def _sibling_targets(node: ast.ImportFrom) -> list[str]:
    """Sibling modules a relative import reads: ``x`` for ``from .x import``,
    each name for ``from . import a, b``."""
    if node.module:
        return [node.module.partition(".")[0]]
    return [alias.name for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    top = set(map(id, _module_level_imports(tree)))
    nested = sorted(f"line {node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top)
    assert not nested, f"{path.name} imports package modules below module level: {', '.join(nested)}"


def test_module_level_package_imports_are_acyclic():
    edges = {}
    for path in ALL_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        edges[path.stem] = {target for node in _module_level_imports(tree)
                            if isinstance(node, ast.ImportFrom) and node.level
                            for target in _sibling_targets(node)}
    done, active = set(), []

    def visit(module):
        if module in active:
            cycle = active[active.index(module):] + [module]
            pytest.fail(f"import cycle: {' -> '.join(cycle)}")
        if module in done or module not in edges:
            return
        active.append(module)
        for target in sorted(edges[module]):
            visit(target)
        active.pop()
        done.add(module)

    for module in sorted(edges):
        visit(module)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, f"{path.name} has assert statements, stripped under -O: {', '.join(found)}"


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.3 s and 20 MB to import; only
    # core.matching_distance uses it, and imports it when called
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, opsum; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
