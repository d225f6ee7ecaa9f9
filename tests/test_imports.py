"""Every module-level import in the package is used by its module.

An import left behind by a deletion keeps dead names alive, so this check
parses each module of ``src/opsum`` and fails on any module-level import
whose bound name is never referenced.  ``__init__.py`` (whose imports are
re-exports) and ``from __future__`` imports are exempt; a name listed in
the module's ``__all__`` counts as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opsum"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """(bound name, line) of every import at module level, try/if bodies included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))


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
