"""No module of the package imports a top-level name it never uses, or
defines a private top-level name it never uses.

No linter is a dependency, so these are the checks for imports and
private helpers left behind when code is removed.  `__init__.py` is
exempt from the import check: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "prefwalk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Name -> line for every name bound by an import in the module body."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def private_definitions(tree):
    """Name -> line for every function, class or constant the module body
    defines under a private name (one leading underscore, not a dunder)."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def orphaned_private_names(tree):
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name: line for name, line in private_definitions(tree).items()
            if name not in read}


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_orphan_check_sees_each_kind():
    tree = ast.parse("_LIMIT = 3\nclass _Box: pass\ndef _helper(): return _used\n"
                     "def _used(): pass\n__all__ = []\n")
    assert orphaned_private_names(tree) == {"_LIMIT": 1, "_Box": 2, "_helper": 3}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_orphaned_private_names(path):
    orphans = orphaned_private_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not orphans, f"{path.name} defines private names it never uses: {orphans}"
