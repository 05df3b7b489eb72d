"""Every top-level private function and constant in the package is used somewhere.

Helpers that lose their last caller, and the knobs they read, tend to
linger; this keeps them from piling up again.
"""

import ast
from pathlib import Path

import tridiag4

SRC = Path(tridiag4.__file__).resolve().parent


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unreferenced_private_functions():
    modules = _modules()
    referenced = set().union(*(_referenced_names(tree) for tree in modules.values()))
    unused = [
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unused == []


def _constants(tree):
    """Names bound at module level by ``NAME = ...`` with ``NAME`` upper-case."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.extend(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return names


def test_no_unreferenced_constants():
    # a reference is a load of the name (or an attribute or import of it);
    # the constant's own assignment does not count
    modules = _modules()
    referenced = set().union(*(_referenced_names(tree) for tree in modules.values()))
    unused = [
        f"{name}:{const}" for name, tree in modules.items() for const in _constants(tree) if const not in referenced
    ]
    assert unused == []
