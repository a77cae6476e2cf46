"""Rules that hold for the package source as a whole."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import mdp_workbench

PACKAGE = Path(mdp_workbench.__file__).resolve().parent


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path.relative_to(PACKAGE), tree


def _used_names(tree: ast.AST) -> set:
    """Every identifier a module reads: names, attribute names, and the
    names inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used_names(ast.parse(ann.value))
    return used


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, and with them any result check
    # written as one; the package raises explicitly instead.
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_modules_use_every_import():
    # The package __init__ imports only to re-export.
    found = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path}:{node.lineno} {name}")
    assert found == []


def test_package_imports_only_the_standard_library():
    # The package has no runtime dependency; mpmath, numpy and scipy may be
    # installed but must not creep in.  Imports inside functions count too.
    allowed = set(sys.stdlib_module_names)
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert found == []


def test_package_has_no_unused_private_helpers():
    # A top-level _private function or class must be referenced somewhere in
    # the package; one that only tests call belongs in the tests.
    trees = list(_modules())
    used = set().union(*(_used_names(tree) for _, tree in trees))
    found = [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert found == []
