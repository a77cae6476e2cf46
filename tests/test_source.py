"""Rules that hold for the package source as a whole."""

from __future__ import annotations

import ast
from pathlib import Path

import mdp_workbench

PACKAGE = Path(mdp_workbench.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, and with them any result check
    # written as one; the package raises explicitly instead.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
