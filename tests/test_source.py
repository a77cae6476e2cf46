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


REPO = Path(__file__).resolve().parents[1]

# Library inputs that no program caller passes, each with why it stays.
DOCUMENTED_OPTIONS = {
    "check_universal_l_optimal.budget": (
        "the exact verdict's work bound; the README documents it for library "
        "callers, and the CLI keeps the default"
    ),
    "make_loss.assignment": "input of the monotone loss: the secret each action names",
    "make_loss.profile": "input of the monotone loss: the loss at each distance",
}


def _program_trees():
    """The package and perfbench, without their tests."""
    paths = [*PACKAGE.rglob("*.py"), *(REPO / "perfbench").glob("*.py")]
    for path in sorted(paths):
        if not path.name.startswith("test_"):
            yield ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _options():
    """``(owner, name, position)`` of every defaulted parameter of a public
    function and every defaulted field of a public dataclass; ``position``
    is None for a keyword-only parameter."""
    for _, tree in _modules():
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield node.name, arg.arg, i
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield node.name, arg.arg, None
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [
                    s for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                ]
                for i, field in enumerate(fields):
                    if field.value is not None:
                        yield node.name, field.target.id, i


def test_every_option_is_passed_by_the_program():
    # A defaulted parameter or field that only tests set is a second code
    # path that only tests run.  It counts as passed when a call in the
    # package or perfbench gives it by keyword or by position, or when one
    # of them writes its name as a string key (argument dicts that a call
    # then unpacks).  The allowlist must match exactly, so a stale entry
    # fails too.
    keywords, positions, keys = set(), {}, set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                keywords |= {(callee, kw.arg) for kw in node.keywords}
                count = len(node.args)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    count = float("inf")
                positions[callee] = max(positions.get(callee, 0), count)
            elif isinstance(node, ast.Dict):
                keys |= {k.value for k in node.keys if isinstance(k, ast.Constant)}
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if isinstance(node.slice, ast.Constant):
                    keys.add(node.slice.value)
    unpassed = sorted(
        f"{owner}.{name}"
        for owner, name, position in _options()
        if (owner, name) not in keywords
        and not (position is not None and positions.get(owner, 0) > position)
        and name not in keys
    )
    assert unpassed == sorted(DOCUMENTED_OPTIONS)
