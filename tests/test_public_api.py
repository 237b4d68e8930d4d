"""Every name an export list promises resolves, so a deleted helper cannot
linger in ``__all__``, and no module imports a name it never uses, so one
cannot linger in an import either."""

import ast
import importlib
import importlib.util
import pkgutil

import pytest

import ffstick

MODULES = ["ffstick"] + [f"ffstick.{m.name}" for m in pkgutil.iter_modules(ffstick.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    mod = importlib.import_module(name)
    exports = getattr(mod, "__all__", None)
    assert exports is not None, f"{name} has no __all__"
    assert len(set(exports)) == len(exports), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exports if not hasattr(mod, attr)]
    assert missing == []


# An import kept for a reader outside the package, with the reason.
_UNUSED_IMPORTS_KEPT = {
    # perfbench's selftest checks that its tracer also wraps the name here
    ("ffstick.cli", "quotient_invariants"),
}


def _names(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _unused_imports(tree):
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in set().union(*map(_names, node.targets)):
            used.update(ast.literal_eval(node.value))
        # a quoted annotation names its types inside a string
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used.update(_names(ast.parse(sub.value, mode="eval")))
    return sorted(imported - used)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_import(name):
    path = importlib.util.find_spec(name).origin
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    unused = [n for n in _unused_imports(tree) if (name, n) not in _UNUSED_IMPORTS_KEPT]
    assert unused == []


# A module-level private helper kept with no reference in the package, with
# the reason.
_UNREFERENCED_PRIVATE_KEPT: dict = {}


def test_no_unreferenced_private_helper():
    trees = {}
    for name in MODULES:
        with open(importlib.util.find_spec(name).origin, encoding="utf-8") as f:
            trees[name] = ast.parse(f.read())
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and node.name not in referenced
        and (name, node.name) not in _UNREFERENCED_PRIVATE_KEPT
    ]
    assert unreferenced == []
