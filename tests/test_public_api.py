"""Every name an export list promises resolves, so a deleted helper cannot
linger in ``__all__``, and no module imports a name it never uses, so one
cannot linger in an import either.  A public function that no command
reaches states why it stays."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import pkgutil
import shlex
import sys
from pathlib import Path

import pytest

import ffstick
from ffstick import battery, cli

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


# A public function, method or property getter that no traced run reaches,
# with the reason it stays.
_PERFBENCH = "perfbench wraps or reads it"
_ORACLE = "a test compares the program against it"
_REPR = "a __repr__ reads it"
_IDENTITIES = "tests state identities with it"
_UNREACHED_PUBLIC_KEPT = {
    "heckelat.hnf_reduce": _PERFBENCH,
    "heckelat.quotient_invariants": _PERFBENCH,
    "heckelat.LatticeSum.terms": _PERFBENCH,
    "report.load_schema": _PERFBENCH,
    "heckelat.Lattice.coords_of": "quotient_invariants reads it",
    "groupring.UnitGroup.order_by_formula": _ORACLE,
    "groupring.GroupRingElem.augmentation": _ORACLE,
    "heckelat.LatticeSum.support_size": _REPR,
    "heckelat.LatticeSum.total_mass": _REPR,
    "carlitz.RatFunc.is_zero": _REPR,
    "heckelat.Lattice.det": _IDENTITIES,
    "heckelat.Lattice.det_degree": _IDENTITIES,
    "heckelat.Lattice.scale": _IDENTITIES,
    "heckelat.InvariantType.codim": _IDENTITIES,
    "heckelat.LatticeSum.is_zero": _IDENTITIES,
    "groupring.UnitGroup.rep": _IDENTITIES,
    "groupring.GroupRingElem.basis": _IDENTITIES,
    "carlitz.AlgElem.pow_int": _IDENTITIES,
    "carlitz.SkewPoly.degree": _IDENTITIES,
}

_README = Path(__file__).resolve().parent.parent / "README.md"
_REDUCED_VERIFY_ALL = ["verify-all", "--seed", "123", "--pairs", "1", "--newton-budget", "200"]


def _traced_runs():
    """(argv, exit code) of each traced run: the reduced verify-all, plain and
    under each fault, and each README subcommand other than verify-all."""
    runs = [(_REDUCED_VERIFY_ALL, 0)]
    runs += [(_REDUCED_VERIFY_ALL + ["--inject-fault", f], 1) for f in battery.FAULTS]
    for line in _README.read_text(encoding="utf-8").splitlines():
        if line.startswith("ffstick ") and not line.startswith("ffstick verify-all"):
            runs.append((shlex.split(line)[1:], 0))
    return runs


def _public_callables():
    """{module.qualname: code object} of every public function, method,
    classmethod and property getter a submodule defines."""
    out = {}
    for name in MODULES[1:]:
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            members = ([(f"{attr}.{k}", v) for k, v in vars(obj).items() if not k.startswith("_")]
                       if inspect.isclass(obj) else [(attr, obj)])
            for qualname, member in members:
                func = getattr(member, "fget", None) or getattr(member, "__func__", member)
                func = inspect.unwrap(func)
                if inspect.isfunction(func):
                    out[f"{name.split('.')[1]}.{qualname}"] = func.__code__
    return out


def test_every_public_callable_is_reached_or_kept():
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for argv, status in _traced_runs():
        previous = sys.getprofile()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                got = cli.main(argv)
            finally:
                sys.setprofile(previous)
        assert got == status, argv
    unreached = {q for q, code in _public_callables().items() if code not in reached}
    assert unreached == set(_UNREACHED_PUBLIC_KEPT)
