"""Every name an export list promises resolves, so a deleted helper cannot
linger in ``__all__``."""

import importlib
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
