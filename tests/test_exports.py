"""Every name that kcalc or one of its modules lists in ``__all__`` exists."""

import importlib
import pkgutil

import kcalc


def test_every_exported_name_resolves():
    names = ["kcalc"] + [f"kcalc.{m.name}" for m in pkgutil.iter_modules(kcalc.__path__)]
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert stale == []
