"""The public names of the package: the benchmark's tracer looks up every
name in each `jspec.*` module's `__all__`, so a stale entry breaks it."""

import importlib
import inspect
import pkgutil

import jspec

MODULES = [importlib.import_module(f"jspec.{m.name}") for m in pkgutil.iter_modules(jspec.__path__)]


def _offered(module) -> list[str]:
    """The module's `__all__`, or its public names defined there when it has none."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n for n, obj in vars(module).items()
            if not n.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        ]
    return names


def test_every_all_name_resolves():
    for module in MODULES:
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names {missing}, which it lacks"


def test_the_package_reexports_only_offered_names():
    offered = {(n, id(getattr(m, n))) for m in MODULES for n in _offered(m) if hasattr(m, n)}
    public = [
        n for n, obj in vars(jspec).items()
        if not n.startswith("_") and not inspect.ismodule(obj)
    ]
    assert public
    stray = [n for n in public if (n, id(getattr(jspec, n))) not in offered]
    assert not stray, f"jspec re-exports {stray}, which no module offers"
