"""The public names of the package: the benchmark's tracer looks up every
name in each `jspec.*` module's `__all__`, so a stale entry breaks it; the
README's library tour uses them, and every error class has one exit code."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import jspec
from jspec import cli, errors

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


def test_readme_library_tour_runs():
    # a name the tour uses that the package no longer offers fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md (library tour)", "exec"), {})


def test_every_error_class_is_raised_and_has_one_exit_code():
    source = "\n".join(p.read_text(encoding="utf-8") for p in Path(jspec.__file__).parent.glob("*.py"))
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.JspecError) and cls is not errors.JspecError
    ]
    assert classes
    for cls in classes:
        assert re.search(rf"\braise {cls.__name__}\(", source), f"{cls.__name__} is never raised"
        codes = [
            code for code, caught in (
                (4, cli._INFEASIBLE_ERRORS), (3, (errors.NumericError,)), (2, cli._INPUT_ERRORS),
            ) if issubclass(cls, caught)
        ]
        assert len(codes) == 1, f"{cls.__name__} maps to exit codes {codes}"
