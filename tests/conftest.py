"""Shared helpers for the test suite."""

from __future__ import annotations

import ast
import functools
import os
import pathlib

import numpy as np
import pytest

import jspec
from jspec import (
    ComplexHermitian,
    ProductAlgebra,
    RealSymmetric,
    SpinFactor,
    compose_theta,
    random_element,
    spectral_decompose,
)

SIMPLE_KINDS = [
    RealSymmetric(2),
    RealSymmetric(4),
    ComplexHermitian(2),
    ComplexHermitian(3),
    SpinFactor(3),
    SpinFactor(6),
]

PRODUCT_KINDS = [
    ProductAlgebra((RealSymmetric(2), SpinFactor(3))),
    ProductAlgebra((ComplexHermitian(2), RealSymmetric(1), RealSymmetric(3))),
]

ALL_KINDS = SIMPLE_KINDS + PRODUCT_KINDS

# the tests that start `python -m jspec.cli` import jspec from src/ in the
# child too, as pytest's `pythonpath` setting makes this process do
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_frame(algebra, seed):
    """A valid Jordan frame from decomposing a random element."""
    frame, _ = spectral_decompose(random_element(algebra, seed))
    return frame


def element_with_eigenvalues(algebra, q, seed):
    """A member of the eigenvalue orbit of q, on a random frame."""
    return compose_theta(np.asarray(q, dtype=float), random_frame(algebra, seed))


@functools.cache
def _source_trees() -> tuple:
    """(module name, AST) of each module of jspec's source, parsed once."""
    src = pathlib.Path(jspec.__file__).parent
    return tuple((f.stem, ast.parse(f.read_text())) for f in sorted(src.glob("*.py")))


def source_offenders(find) -> list[str]:
    """The sorted, distinct `module.function` around each node that
    `find(tree)` yields from a module of jspec's source: the innermost def
    or class around its line, `module.<module>` outside every one."""
    found = set()
    for stem, tree in _source_trees():
        defs = [d for d in ast.walk(tree) if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
        for node in find(tree):
            # ast.walk is breadth first: the last def around the line is the innermost
            around = [d.name for d in defs if d.lineno <= node.lineno <= d.end_lineno]
            found.add(f"{stem}.{around[-1] if around else '<module>'}")
    return sorted(found)
