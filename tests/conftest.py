"""Shared helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

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
