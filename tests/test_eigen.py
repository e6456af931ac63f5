"""Failure path of the LAPACK eigensolver behind eigen_map and spectral_decompose."""

import numpy as np
import pytest

from jspec import (
    ComplexHermitian,
    NumericError,
    RealSymmetric,
    eigen_map,
    random_element,
    spectral,
    spectral_decompose,
)


def test_nonconvergence_raises(monkeypatch):
    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral.np.linalg, "eigvalsh", no_convergence)
    monkeypatch.setattr(spectral.np.linalg, "eigh", no_convergence)
    for algebra in (RealSymmetric(4), ComplexHermitian(3)):
        x = random_element(algebra, 0)
        with pytest.raises(NumericError):
            eigen_map(x)
        with pytest.raises(NumericError):
            spectral_decompose(x)
