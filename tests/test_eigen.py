"""Failure path of the LAPACK eigensolver behind eigen_map, spectral_decompose
and the stacked path audit of connect."""

import numpy as np
import pytest

from jspec import (
    ComplexHermitian,
    NumericError,
    RealSymmetric,
    SpectralSet,
    compose_theta,
    connect,
    eigen_map,
    make_trace_halfspace,
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
        y = random_element(algebra, 1)
        with pytest.raises(NumericError):
            connect(SpectralSet(algebra, make_trace_halfspace(algebra.rank)), x, y, steps=4)


@pytest.mark.parametrize("failure", ["raise", "nan"])
@pytest.mark.parametrize("algebra", [RealSymmetric(4), ComplexHermitian(3)], ids=str)
def test_audit_stack_failure_raises(monkeypatch, algebra, failure):
    # LAPACK fails, or returns a NaN, only on the audit's stack of all
    # 3 * steps - 2 samples; every smaller call (the endpoints and the
    # reference elements) succeeds
    real_eigvalsh = np.linalg.eigvalsh
    steps = 5

    def fails_on_the_audit(m):
        values = real_eigvalsh(m)
        if m.ndim == 3 and len(m) == 3 * steps - 2:
            if failure == "raise":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            values[len(m) // 2, 0] = np.nan
        return values

    frame = spectral_decompose(random_element(algebra, 2))[0]
    x = compose_theta(np.linspace(3.0, 1.0, algebra.rank), frame)
    y = compose_theta(np.linspace(1.0, 2.0, algebra.rank), frame)
    sset = SpectralSet(algebra, make_trace_halfspace(algebra.rank))
    assert len(connect(sset, x, y, steps=steps).samples) == 3 * steps - 2
    monkeypatch.setattr(spectral.np.linalg, "eigvalsh", fails_on_the_audit)
    with pytest.raises(NumericError):
        connect(sset, x, y, steps=steps)
