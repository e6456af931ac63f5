"""Eigenvalue map, spectral decomposition into Jordan frames, and the
composition map sending (q, frame) to the element sum(q_i * e_i).

Eigenvalue vectors are plain numpy arrays sorted non-increasing.  For a
product algebra the eigenvalues of the factors are pooled and re-sorted
globally; spectral decomposition keeps each idempotent paired with its
eigenvalue through that sort.

Matrix kinds are diagonalized by LAPACK through numpy (``eigvalsh`` /
``eigh``), whose ascending output is reversed, values and eigenvector
columns together.  Degenerate eigenvalues admit many valid frames; this
module returns the one LAPACK computes, in that reversed order, and never
attempts a canonical choice.  Spin-factor elements with vanishing vector
part use the first coordinate axis for their idempotent pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import (
    Algebra,
    ComplexHermitian,
    Element,
    ProductAlgebra,
    RealSymmetric,
    SpinFactor,
)
from .errors import AlgebraMismatchError, InvalidFrameError, NumericError

FRAME_TOL = 1e-9

__all__ = [
    "FRAME_TOL",
    "JordanFrame",
    "sort_desc",
    "sort_asc",
    "eigen_map",
    "spectral_decompose",
    "compose_theta",
    "canonical_frame",
]


def sort_desc(q) -> np.ndarray:
    """Decreasing rearrangement of a real vector."""
    return np.sort(np.asarray(q, dtype=float))[::-1].copy()


def sort_asc(q) -> np.ndarray:
    """Increasing rearrangement; the reversal of `sort_desc`."""
    return np.sort(np.asarray(q, dtype=float)).copy()


@dataclass(frozen=True, eq=False)
class JordanFrame:
    """Ordered complete system of rank-many orthogonal primitive idempotents.

    Validation runs at construction: each idempotent must square to itself
    with unit trace, distinct idempotents must multiply to zero, and the sum
    must be the unit, all within FRAME_TOL.
    """

    algebra: Algebra
    idempotents: tuple[Element, ...]

    def __post_init__(self):
        object.__setattr__(self, "idempotents", tuple(self.idempotents))
        self._validate()

    def _validate(self, tol: float = FRAME_TOL):
        a = self.algebra
        es = self.idempotents
        if len(es) != a.rank:
            raise InvalidFrameError(
                f"frame needs {a.rank} idempotents, got {len(es)}"
            )
        for i, e in enumerate(es):
            if e.algebra != a:
                raise AlgebraMismatchError(f"idempotent {i} belongs to {e.algebra}, not {a}")
            sq = alg.jordan_product(e, e)
            if float(np.max(np.abs(sq.coords - e.coords))) > tol:
                raise InvalidFrameError(f"element {i} is not idempotent within {tol}")
            if abs(alg.trace(e) - 1.0) > tol:
                raise InvalidFrameError(f"idempotent {i} is not primitive (trace != 1)")
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                prod = alg.jordan_product(es[i], es[j])
                if float(np.max(np.abs(prod.coords))) > tol:
                    raise InvalidFrameError(f"idempotents {i},{j} are not orthogonal")
        total = np.sum([e.coords for e in es], axis=0)
        if float(np.max(np.abs(total - alg.unit_element(a).coords))) > tol:
            raise InvalidFrameError("idempotents do not sum to the unit")

    def __len__(self):
        return len(self.idempotents)


# ---------------------------------------------------------------------------
# eigenvalue map


def _spin_radius(xbar: np.ndarray) -> float:
    return float(np.linalg.norm(xbar))


def _eigh_desc(m: np.ndarray, vectors: bool):
    """LAPACK eigenvalues of a symmetric or Hermitian matrix, non-increasing,
    with the matching eigenvector columns when `vectors` is set (else None).

    Non-finite input never reaches LAPACK; a LAPACK failure or a non-finite
    result raises `NumericError`.
    """
    if not np.isfinite(m).all():
        raise NumericError("eigensolver input has a non-finite entry")
    try:
        if vectors:
            values, vecs = np.linalg.eigh(m)
        else:
            values, vecs = np.linalg.eigvalsh(m), None
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LAPACK eigensolver failed: {exc}") from exc
    if not (np.isfinite(values).all() and (vecs is None or np.isfinite(vecs).all())):
        raise NumericError("LAPACK eigensolver returned a non-finite result")
    if vecs is None:
        return values[::-1].copy(), None
    return values[::-1].copy(), vecs[:, ::-1].copy()


def eigen_map(x: Element) -> np.ndarray:
    """Eigenvalues of x, sorted non-increasing."""
    a = x.algebra
    if isinstance(a, RealSymmetric):
        return _eigh_desc(alg.sym_matrix(x), vectors=False)[0]
    if isinstance(a, ComplexHermitian):
        return _eigh_desc(alg.herm_matrix(x), vectors=False)[0]
    if isinstance(a, SpinFactor):
        x0, xbar = alg.spin_parts(x)
        r = _spin_radius(xbar)
        return np.array([x0 + r, x0 - r])
    pooled = np.concatenate([eigen_map(p) for p in alg.split_product(x)])
    return sort_desc(pooled)


def _decompose_simple(x: Element):
    a = x.algebra
    if isinstance(a, RealSymmetric):
        values, vecs = _eigh_desc(alg.sym_matrix(x), vectors=True)
        idems = [
            alg.element_from_sym(a, np.outer(vecs[:, i], vecs[:, i]))
            for i in range(a.n)
        ]
        return values, idems
    if isinstance(a, ComplexHermitian):
        values, vecs = _eigh_desc(alg.herm_matrix(x), vectors=True)
        idems = [
            alg.element_from_herm(a, np.outer(vecs[:, i], vecs[:, i].conj()))
            for i in range(a.n)
        ]
        return values, idems
    x0, xbar = alg.spin_parts(x)
    r = _spin_radius(xbar)
    if r > 0.0:
        u = xbar / r
    else:
        u = np.zeros(a.d - 1)
        u[0] = 1.0
    plus = alg.element_from_spin(a, 0.5, 0.5 * u)
    minus = alg.element_from_spin(a, 0.5, -0.5 * u)
    return np.array([x0 + r, x0 - r]), [plus, minus]


def spectral_decompose(x: Element) -> tuple[JordanFrame, np.ndarray]:
    """Jordan frame F and eigenvalues q (non-increasing) with x = sum(q_i * F_i)."""
    a = x.algebra
    if isinstance(a, ProductAlgebra):
        values_parts = []
        idem_parts = []
        offsets = np.cumsum([0] + [f.dim for f in a.factors])
        for i, part in enumerate(alg.split_product(x)):
            vals, idems = _decompose_simple(part)
            values_parts.append(vals)
            for e in idems:
                coords = np.zeros(a.dim)
                coords[offsets[i] : offsets[i + 1]] = e.coords
                idem_parts.append(Element(a, coords))
        values = np.concatenate(values_parts)
        order = np.argsort(-values, kind="stable")
        frame = JordanFrame(a, tuple(idem_parts[k] for k in order))
        return frame, values[order]
    values, idems = _decompose_simple(x)
    return JordanFrame(a, tuple(idems)), values


def compose_theta(q, frame: JordanFrame) -> Element:
    """sum(q_i * e_i) over the frame's listed idempotents.

    Coordinate sums are exactly rounded (math.fsum), so simultaneously
    permuting q and the idempotent list reproduces the identical element.
    """
    q = np.asarray(q, dtype=float)
    rank = frame.algebra.rank
    if q.shape != (rank,):
        raise ValueError(f"coefficient vector must have length {rank}, got shape {q.shape}")
    cols = [e.coords for e in frame.idempotents]
    out = np.empty(frame.algebra.dim)
    for k in range(out.size):
        out[k] = math.fsum(qi * col[k] for qi, col in zip(q, cols))
    return Element(frame.algebra, out)


def canonical_frame(a: Algebra) -> JordanFrame:
    """Fixed reference frame: diagonal matrix units for the matrix kinds,
    the first-axis idempotent pair for spin factors, factor frames embedded
    in factor order for products."""
    if isinstance(a, RealSymmetric):
        idems = []
        for i in range(a.n):
            m = np.zeros((a.n, a.n))
            m[i, i] = 1.0
            idems.append(alg.element_from_sym(a, m))
        return JordanFrame(a, tuple(idems))
    if isinstance(a, ComplexHermitian):
        idems = []
        for i in range(a.n):
            m = np.zeros((a.n, a.n), dtype=complex)
            m[i, i] = 1.0
            idems.append(alg.element_from_herm(a, m))
        return JordanFrame(a, tuple(idems))
    if isinstance(a, SpinFactor):
        u = np.zeros(a.d - 1)
        u[0] = 1.0
        plus = alg.element_from_spin(a, 0.5, 0.5 * u)
        minus = alg.element_from_spin(a, 0.5, -0.5 * u)
        return JordanFrame(a, (plus, minus))
    idems = []
    offsets = np.cumsum([0] + [f.dim for f in a.factors])
    for i, f in enumerate(a.factors):
        for e in canonical_frame(f).idempotents:
            coords = np.zeros(a.dim)
            coords[offsets[i] : offsets[i + 1]] = e.coords
            idems.append(Element(a, coords))
    return JordanFrame(a, tuple(idems))
