"""Eigenvalue map, spectral decomposition into Jordan frames, and the
composition map sending (q, frame) to the element sum(q_i * e_i).

Eigenvalue vectors are plain numpy arrays sorted non-increasing.  For a
product algebra the eigenvalues of the factors are pooled and re-sorted
globally; spectral decomposition keeps each idempotent paired with its
eigenvalue through that sort.

A Jordan frame is stored as its basis (eigenvector matrix, spin axis or
factor frames) plus a listing order; idempotent elements are built only
when read, and `JordanFrame.from_idempotents` validates given ones.

Matrix kinds are diagonalized by LAPACK through numpy (``eigvalsh`` /
``eigh``), whose ascending output is reversed, values and eigenvector
columns together.  Degenerate eigenvalues admit many valid frames; this
module returns the one LAPACK computes, in that reversed order, and never
attempts a canonical choice; `eigen_map` reads a 1x1 matrix kind's
eigenvalue off its coordinate, the value LAPACK returns for it.
Spin-factor elements with vanishing vector part use the first coordinate
axis for their idempotent pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    `basis` is an orthogonal or unitary U whose column u_k gives u_k u_k^*
    (matrix kinds), a unit axis u giving (1/2, u/2) and (1/2, -u/2) (spin),
    or the factor frames, their listed idempotents in factor order (product).
    `order[i]` is the basis position of the i-th listed idempotent.  At
    construction the basis columns must be orthonormal within FRAME_TOL,
    i.e. each e_k is idempotent with unit trace, they are pairwise
    orthogonal and sum to the unit; `order` must be a permutation.
    """

    algebra: Algebra
    basis: object
    order: np.ndarray

    def __post_init__(self):
        a = self.algebra
        if isinstance(a, ProductAlgebra):
            basis = tuple(self.basis)
            if tuple(f.algebra if isinstance(f, JordanFrame) else None for f in basis) != a.factors:
                raise InvalidFrameError(f"a frame of {a} needs one frame per factor")
        else:
            herm = isinstance(a, ComplexHermitian)
            if np.iscomplexobj(self.basis) and not herm:
                raise InvalidFrameError(f"a frame basis for {a} must be real")
            basis = np.array(self.basis, dtype=complex if herm else float)
            shape = (a.d - 1,) if isinstance(a, SpinFactor) else (a.n, a.n)
            if basis.shape != shape:
                raise InvalidFrameError(f"frame basis for {a} must have shape {shape}")
            cols = basis.reshape(shape[0], -1)
            err = float(np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max())
            if not err <= FRAME_TOL:
                raise InvalidFrameError(f"frame basis is not orthonormal within {FRAME_TOL}")
            basis.setflags(write=False)
        order = np.array(self.order)
        if order.ndim != 1 or order.dtype.kind not in "iu" or sorted(order) != list(range(a.rank)):
            raise InvalidFrameError(f"frame order must be a permutation of range({a.rank})")
        order.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "order", order)

    @classmethod
    def from_idempotents(cls, algebra: Algebra, idempotents) -> "JordanFrame":
        """Frame listing the given idempotents, which must square to themselves
        with unit trace, multiply pairwise to zero and sum to the unit, all
        within FRAME_TOL.  The basis comes from decomposing
        sum((rank - i) * e_i), whose distinct coefficients keep the listing."""
        a = algebra
        es = tuple(idempotents)
        tol = FRAME_TOL
        if len(es) != a.rank:
            raise InvalidFrameError(f"frame needs {a.rank} idempotents, got {len(es)}")
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
        weighted = np.sum([(a.rank - i) * e.coords for i, e in enumerate(es)], axis=0)
        return spectral_decompose(Element(a, weighted))[0]

    @cached_property
    def idempotents(self) -> tuple[Element, ...]:
        """The listed idempotents as elements, built on first use."""
        a = self.algebra
        u = self.basis
        if isinstance(a, ProductAlgebra):
            zeros = [alg.zero_element(f) for f in a.factors]
            by_pos = [
                alg.join_product(a, zeros[:i] + [e] + zeros[i + 1 :])
                for i, f in enumerate(u)
                for e in f.idempotents
            ]
        elif isinstance(a, SpinFactor):
            by_pos = [alg.element_from_spin(a, 0.5, s * 0.5 * u) for s in (1.0, -1.0)]
        else:
            outers = u.T[:, :, None] * u.T.conj()[:, None, :]  # u_k u_k^*, stacked over k
            by_pos = [Element(a, c) for c in alg.coords_of(a, outers)]
        return tuple(by_pos[k] for k in self.order)

    def __len__(self):
        return self.algebra.rank


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


def _eigenvalues(a: Algebra, coords: np.ndarray) -> np.ndarray:
    """Eigenvalues, non-increasing, of the element of `a` with `coords`.

    A product reads its factors as slices of `coords`, without building an
    Element per factor.  A 1x1 matrix kind is its own eigenvalue: LAPACK
    returns that entry unchanged, so it is not called.
    """
    if isinstance(a, (RealSymmetric, ComplexHermitian)):
        if a.n == 1:
            if not np.isfinite(coords[0]):
                raise NumericError("eigensolver input has a non-finite entry")
            # as in matrix_of, a stored -0.0 reads as +0.0 in the real kind only
            return coords + 0.0 if isinstance(a, RealSymmetric) else coords.copy()
        return _eigh_desc(alg.matrix_of(a, coords), vectors=False)[0]
    if isinstance(a, SpinFactor):
        x0, r = float(coords[0]), _spin_radius(coords[1:])
        return np.array([x0 + r, x0 - r])
    offs = alg._factor_offsets(a)
    return sort_desc(np.concatenate([
        _eigenvalues(f, coords[i:j]) for f, i, j in zip(a.factors, offs, offs[1:])
    ]))


def eigen_map(x: Element) -> np.ndarray:
    """Eigenvalues of x, sorted non-increasing."""
    return _eigenvalues(x.algebra, x.coords)


def spectral_decompose(x: Element) -> tuple[JordanFrame, np.ndarray]:
    """Jordan frame F and eigenvalues q (non-increasing) with x = sum(q_i * F_i)."""
    a = x.algebra
    if isinstance(a, ProductAlgebra):
        parts = [spectral_decompose(p) for p in alg.split_product(x)]
        values = np.concatenate([v for _, v in parts])
        order = np.argsort(-values, kind="stable")
        return JordanFrame(a, tuple(f for f, _ in parts), order), values[order]
    if isinstance(a, (RealSymmetric, ComplexHermitian)):
        values, basis = _eigh_desc(alg.matrix_of(a, x.coords), vectors=True)
    else:
        x0, xbar = alg.spin_parts(x)
        r = _spin_radius(xbar)
        basis = xbar / r if r > 0.0 else np.eye(a.d - 1)[0]
        values = np.array([x0 + r, x0 - r])
    return JordanFrame(a, basis, np.arange(a.rank)), values


def compose_theta(q, frame: JordanFrame) -> Element:
    """sum(q_i * e_i) over the frame's listed idempotents.

    q is scattered into basis order before composing, so simultaneously
    permuting q and the frame's `order` reproduces the identical element.
    """
    q = np.asarray(q, dtype=float)
    a = frame.algebra
    if q.shape != (a.rank,):
        raise ValueError(f"coefficient vector must have length {a.rank}, got shape {q.shape}")
    qb = np.empty(a.rank)
    qb[frame.order] = q
    u = frame.basis
    if isinstance(a, (RealSymmetric, ComplexHermitian)):
        return Element(a, alg.coords_of(a, (u * qb) @ u.conj().T))
    if isinstance(a, SpinFactor):
        return alg.element_from_spin(a, 0.5 * (qb[0] + qb[1]), (0.5 * (qb[0] - qb[1])) * u)
    blocks = np.split(qb, np.cumsum([f.rank for f in a.factors])[:-1])
    return alg.join_product(a, [compose_theta(qf, f) for qf, f in zip(blocks, u)])


def canonical_frame(a: Algebra) -> JordanFrame:
    """Fixed reference frame: diagonal matrix units for the matrix kinds,
    the first-axis idempotent pair for spin factors, factor frames in
    factor order for products."""
    if isinstance(a, ProductAlgebra):
        basis = tuple(canonical_frame(f) for f in a.factors)
    else:
        basis = np.eye(a.d - 1)[0] if isinstance(a, SpinFactor) else np.eye(a.n)
    return JordanFrame(a, basis, np.arange(a.rank))
