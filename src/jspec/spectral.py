"""Eigenvalue map, spectral decomposition into Jordan frames, and the
composition map sending (q, frame) to the element sum(q_i * e_i).

Eigenvalue vectors are plain numpy arrays sorted non-increasing.  For a
product algebra the eigenvalues of the factors are pooled and re-sorted
globally; spectral decomposition keeps each idempotent paired with its
eigenvalue through that sort.

A Jordan frame is stored as its basis (eigenvector matrix, spin axis or
factor frames) plus a listing order; idempotent elements are built only
when read.

One kernel, `_simple_spectrum`, gives the eigenvalues of a simple kind and
on request its frame basis; `eigen_map` and `spectral_decompose` run it on
each factor block (a simple algebra is one block).  Matrix kinds are
diagonalized by LAPACK through numpy (``eigvalsh``, or ``eigh`` with the
frame: their values may differ in the last bits), whose ascending output
is reversed, values and eigenvector columns together.  Degenerate eigenvalues admit many valid frames; this module
returns the one LAPACK computes, in that reversed order, and never
attempts a canonical choice.  A 1x1 matrix kind's eigenvalue is read off
its coordinate, with basis [[1]], the values LAPACK returns for it.
Spin-factor elements with vanishing vector part use the first coordinate
axis for their idempotent pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
from .errors import InvalidFrameError, NumericError

FRAME_TOL = 1e-9

__all__ = [
    "FRAME_TOL",
    "JordanFrame",
    "sort_desc",
    "eigen_map",
    "spectral_decompose",
    "compose_theta",
    "canonical_frame",
]


def sort_desc(q) -> np.ndarray:
    """Decreasing rearrangement of a real vector."""
    return np.sort(np.asarray(q, dtype=float))[::-1].copy()


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

    @cached_property
    def idempotents(self) -> tuple[Element, ...]:
        """The listed idempotents as elements, built on first use."""
        return tuple(Element(self.algebra, c) for c in _idempotent_coords(self))


def _idempotent_coords(frame: JordanFrame) -> np.ndarray:
    """Coordinates [rank, dim] of the frame's listed idempotents: the stacked
    outer products u_k u_k^* (matrix kinds), (1/2, +-u/2) (spin), or each
    factor's idempotents in its block with zeros in the others (product)."""
    a, u = frame.algebra, frame.basis
    if isinstance(a, ProductAlgebra):
        by_pos = np.zeros((a.rank, a.dim))
        for f, (_, c, r) in zip(u, alg._blocks(a)):
            by_pos[r, c] = _idempotent_coords(f)
    elif isinstance(a, SpinFactor):
        by_pos = np.column_stack([np.full(2, 0.5), np.array([[0.5], [-0.5]]) * u])
    else:
        outers = u.T[:, :, None] * u.T.conj()[:, None, :]  # u_k u_k^*, stacked over k
        by_pos = alg.coords_of(a, outers)
    return by_pos[frame.order]


# ---------------------------------------------------------------------------
# eigenvalue map


def _eigh_desc(m: np.ndarray, vectors: bool):
    """LAPACK eigenvalues of symmetric or Hermitian matrices [..., n, n],
    non-increasing along the last axis, with the matching eigenvector
    columns when `vectors` is set (else None).  A stack is one numpy call,
    which runs LAPACK on each matrix in turn: row i equals the result for
    matrix i on its own, bit for bit.

    The caller passes finite input; a LAPACK failure or a non-finite result
    anywhere in the stack raises `NumericError`.
    """
    try:
        if vectors:
            values, vecs = np.linalg.eigh(m)
        else:
            values, vecs = np.linalg.eigvalsh(m), None
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LAPACK eigensolver failed: {exc}") from exc
    if not (np.isfinite(values).all() and (vecs is None or np.isfinite(vecs).all())):
        raise NumericError("LAPACK eigensolver returned a non-finite result")
    # reverse the eigenvalue axis, never the stack axis
    if vecs is None:
        return values[..., ::-1].copy(), None
    return values[..., ::-1].copy(), vecs[..., ::-1].copy()


def _simple_spectrum(a: Algebra, coords: np.ndarray, vectors: bool):
    """Eigenvalues [..., rank], non-increasing, of the elements of the simple
    kind `a` with coordinates [..., dim], and when `vectors` is set the basis
    of each one's Jordan frame (else None): the eigenvector columns
    [..., n, n] of a matrix kind, or the unit axis [..., d - 1] of a spin
    factor, the first coordinate axis where the vector part vanishes.

    A non-finite coordinate raises `NumericError` in every kind, checked
    once before the kind is read.  A 1x1 matrix kind is its own eigenvalue
    with basis [[1]]: LAPACK returns that entry unchanged, so it is not
    called.  A spin radius is `alg._lengths` of the vector part: it neither
    overflows nor underflows, and in the normal range 2^k xbar has the
    radius 2^k |xbar| bit for bit.
    """
    if not np.isfinite(coords).all():
        raise NumericError("eigensolver input has a non-finite entry")
    if not isinstance(a, SpinFactor) and a.n > 1:
        return _eigh_desc(alg.matrix_of(a, coords), vectors)
    if isinstance(a, SpinFactor):
        x0, xbar = coords[..., :1], coords[..., 1:]
        r = alg._lengths(xbar)[..., None]
        values = np.concatenate([x0 + r, x0 - r], axis=-1)
        if not vectors:
            return values, None
        axis = np.zeros(xbar.shape)
        axis[..., 0] = 1.0
        return values, np.divide(xbar, r, out=axis, where=r > 0.0)
    # as in matrix_of, a stored -0.0 reads as +0.0 in the real kind only
    values = coords + 0.0 if isinstance(a, RealSymmetric) else coords.copy()
    return values, np.ones(coords.shape[:-1] + (1, 1)) if vectors else None


def _eigenvalue_blocks(a: Algebra, coords: np.ndarray) -> np.ndarray:
    """Eigenvalues [..., rank] of the elements of `a` with coordinates
    [..., dim]: non-increasing within each factor block, blocks in factor
    order.  Each factor is read as its slice of `coords`, without building
    an Element per factor."""
    blocks = alg._blocks(a)
    values = [_simple_spectrum(f, coords[..., c], vectors=False)[0] for f, c, _ in blocks]
    return values[0] if len(blocks) == 1 else np.concatenate(values, axis=-1)


def _eigenvalues(a: Algebra, coords: np.ndarray) -> np.ndarray:
    """Eigenvalues [..., rank], non-increasing, of the elements of `a` with
    coordinates [..., dim]; a product's factor blocks are pooled and sorted."""
    values = _eigenvalue_blocks(a, coords)
    if isinstance(a, ProductAlgebra):
        return np.sort(values)[..., ::-1].copy()
    return values


def eigen_map(x: Element) -> np.ndarray:
    """Eigenvalues of x, sorted non-increasing."""
    return _eigenvalues(x.algebra, x.coords)


def spectral_decompose(x: Element) -> tuple[JordanFrame, np.ndarray]:
    """Jordan frame F and eigenvalues q (non-increasing) with x = sum(q_i * F_i).
    A product lists its factor frames' idempotents in the stable sort of the
    pooled eigenvalues."""
    a = x.algebra
    frames, values = [], []
    for f, c, _ in alg._blocks(a):
        q, basis = _simple_spectrum(f, x.coords[c], vectors=True)
        frames.append(JordanFrame(f, basis, np.arange(f.rank)))
        values.append(q)
    if a.is_simple():
        return frames[0], values[0]
    values = np.concatenate(values)
    order = np.argsort(-values, kind="stable")
    return JordanFrame(a, tuple(frames), order), values[order]


def _compose(q: np.ndarray, frame: JordanFrame) -> np.ndarray:
    """Coordinates [k, dim] of sum(q[j, i] * e_i) over the frame's listed
    idempotents, one element per row of q [k, rank]: one stacked product
    U diag(q_j) U^* for the matrix kinds, the spin formula, or the factor
    frames' blocks side by side.  Row j equals the one-row call on q[j]."""
    a = frame.algebra
    qb = np.empty(q.shape)
    qb[:, frame.order] = q
    u = frame.basis
    if isinstance(a, (RealSymmetric, ComplexHermitian)):
        return alg.coords_of(a, (u * qb[:, None, :]) @ u.conj().T)
    if isinstance(a, SpinFactor):
        x0 = 0.5 * (qb[:, 0] + qb[:, 1])
        return np.column_stack([x0, (0.5 * (qb[:, 0] - qb[:, 1]))[:, None] * u])
    return np.concatenate([_compose(qb[:, r], f) for f, (_, _, r) in zip(u, alg._blocks(a))], axis=1)


def compose_theta(q, frame: JordanFrame) -> Element:
    """sum(q_i * e_i) over the frame's listed idempotents.

    q is scattered into basis order before composing, so simultaneously
    permuting q and the frame's `order` reproduces the identical element.
    """
    q = np.asarray(q, dtype=float)
    a = frame.algebra
    if q.shape != (a.rank,):
        raise ValueError(f"coefficient vector must have length {a.rank}, got shape {q.shape}")
    return Element(a, _compose(q[None], frame)[0])


@lru_cache(maxsize=64)
def canonical_frame(a: Algebra) -> JordanFrame:
    """Fixed reference frame: diagonal matrix units for the matrix kinds,
    the first-axis idempotent pair for spin factors, factor frames in
    factor order for products.  Built and validated once per algebra: the
    frame is immutable (its basis and order are read-only), so every call
    returns the same one."""
    if isinstance(a, ProductAlgebra):
        basis = tuple(canonical_frame(f) for f in a.factors)
    else:
        basis = np.eye(a.d - 1)[0] if isinstance(a, SpinFactor) else np.eye(a.n)
    return JordanFrame(a, basis, np.arange(a.rank))
