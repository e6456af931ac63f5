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
on request its frame basis, for a whole coordinate stack at once;
`eigen_map` and `spectral_decompose` run it on each factor block (a simple
algebra is one block), and `spectral_decompose` is the one-row case of
`_decompositions`, which decomposes a stack of elements with one call per
factor block.  Finiteness is checked once per coordinate stack, before the
first factor is read, not once per factor.  Matrix kinds are
diagonalized by LAPACK through numpy (``eigvalsh``, or ``eigh`` with the
frame: their values may differ in the last bits), whose ascending output
is reversed, values and eigenvector columns together; each matrix is
first divided by a power of two, so that the eigenvalues scale exactly
with the element (see `_eigh_desc`).  Degenerate eigenvalues admit many valid frames; this module
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


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """`np.eye(n)`, read-only, built once per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


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
            err = float(np.abs(cols.conj().T @ cols - _identity(cols.shape[1])).max())
            if not err <= FRAME_TOL:
                raise InvalidFrameError(f"frame basis is not orthonormal within {FRAME_TOL}")
            basis.setflags(write=False)
        order = np.array(self.order)
        if order.ndim != 1 or order.dtype.kind not in "iu" or sorted(order.tolist()) != list(range(a.rank)):
            raise InvalidFrameError(f"frame order must be a permutation of range({a.rank})")
        order.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "order", order)

    @cached_property
    def idempotents(self) -> tuple[Element, ...]:
        """The listed idempotents as elements, built on first use."""
        return tuple(Element(self.algebra, c) for c in _idempotent_coords(self))


def _idempotent_coords(frame: JordanFrame) -> np.ndarray:
    """Coordinates [rank, dim] of the frame's listed idempotents: u_k u_k^* read
    off the columns at each packed slot (i, j) as u[i, k] conj(u[j, k]) (matrix
    kinds), (1/2, +-u/2) (spin), or each factor's in its block, zeros elsewhere."""
    a, u = frame.algebra, frame.basis
    if isinstance(a, ProductAlgebra):
        by_pos = np.zeros((a.rank, a.dim))
        for f, (_, c, r) in zip(u, alg._blocks(a)):
            by_pos[r, c] = _idempotent_coords(f)
    elif isinstance(a, SpinFactor):
        by_pos = np.column_stack([np.full(2, 0.5), np.array([[0.5], [-0.5]]) * u])
    else:
        herm = isinstance(a, ComplexHermitian)  # a Hermitian entry is an Re and an Im column
        i, col = np.divmod(a._layout.pack, a._layout.reals // a.n)  # of the flat real view
        slots = np.take(u.T, i, axis=1) * np.take(u.T, col // 2 if herm else col, axis=1).conj()
        by_pos = np.where(col % 2 == 1, slots.imag, slots.real) if herm else slots
    return by_pos[frame.order]


# ---------------------------------------------------------------------------
# eigenvalue map


def _eigh_desc(m: np.ndarray, vectors: bool):
    """LAPACK eigenvalues of symmetric or Hermitian matrices [..., n, n],
    non-increasing along the last axis, with the matching eigenvector
    columns when `vectors` is set (else None).  A stack is one numpy call,
    which runs LAPACK on each matrix in turn: row i equals the result for
    matrix i on its own, bit for bit.

    Each matrix is first divided by the power of two 2^k that brings its
    largest |real or imaginary part| into [1, 2) (`algebra._exponents`; an
    entry's modulus may overflow where its parts do not), and its eigenvalues
    are scaled back by 2^k (`algebra._scaled_back`, which raises
    `NumericError` past the largest double).  LAPACK would rescale a matrix
    whose norm is far from 1 by a factor that is not a power of two; this
    way the eigenvalues of 2^j m are bit for bit 2^j times those of m, and
    its eigenvectors those of m, wherever the entries of both are normal.

    The caller passes finite input; through `algebra._lapack`, a LAPACK
    failure or a non-finite result anywhere in the stack raises `NumericError`.
    """
    flat = m.view(float)  # Re and Im as floats
    k = alg._exponents(flat.reshape(m.shape[:-2] + (flat.shape[-2] * flat.shape[-1],)))
    m = np.ldexp(flat, -k[..., None, None]).view(m.dtype)
    out = alg._lapack(np.linalg.eigh if vectors else np.linalg.eigvalsh, m, what="LAPACK eigensolver")
    values, vecs = out if vectors else (out, None)
    # reverse the eigenvalue axis, never the stack axis
    values = alg._scaled_back(values[..., ::-1], k[..., None], "an eigenvalue")
    return values, None if vecs is None else vecs[..., ::-1]


def _simple_spectrum(a: Algebra, coords: np.ndarray, vectors: bool):
    """Eigenvalues [..., rank], non-increasing, of the elements of the simple
    kind `a` with coordinates [..., dim], and when `vectors` is set the basis
    of each one's Jordan frame (else None): the eigenvector columns
    [..., n, n] of a matrix kind, or the unit axis [..., d - 1] of a spin
    factor, the first coordinate axis where the vector part vanishes.

    The caller checks the whole stack for finiteness first (`_check_finite`),
    once for all its factors.  A 1x1 matrix kind is its own eigenvalue with
    basis [[1]]: LAPACK returns that entry unchanged, so it is not called.
    A spin radius r is `alg._lengths` of the vector part, and x0 +- r is summed
    divided by the power of two 2^k of [x0, r], as a matrix is in `_eigh_desc`:
    it cannot overflow, an eigenvalue past the largest double raises
    `NumericError`, and every other value is the unscaled sum bit for bit.
    The axis is the vector part divided by its own power of two, then by
    that vector's length: a unit vector even where the vector part or r is
    subnormal, and bit for bit xbar / r in the normal range.
    Row i of a stack equals the call on row i alone, bit for bit, in every kind.
    """
    if not isinstance(a, SpinFactor) and a.n > 1:
        return _eigh_desc(alg.matrix_of(a, coords), vectors)
    if isinstance(a, SpinFactor):
        x0, xbar = coords[..., :1], coords[..., 1:]
        r = alg._lengths(xbar)[..., None]
        k = alg._exponents(np.concatenate([x0, r], axis=-1))[..., None]
        s0, sr = np.ldexp(x0, -k), np.ldexp(r, -k)
        values = alg._scaled_back(np.concatenate([s0 + sr, s0 - sr], axis=-1), k, "an eigenvalue")
        if not vectors:
            return values, None
        axis = np.zeros(xbar.shape)
        axis[..., 0] = 1.0
        unit = np.ldexp(xbar, -alg._exponents(xbar)[..., None])  # max |entry| in [1, 2)
        return values, np.divide(unit, alg._lengths(unit)[..., None], out=axis, where=r > 0.0)
    # as in matrix_of, a stored -0.0 reads as +0.0 in the real kind only
    values = coords + 0.0 if isinstance(a, RealSymmetric) else coords.copy()
    return values, np.ones(coords.shape[:-1] + (1, 1)) if vectors else None


def _check_finite(coords: np.ndarray):
    """`NumericError` if an entry is not finite: the one finiteness check of
    a coordinate stack, made before its factors are read."""
    if not np.isfinite(coords).all():
        raise NumericError("eigensolver input has a non-finite entry")


def _eigenvalue_blocks(a: Algebra, coords: np.ndarray) -> np.ndarray:
    """Eigenvalues [..., rank] of the elements of `a` with coordinates
    [..., dim]: non-increasing within each factor block, blocks in factor
    order.  Each factor is read as its slice of `coords`, without building
    an Element per factor."""
    _check_finite(coords)
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
    return _decompositions(x.algebra, x.coords[None])[0]


def _decompositions(a: Algebra, coords: np.ndarray) -> list[tuple[JordanFrame, np.ndarray]]:
    """`spectral_decompose` of each element of `a` with coordinates [k, dim]:
    one `_simple_spectrum` per factor block over the whole stack (one LAPACK
    `eigh` per matrix factor), whose row i equals the call on row i alone,
    bit for bit."""
    _check_finite(coords)
    blocks = alg._blocks(a)
    spectra = [_simple_spectrum(f, coords[:, c], vectors=True) for f, c, _ in blocks]
    values = spectra[0][0] if len(blocks) == 1 else np.concatenate([q for q, _ in spectra], axis=1)
    if not a.is_simple():
        order = np.argsort(-values, axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1)
    out = []
    for i in range(len(coords)):
        frames = [JordanFrame(f, basis[i], np.arange(f.rank)) for (f, _, _), (_, basis) in zip(blocks, spectra)]
        frame = frames[0] if a.is_simple() else JordanFrame(a, tuple(frames), order[i])
        out.append((frame, values[i]))
    return out


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
        q0, q1 = qb[:, 0], qb[:, 1]
        with np.errstate(over="ignore"):
            s = 0.5 * np.array([q0 + q1, q0 - q1])  # rounded once: exact on subnormal q
        if np.isinf(s).any():  # q0 +- q1 past the largest double: the halves' sum is exact
            s = np.where(np.isinf(s), 0.5 * q0 + np.array([[0.5], [-0.5]]) * q1, s)
        return np.column_stack([s[0], s[1][:, None] * u])
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
