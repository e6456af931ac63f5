"""Automorphism representations, frame transport, one-parameter paths in the
identity component, orbit sampling, and restricted orbit paths for products.

Representations per kind: an orthogonal matrix U acting as X -> U X U^T on
real symmetric matrices (identity component: det U = +1), a unitary U acting
as X -> U X U^* on Hermitian matrices (the automorphism group is connected,
so everything is in the identity component), and an orthogonal matrix R
acting on the vector part of a spin factor with the leading coordinate fixed
(identity component: det R = +1).  A product has no representation here:
`restricted_orbit_path` moves it factor by factor, and factor-permuting
maps are deliberately excluded.

Paths inside the identity component are realized by factoring the
representation into plane rotations and scaling every angle by the path
parameter, which avoids matrix logarithms entirely: any continuous path
suffices for the connectivity witnesses built on top.  One factorization
serves every kind: each rotation carries a phase e = e^(i psi), -1.0 for a
real rotation, and a unitary representation leaves diagonal phases that
scale with the path parameter too.

A path is a coordinate stack [k, dim]: an orbit leg is one `_act` over the
stacked `GPath.matrices(ts)`, a product joins its factor legs side by side,
and `PathPolyline.samples` builds Elements only when read.
"""

from __future__ import annotations

import math
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
from .errors import (
    AlgebraMismatchError,
    NotInIdentityComponentError,
    NumericError,
    OrbitMismatchError,
    UnsupportedAlgebraError,
    check_float_budget,
)
from .spectral import JordanFrame, _eigenvalue_blocks, spectral_decompose

ORTHO_TOL = 1e-10
EIG_MATCH_TOL = 1e-8

__all__ = [
    "ORTHO_TOL",
    "EIG_MATCH_TOL",
    "Automorphism",
    "GPath",
    "PathPolyline",
    "automorphism_from_matrix",
    "identity_automorphism",
    "apply_automorphism",
    "random_g_automorphism",
    "frame_transport",
    "g_path",
    "orbit_path",
    "restricted_orbit_path",
    "orbit_sample",
]


# ---------------------------------------------------------------------------
# automorphisms


@dataclass(frozen=True, eq=False)
class Automorphism:
    """Automorphism of a simple algebra with its per-kind representation.

    `matrix` holds the orthogonal/unitary representation.  `in_g` records
    membership in the identity component of the automorphism group.
    """

    algebra: Algebra
    matrix: np.ndarray
    in_g: bool


def _rep_size(a: Algebra) -> int:
    if isinstance(a, (RealSymmetric, ComplexHermitian)):
        return a.n
    if isinstance(a, SpinFactor):
        return a.d - 1
    raise UnsupportedAlgebraError(
        "automorphisms are represented on simple algebras; "
        "restricted_orbit_path moves a product factor by factor"
    )


def automorphism_from_matrix(a: Algebra, mat) -> Automorphism:
    """Validate and wrap a representation matrix.

    Real symmetric with odd n: U and -U induce the same map, so the sign is
    canonicalized to det +1, making the identity-component flag exact.
    """
    size = _rep_size(a)
    want_complex = isinstance(a, ComplexHermitian)
    mat = np.array(mat, dtype=complex if want_complex else float)
    if mat.shape != (size, size):
        raise ValueError(f"representation must be {size}x{size}, got {mat.shape}")
    gram_err = float(np.abs(mat.conj().T @ mat - np.eye(size)).max())
    if gram_err > ORTHO_TOL:
        raise ValueError(f"representation is not orthogonal/unitary (error {gram_err:.2e})")
    if want_complex:
        return Automorphism(a, mat, True)
    det = float(np.linalg.det(mat))
    if isinstance(a, RealSymmetric) and a.n % 2 == 1 and det < 0.0:
        mat = -mat
        det = -det
    return Automorphism(a, mat, det > 0.0)


def identity_automorphism(a: Algebra) -> Automorphism:
    size = _rep_size(a)
    eye = np.eye(size, dtype=complex if isinstance(a, ComplexHermitian) else float)
    return Automorphism(a, eye, True)


def _act(a: Algebra, mats: np.ndarray, x: Element) -> np.ndarray:
    """Coordinates [k, dim] of the images of x, an element of a simple kind,
    under the stacked representations mats[k, r, r]."""
    if isinstance(a, SpinFactor):
        x0, xbar = alg.spin_parts(x)
        return np.column_stack([np.full(len(mats), x0), mats @ xbar])
    m = mats @ alg.matrix_of(a, x.coords) @ mats.conj().swapaxes(1, 2)
    return alg.coords_of(a, (m + m.conj().swapaxes(1, 2)) / 2.0)


def apply_automorphism(phi: Automorphism, x: Element) -> Element:
    if phi.algebra != x.algebra:
        raise AlgebraMismatchError(f"automorphism on {phi.algebra} applied to {x.algebra}")
    return Element(x.algebra, _act(x.algebra, phi.matrix[None], x)[0])


def _haar(n: int, rng, k: int, unitary: bool) -> np.ndarray:
    """k Haar draws on U(n) or SO(n), stacked (k, n, n): QR of Gaussians with
    the phases of diag(R) moved into Q (Mezzadri 2007), and column 0 flipped
    where det < 0 on SO(n).  Draw i reads one contiguous chunk of the stream,
    so k draws equal k sequential single draws."""
    check_float_budget(k * n * n * (2 if unitary else 1), f"{k} Haar draws")
    if unitary:
        g = rng.standard_normal((k, 2, n, n))
        m = g[:, 0] + 1j * g[:, 1]
    else:
        m = rng.standard_normal((k, n, n))
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    if not unitary:
        q[np.linalg.det(q) < 0.0, :, 0] *= -1.0
    return q


def random_g_automorphism(a: Algebra, rng) -> Automorphism:
    """Random element of the identity component of a simple algebra: one
    Haar draw, taken from `rng`."""
    haar = _haar(_rep_size(a), rng, 1, isinstance(a, ComplexHermitian))
    return Automorphism(a, haar[0], True)


# ---------------------------------------------------------------------------
# frame transport


def _rotation_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotation in SO(k), k >= 2, mapping unit vector u to unit vector v."""
    k = u.size
    c = float(u @ v)
    if c >= 1.0 - 1e-14:
        return np.eye(k)
    if c <= -1.0 + 1e-14:
        # half-turn in a plane containing u
        p = np.zeros(k)
        p[int(np.argmin(np.abs(u)))] = 1.0
        p = p - (u @ p) * u
        p /= np.linalg.norm(p)
        return np.eye(k) - 2.0 * np.outer(u, u) - 2.0 * np.outer(p, p)
    w = v - c * u
    w /= np.linalg.norm(w)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    rot = np.eye(k)
    rot += (c - 1.0) * (np.outer(u, u) + np.outer(w, w))
    rot += s * (np.outer(w, u) - np.outer(u, w))
    return rot


def frame_transport(e_frame: JordanFrame, f_frame: JordanFrame) -> Automorphism:
    """Automorphism in the identity component taking each e_i to f_i.

    Matrix kinds: U_f U_e^* on the stored bases, columns in listing order.
    Real symmetric: one column sign of U_f is flipped if needed to force
    det +1 (sign flips do not change rank-one idempotents); Hermitian: any
    unitary works since the group is connected.  Spin: a rotation of the
    vector part mapping axis to axis.
    """
    a = e_frame.algebra
    if isinstance(a, ProductAlgebra):
        raise UnsupportedAlgebraError("frame transport is defined on simple algebras")
    if a != f_frame.algebra:
        raise AlgebraMismatchError("frames live in different algebras")
    if isinstance(a, (RealSymmetric, ComplexHermitian)):
        u_e = e_frame.basis[:, e_frame.order]
        u_f = f_frame.basis[:, f_frame.order]
        if isinstance(a, RealSymmetric) and np.linalg.det(u_e) * np.linalg.det(u_f) < 0.0:
            u_f[:, 0] = -u_f[:, 0]
        return Automorphism(a, u_f @ u_e.conj().T, True)
    # the first listed spin idempotent is (1/2, u/2) at basis position 0
    u = e_frame.basis if e_frame.order[0] == 0 else -e_frame.basis
    v = f_frame.basis if f_frame.order[0] == 0 else -f_frame.basis
    return Automorphism(a, _rotation_between(u, v), True)


# ---------------------------------------------------------------------------
# paths in the identity component


def _rotate_rows(m: np.ndarray, p: int, q: int, c, s, e) -> None:
    """Apply the plane rotation [[c, s conj(e)], [-s e, c]] to rows p and q
    of the matrices m [..., r, r] in place.  With e = -1.0 this is bitwise
    the real rotation [[c, -s], [s, c]]: negation is exact."""
    row_p = m[..., p, :].copy()
    m[..., p, :] = c * row_p + (s * e.conjugate()) * m[..., q, :]
    m[..., q, :] = (-s * e) * row_p + c * m[..., q, :]


def _factor_rotations(u: np.ndarray):
    """Plane-rotation factorization u = G_1 ... G_k D of an orthogonal or
    unitary u: the rotations (p, q, angle, e), triangularizing with adjacent
    rows, and the phases of D.  A unitary u leaves unit phases on D; a real
    u (every e = -1.0) leaves +/-1 entries with det +1, whose -1 entries
    pair up into half-turns appended at the end, and no phases (None)."""
    m = u.copy()
    n = m.shape[0]
    unitary = np.iscomplexobj(m)
    rots = []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            b, a_piv = m[i, j], m[i - 1, j]
            if b == 0.0:
                continue
            if not unitary:
                theta, e = math.atan2(-b, a_piv), -1.0
            elif a_piv == 0.0:
                theta, e = math.pi / 2.0, complex(1.0, 0.0)  # psi = 0
            else:
                ratio = b / a_piv
                psi = math.atan2(ratio.imag, ratio.real)
                theta, e = math.atan(abs(ratio)), complex(math.cos(psi), math.sin(psi))
            _rotate_rows(m, i - 1, i, math.cos(theta), math.sin(theta), e)
            m[i, j] = 0.0
            rots.append((i - 1, i, -theta, e))
    if unitary:
        return rots, np.angle(np.diagonal(m))
    negatives = [k for k in range(n) if m[k, k] < 0.0]
    if len(negatives) % 2 == 1:
        raise NumericError("orthogonal factorization left an odd sign count (det != +1)")
    rots += [(p, q, math.pi, -1.0) for p, q in zip(negatives[::2], negatives[1::2])]
    return rots, None


@dataclass(frozen=True, eq=False)
class GPath:
    """Continuous path t -> automorphism with sample(0) the identity and
    sample(1) the factored target; every sample stays in the identity
    component by construction (angles and phases scale with t)."""

    algebra: Algebra
    rotations: tuple  # (p, q, angle, e), e = -1.0 for a real rotation
    phases: np.ndarray | None  # diagonal phases of a unitary target, else None

    def sample(self, t: float) -> Automorphism:
        return Automorphism(self.algebra, self.matrices([t])[0], True)

    def matrices(self, ts) -> np.ndarray:
        """Representation matrices at every t of `ts`, stacked [len(ts), r, r];
        each rotation is replayed once over the whole vector."""
        ts = np.asarray(ts, dtype=float)
        size = _rep_size(self.algebra)
        unitary = self.phases is not None
        check_float_budget(ts.size * size * size * (2 if unitary else 1), "a path's matrix stack")
        if unitary:
            m = np.zeros((ts.size, size, size), dtype=complex)
            m[:, range(size), range(size)] = np.exp((1j * ts)[:, None] * self.phases)
        else:
            m = np.tile(np.eye(size), (ts.size, 1, 1))
        for p, q, angle, e in reversed(self.rotations):
            _rotate_rows(m, p, q, np.cos(ts * angle)[:, None], np.sin(ts * angle)[:, None], e)
        return m


def g_path(phi: Automorphism) -> GPath:
    """Factor an identity-component automorphism into a scalable path."""
    if not phi.in_g:
        raise NotInIdentityComponentError(
            "automorphism is outside the identity component; no path exists"
        )
    rots, phases = _factor_rotations(phi.matrix)
    return GPath(phi.algebra, tuple(rots), phases)


# ---------------------------------------------------------------------------
# polylines and orbit paths


@dataclass(frozen=True, eq=False)
class PathPolyline:
    """Discretized continuous path: the coordinates [k >= 2, dim] of its
    samples in `algebra`, kept as a read-only copy, and the membership
    tolerance it was audited against.  `samples` (the rows as elements) and
    `max_step` (the largest consecutive step in the trace-form norm) are
    computed on first use."""

    algebra: Algebra
    coords: np.ndarray
    tolerance: float

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @cached_property
    def samples(self) -> tuple[Element, ...]:
        return tuple(Element(self.algebra, c) for c in self.coords)

    @cached_property
    def max_step(self) -> float:
        # bit for bit the largest `alg.distance`: np.vecdot is the BLAS dot
        # that `distance` takes per pair, and sqrt is monotone
        d = np.diff(self.coords, axis=0)
        return math.sqrt(max(0.0, float(np.vecdot(alg._inner_weights(self.algebra) * d, d).max())))


def _orbit_leg(x: Element, f_x: JordanFrame, f_y: JordanFrame, steps: int) -> np.ndarray:
    """Coordinates [steps, dim] of the orbit path of x along the
    identity-component transport of its frame f_x onto f_y, listed idempotent
    onto listed idempotent: the path ends at x's eigenvalue blocks composed
    in f_y (within an exactly degenerate block any alignment reaches the
    same endpoint).  A product joins its factor legs side by side, taking
    the factor frames from each frame's `basis`."""
    a = x.algebra
    if isinstance(a, ProductAlgebra):
        parts = zip(alg.split_product(x), f_x.basis, f_y.basis)
        return np.concatenate([_orbit_leg(xi, fi, gi, steps) for xi, fi, gi in parts], axis=-1)
    path = g_path(frame_transport(f_x, f_y))
    return _act(a, path.matrices(np.linspace(0.0, 1.0, steps)), x)


def _orbit_polyline(x: Element, y: Element, steps: int) -> PathPolyline:
    if x.algebra != y.algebra:
        raise AlgebraMismatchError("endpoints live in different algebras")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    a = x.algebra
    product = isinstance(a, ProductAlgebra)
    qx, qy = _eigenvalue_blocks(a, np.stack([x.coords, y.coords]))
    for k, (_, _, b) in enumerate(alg._blocks(a)):  # every factor before any leg
        if not np.max(np.abs(qx[b] - qy[b])) <= EIG_MATCH_TOL:
            raise OrbitMismatchError(
                f"factor {k} has mismatched eigenvalues; endpoints are in different restricted orbits"
                if product else "endpoints have different eigenvalues; they lie in different orbits"
            )
    leg = _orbit_leg(x, spectral_decompose(x)[0], spectral_decompose(y)[0], steps)
    return PathPolyline(a, leg, EIG_MATCH_TOL)


def orbit_path(x: Element, y: Element, steps: int) -> PathPolyline:
    """Path inside the eigenvalue orbit of x from x to y (simple algebras),
    `steps` samples of the frame transport's identity-component path."""
    if isinstance(x.algebra, ProductAlgebra):
        raise UnsupportedAlgebraError("use restricted_orbit_path on product algebras")
    return _orbit_polyline(x, y, steps)


def restricted_orbit_path(x: Element, y: Element, steps: int) -> PathPolyline:
    """Factor-wise orbit path in a product algebra; stays inside the
    restricted orbit (every factor keeps its own eigenvalues)."""
    if not isinstance(x.algebra, ProductAlgebra):
        raise UnsupportedAlgebraError("restricted_orbit_path needs a product algebra")
    return _orbit_polyline(x, y, steps)


def _orbit_coords(x: Element, count: int, seed: int) -> np.ndarray:
    """Coordinates [count, dim] of the samples of `orbit_sample`."""
    a = x.algebra
    if isinstance(a, ProductAlgebra):
        raise UnsupportedAlgebraError("orbit_sample is defined on simple algebras")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(int(seed))
    return _act(a, _haar(_rep_size(a), rng, count, isinstance(a, ComplexHermitian)), x)


def orbit_sample(x: Element, count: int, seed: int) -> list[Element]:
    """`count` random images of x under identity-component automorphisms:
    sample i is the i-th of `count` `random_g_automorphism` draws from
    `default_rng(seed)`, so a longer run extends a shorter one."""
    return [Element(x.algebra, c) for c in _orbit_coords(x, count, seed)]
