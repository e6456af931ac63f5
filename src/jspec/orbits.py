"""Automorphism representations, frame transport, one-parameter paths in the
identity component, orbit paths and orbit sampling.

Representations per kind: an orthogonal matrix U acting as X -> U X U^T on
real symmetric matrices (identity component: det U = +1), a unitary U acting
as X -> U X U^* on Hermitian matrices (the automorphism group is connected,
so everything is in the identity component), and an orthogonal matrix R
acting on the vector part of a spin factor with the leading coordinate fixed
(identity component: det R = +1).  Every automorphism built here lies in
the identity component by construction.  A product has no representation
here: `orbit_path` moves it factor by factor, inside its restricted orbit,
and factor-permuting maps are deliberately excluded.

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
from .errors import (
    AlgebraMismatchError,
    NumericError,
    OrbitMismatchError,
    UnsupportedAlgebraError,
    check_float_budget,
)
from .spectral import JordanFrame, _decompositions, _eigenvalue_blocks

EIG_MATCH_TOL = 1e-8

__all__ = [
    "EIG_MATCH_TOL",
    "Automorphism",
    "GPath",
    "PathPolyline",
    "apply_automorphism",
    "random_g_automorphism",
    "frame_transport",
    "g_path",
    "orbit_path",
    "orbit_sample",
]


# ---------------------------------------------------------------------------
# automorphisms


@dataclass(frozen=True, eq=False)
class Automorphism:
    """Automorphism of a simple algebra with its per-kind representation.

    `matrix` holds the orthogonal/unitary representation, in the identity
    component of the automorphism group.
    """

    algebra: Algebra
    matrix: np.ndarray


def _rep_size(a: Algebra) -> int:
    if isinstance(a, (RealSymmetric, ComplexHermitian)):
        return a.n
    if isinstance(a, SpinFactor):
        return a.d - 1
    raise UnsupportedAlgebraError(
        "automorphisms are represented on simple algebras; "
        "orbit_path moves a product factor by factor"
    )


# up to max|x| < 2^(_ACT_MAX_EXP + 1) nothing in `_act` overflows: an image
# entry is at most sqrt(2) r max|x| and its symmetrizing sum twice that,
# under 2^1024 for every r <= 2^13 the float budget allows
_ACT_MAX_EXP = 1000


def _act(a: Algebra, mats: np.ndarray, x: Element) -> np.ndarray:
    """Coordinates [k, dim] of the images of x, an element of a simple kind,
    under the stacked representations mats[k, r, r]; row i equals the call
    on mats[i:i + 1], bit for bit.

    Matrix kinds: U X for the whole stack is one GEMM, [k r, r] @ X, bit for
    bit the per-matrix products; (U X) U^* is one product per matrix, as its
    right operand differs for each.  Only the lower entries are symmetrized,
    (m_ij + conj(m_ji)) / 2.0, in complex arithmetic for a Hermitian kind:
    halving Re and Im apart would flip signed zeros.  A spin factor fixes x0
    and turns the vector part, one product per matrix.  Where the moved part
    has its largest |entry| in [2^e, 2^(e + 1)), e > _ACT_MAX_EXP, the action
    is on it divided by 2^e and the images are scaled back
    (`algebra._scaled_back`: one past the largest double raises)."""
    spin = isinstance(a, SpinFactor)
    v = x.coords[1:] if spin else x.coords
    e = int(alg._exponents(v))
    if e > _ACT_MAX_EXP:
        v = np.ldexp(v, -e)
    if spin:
        images = mats @ v
    else:
        k, r, lay = len(mats), a.n, a._layout
        ux = (np.reshape(mats, (k * r, r)) @ alg.matrix_of(a, v)).reshape(k, r, r)
        m = (ux @ mats.conj().swapaxes(1, 2)).reshape(k, r * r).T
        pairs = (m[lay.lower] + m[lay.mirror].conj()) / 2.0  # [len(lower), k]
        # C order: `fan` sums each row, and a sum over a strided row rounds differently
        images = np.ascontiguousarray(np.ascontiguousarray(pairs.T).view(float)[:, lay.keep])
    if e > _ACT_MAX_EXP:
        images = alg._scaled_back(images, e, "an orbit image")
    return np.column_stack([np.full(len(mats), x.coords[0]), images]) if spin else images


def apply_automorphism(phi: Automorphism, x: Element) -> Element:
    if phi.algebra != x.algebra:
        raise AlgebraMismatchError(f"automorphism on {phi.algebra} applied to {x.algebra}")
    return Element(x.algebra, _act(x.algebra, phi.matrix[None], x)[0])


def _haar(n: int, rng, k: int, unitary: bool) -> np.ndarray:
    """k Haar draws on U(n) or SO(n), stacked (k, n, n): the Q factor of
    Gaussians M with diag(R) > 0 (Mezzadri 2007), by classical Gram-Schmidt
    run twice per column ("twice is enough", Giraud, Langou and Rozloznik
    2005) over all k draws at once.  Each norm divided out is positive, so Q
    is the same function of M as the phase-fixed QR, up to rounding.  As
    det R > 0, sign det Q = sign det M, and column 0 is flipped where it is
    negative on SO(n).  The sign is read off Q, whose det is +-1 (a triple
    product for n = 3), not off M: the triple product of a nearly singular M
    can lose its sign.  The columns are standard Gaussians, so their sums of
    squares cannot overflow or underflow and skip `algebra._lengths`, whose
    scaling would cost more than the rest of the kernel.  Draw i reads one
    contiguous chunk of the stream, so k draws equal k sequential single
    draws."""
    check_float_budget(k * n * n * (2 if unitary else 1), f"{k} Haar draws")
    if unitary:
        g = rng.standard_normal((k, 2, n, n))
        m = g[:, 0] + 1j * g[:, 1]
    else:
        m = rng.standard_normal((k, n, n))
    qt = m.transpose(2, 0, 1).copy()  # qt[j]: column j of every draw, [k, n]
    for j, v in enumerate(qt):
        for _ in range(2 if j else 0):
            v -= np.einsum("jk,jki->ki", np.einsum("jki,ki->jk", qt[:j].conj(), v), qt[:j])
        v /= np.sqrt(np.einsum("ki,ki->k", v.conj(), v).real)[:, None]
    q = qt.transpose(1, 2, 0)
    if not unitary:
        if n == 3:  # the triple product of the columns u, v, w, each [row, k]
            (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = qt.transpose(0, 2, 1)
            det = u0 * (v1 * w2 - v2 * w1) + u1 * (v2 * w0 - v0 * w2) + u2 * (v0 * w1 - v1 * w0)
        else:
            det = alg._lapack(np.linalg.det, q, what="Haar det")
        qt[0, det < 0.0] *= -1.0
    return q


def random_g_automorphism(a: Algebra, rng) -> Automorphism:
    """Random element of the identity component of a simple algebra: one
    Haar draw, taken from `rng`."""
    haar = _haar(_rep_size(a), rng, 1, isinstance(a, ComplexHermitian))
    return Automorphism(a, haar[0])


# ---------------------------------------------------------------------------
# frame transport


def _rotation_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotation in SO(k), k >= 2, mapping unit vector u to unit vector v: the
    turn with cosine u.v and sine |w| in the plane of u and w = v - (u.v) u,
    which takes u to v however close v is to +-u.  Only w exactly 0 gives
    the identity or a half-turn in a plane containing u."""
    k = u.size
    c = float(u @ v)
    w = v + u if c < 0.0 else v  # near -u, v + u keeps w's digits
    w = w - float(u @ w) * u
    s = float(alg._lengths(w))
    if s == 0.0:
        if c > 0.0:
            return np.eye(k)
        p = np.zeros(k)
        p[int(np.argmin(np.abs(u)))] = 1.0
        p = p - (u @ p) * u
        p /= alg._lengths(p)
        return np.eye(k) - 2.0 * np.outer(u, u) - 2.0 * np.outer(p, p)
    w /= s
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
        if isinstance(a, RealSymmetric) and alg._lapack(np.linalg.det, u_f @ u_e.T, what="transport det") < 0.0:
            u_f[:, 0] = -u_f[:, 0]
        return Automorphism(a, u_f @ u_e.conj().T)
    # the first listed spin idempotent is (1/2, u/2) at basis position 0
    u = e_frame.basis if e_frame.order[0] == 0 else -e_frame.basis
    v = f_frame.basis if f_frame.order[0] == 0 else -f_frame.basis
    return Automorphism(a, _rotation_between(u, v))


# ---------------------------------------------------------------------------
# paths in the identity component


def _rotate_rows(m: np.ndarray, p: int, q: int, c, s_conj_e, minus_s_e) -> None:
    """Apply the plane rotation [[c, s conj(e)], [-s e, c]] in place to rows
    m[p] and m[q], indexed along the first axis: two rows of one matrix
    [r, r] with scalar coefficients, or row p and row q of every sample of
    a rows-first stack [r, len(ts), r] with coefficient rows [len(ts), 1].
    The caller passes the products s conj(e) and -s e.  With e = -1.0 this
    is bitwise the real rotation [[c, -s], [s, c]]: negation is exact."""
    row_p, row_q = m[p], m[q]
    new_q = minus_s_e * row_p
    row_p *= c
    row_p += s_conj_e * row_q
    row_q *= c
    row_q += new_q


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
            c, s = math.cos(theta), math.sin(theta)
            _rotate_rows(m, i - 1, i, c, s * e.conjugate(), -s * e)
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
        return Automorphism(self.algebra, self.matrices([t])[0])

    def matrices(self, ts) -> np.ndarray:
        """Representation matrices at every t of `ts`, stacked [len(ts), r, r]:
        a transposed view of a stack built rows first, [r, len(ts), r], so
        that row p of every sample is one contiguous block.  The coefficient
        rows of all k rotations, cos(angle t), sin(angle t) conj(e) and
        -sin(angle t) e, are computed in one pass each, [k, len(ts), 1], and
        each rotation is replayed once over the whole vector.  Row i equals
        the replay of [ts[i]] alone, bit for bit."""
        ts = np.asarray(ts, dtype=float)
        size = _rep_size(self.algebra)
        unitary = self.phases is not None
        check_float_budget(ts.size * size * size * (2 if unitary else 1), "a path's matrix stack")
        m = np.zeros((size, ts.size, size), dtype=complex if unitary else float)
        diag = np.arange(size)
        m[diag, :, diag] = np.exp((1j * ts)[:, None] * self.phases).T if unitary else 1.0
        if self.rotations:
            ps, qs, angles, es = zip(*self.rotations)
            e = np.array(es)[:, None, None]
            ta = (ts * np.array(angles)[:, None])[..., None]  # [k, len(ts), 1]
            c, s = np.cos(ta), np.sin(ta)
            for row in reversed(list(zip(ps, qs, c, s * e.conj(), -s * e))):
                _rotate_rows(m, *row)
        return m.transpose(1, 0, 2)


def g_path(phi: Automorphism) -> GPath:
    """Factor an identity-component automorphism into a scalable path."""
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
        steps = self.coords[1:] - self.coords[:-1]
        return float(alg._lengths(steps, alg._inner_weights(self.algebra)).max())


@lru_cache(maxsize=16)
def _unit_grid(steps: int) -> np.ndarray:
    """`np.linspace(0.0, 1.0, steps)`, read-only, built once per `steps`."""
    ts = np.linspace(0.0, 1.0, steps)
    ts.flags.writeable = False
    return ts


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
    return _act(a, path.matrices(_unit_grid(steps)), x)


def orbit_path(x: Element, y: Element, steps: int) -> PathPolyline:
    """Path from x to y inside the eigenvalue orbit of x, `steps` samples of
    the frame transport's identity-component path.  A product moves factor
    by factor, so the path stays inside the restricted orbit (every factor
    keeps its own eigenvalues)."""
    if x.algebra != y.algebra:
        raise AlgebraMismatchError("endpoints live in different algebras")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    a, xy = x.algebra, np.array((x.coords, y.coords))
    product = isinstance(a, ProductAlgebra)
    qx, qy = _eigenvalue_blocks(a, xy)
    for k, (_, _, b) in enumerate(alg._blocks(a)):  # every factor before any leg
        if not np.max(np.abs(qx[b] - qy[b])) <= EIG_MATCH_TOL:
            raise OrbitMismatchError(
                f"factor {k} has mismatched eigenvalues; endpoints are in different restricted orbits"
                if product else "endpoints have different eigenvalues; they lie in different orbits"
            )
    (f_x, _), (f_y, _) = _decompositions(a, xy)  # both frames: one eigh per matrix factor
    return PathPolyline(a, _orbit_leg(x, f_x, f_y, steps), EIG_MATCH_TOL)


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
