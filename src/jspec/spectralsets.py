"""Spectral sets: inverse images of permutation-invariant sets under the
eigenvalue map.

Provides membership, constructive connectivity witnesses (three-leg paths:
orbit leg, frame-composition leg, orbit leg), component enumeration for
finite sets, additive splitting, the exact range of a linear functional over
an eigenvalue orbit, and verification of direct-sum decomposition
certificates for cones.  Paths, component representatives and certificate
candidates are built, composed and audited as coordinate stacks, one numpy
call per stage; membership is always one `PermSet.margin_many` per stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import Element, ProductAlgebra
from .errors import (
    AlgebraMismatchError,
    InfeasiblePathError,
    MembershipError,
    UnsupportedAlgebraError,
    check_float_budget,
)
from .nnls import _nnls_rows
from .orbits import PathPolyline, _orbit_coords, _orbit_leg
from .permsets import PermSet, _lex_unique, down_member
from .spectral import (
    _compose,
    _eigenvalue_blocks,
    _eigenvalues,
    canonical_frame,
    compose_theta,
    eigen_map,
    sort_desc,
    spectral_decompose,
)

PATH_TOL = 1e-8
SPLIT_TOL = 1e-9
NNLS_RESIDUAL = 1e-6
RANK_TOL = 1e-9

__all__ = [
    "PATH_TOL",
    "NNLS_RESIDUAL",
    "SpectralSet",
    "FanInterval",
    "SpectralComponent",
    "DecompositionCertificate",
    "CertificateVerdict",
    "ss_member",
    "factor_blocks",
    "connect",
    "components_finite",
    "sum_split",
    "propose_sum_split",
    "fan_interval",
    "fan_sample",
    "certificate_check",
]


@dataclass(frozen=True, eq=False)
class SpectralSet:
    """lambda-inverse image of a permutation-invariant set over one algebra."""

    algebra: alg.Algebra
    q: PermSet

    def __post_init__(self):
        if self.algebra.rank != self.q.n:
            raise ValueError(
                f"rank {self.algebra.rank} algebra paired with a set in "
                f"R^{self.q.n}"
            )


@dataclass(frozen=True, eq=False)
class FanInterval:
    """Exact range [delta, Delta] of <c, .> over an eigenvalue orbit, with
    elements attaining each endpoint."""

    delta: float
    Delta: float
    minimizer: Element
    maximizer: Element


@dataclass(frozen=True, eq=False)
class SpectralComponent:
    representative: np.ndarray  # sorted eigenvalues (per factor for products)
    element: Element
    description: str


@dataclass(frozen=True, eq=False)
class DecompositionCertificate:
    """Claimed direct-sum decomposition of a cone into finitely generated parts."""

    parts: tuple[tuple[Element, ...], ...]

    def __post_init__(self):
        parts = tuple(tuple(p) for p in self.parts)
        if not parts or any(not p for p in parts):
            raise ValueError("certificate needs nonempty parts")
        a = parts[0][0].algebra
        for part in parts:
            for g in part:
                if g.algebra != a:
                    raise AlgebraMismatchError("generators live in different algebras")
                if alg.norm(g) == 0.0:
                    raise ValueError("certificate generators must be nonzero")
        object.__setattr__(self, "parts", parts)

    @property
    def algebra(self) -> alg.Algebra:
        return self.parts[0][0].algebra


@dataclass(frozen=True, eq=False)
class CertificateVerdict:
    accepted: bool
    failed_clause: str | None
    detail: str


# ---------------------------------------------------------------------------
# membership


def ss_member(sset: SpectralSet, x: Element, slack: float = 0.0) -> bool:
    """x belongs to the spectral set iff its eigenvalue vector belongs to Q.

    Positive `slack` relaxes the margin by that amount (used for path
    audits); black-box predicates, whose margin is 0 or -inf, are evaluated
    exactly.
    """
    if x.algebra != sset.algebra:
        raise AlgebraMismatchError(f"element of {x.algebra} tested against {sset.algebra}")
    return sset.q.member(eigen_map(x), slack=slack)


def factor_blocks(x: Element) -> np.ndarray:
    """Per-factor-sorted eigenvalue blocks in canonical factor order."""
    if not isinstance(x.algebra, ProductAlgebra):
        raise UnsupportedAlgebraError("factor blocks are defined for product algebras")
    return _eigenvalue_blocks(x.algebra, x.coords)


def _block_sorted(q: np.ndarray, a: ProductAlgebra) -> np.ndarray:
    """Each factor block of the rows q [..., rank] sorted non-increasing."""
    offs = alg._rank_offsets(a)
    blocks = [np.sort(q[..., i:j], axis=-1)[..., ::-1] for i, j in zip(offs, offs[1:])]
    return np.concatenate(blocks, axis=-1)


# ---------------------------------------------------------------------------
# connectivity witnesses


def _interpolate_vertices(vertices: list[np.ndarray], steps: int) -> np.ndarray:
    """`steps` points [steps, rank], evenly spaced in the parameter of the
    polyline through two or more vertices, from the first to the last."""
    v = np.array(vertices)
    segs = len(v) - 1
    u = np.linspace(0.0, float(segs), steps)
    idx = np.minimum(u.astype(int), segs - 1)
    frac = (u - idx)[:, None]
    return (1.0 - frac) * v[idx] + frac * v[idx + 1]


def _audit_membership(sset: SpectralSet, coords: np.ndarray, tolerance: float):
    """Audit every sample [k, dim] of a path: one stacked eigenvalue pass
    (one LAPACK call per matrix factor) and one `margin_many`."""
    lams = _eigenvalues(sset.algebra, coords)
    margins = sset.q.margin_many(lams)
    bad = np.flatnonzero(margins < -tolerance)
    if bad.size:
        k = int(bad[0])
        raise InfeasiblePathError(
            f"path sample {k} leaves the set (margin {margins[k]:.3e} "
            f"< -{tolerance:g})",
            clause="path-membership-audit",
        )


def connect(
    sset: SpectralSet,
    x: Element,
    y: Element,
    q_path=None,
    steps: int = 32,
    tolerance: float = PATH_TOL,
) -> PathPolyline:
    """Constructive path witness from x to y inside the spectral set.

    Three legs: an orbit path from x to the canonical-frame composition of
    its eigenvalues, a sweep of the canonical frame along a path of
    coefficient vectors, and an orbit path down to y.  On a simple algebra
    the coefficient path defaults to the segment between the sorted
    eigenvalue vectors (valid when Q is convex, or degenerately when the
    endpoints share eigenvalues); otherwise the caller supplies `q_path`
    vertices, which must stay in the sorted slice of Q.  On a product
    algebra the orbit legs are restricted-orbit paths, `q_path` runs through
    Q itself, its endpoints must equal the per-factor-sorted eigenvalue
    blocks of x and y, and vertices are normalized per factor block before
    use.  Every emitted sample is audited for membership at `tolerance`,
    which must be finite and nonnegative.  The path is one coordinate stack:
    x and y are diagonalized once, the sweep is one stacked composition and
    the audit one eigenvalue pass.
    """
    if x.algebra != sset.algebra or y.algebra != sset.algebra:
        raise AlgebraMismatchError("endpoints must live in the set's algebra")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be a finite nonnegative number, got {tolerance!r}")
    a = sset.algebra
    simple = a.is_simple()
    # per-factor eigenvalue blocks of x and y; pooled and sorted for membership
    start_q, end_q = _eigenvalue_blocks(a, np.stack([x.coords, y.coords]))
    for name, q in (("x", start_q), ("y", end_q)):
        if not sset.q.member(q if simple else sort_desc(q)):
            raise InfeasiblePathError(
                f"endpoint {name} is not a member of the spectral set",
                clause="endpoint-membership",
            )
    scale = max(1.0, alg.norm(x))
    if alg.distance(x, y) <= 1e-12 * scale:
        return PathPolyline(a, np.stack([x.coords, y.coords]), tolerance)

    frame = canonical_frame(a)

    if q_path is None:
        if float(np.abs(start_q - end_q).max()) <= tolerance or (simple and sset.q.convex):
            vertices = [start_q, end_q]
        elif not simple and sset.q.points is not None:
            raise InfeasiblePathError(
                "no coefficient path exists inside a finite set between "
                "distinct factor-block assignments",
                clause="no-path-in-finite-set",
            )
        elif simple:
            raise ValueError("q_path is required when Q is not flagged convex")
        else:
            raise ValueError("q_path is required in product mode")
    else:
        vertices = [np.asarray(v, dtype=float) for v in q_path]
        if len(vertices) < 2:
            raise ValueError("q_path needs at least two vertices")
        for k, v in enumerate(vertices):
            if v.shape != (a.rank,):
                raise ValueError(f"q_path vertex {k} must have length {a.rank}")
        if simple:
            for k, v in enumerate(vertices):
                if not down_member(sset.q, v):
                    raise InfeasiblePathError(
                        f"q_path vertex {k} fails the sorted-membership test",
                        clause="qpath-down-member",
                    )
        else:
            vertices = _block_sorted(np.array(vertices), a)
            for k, v in enumerate(vertices):
                if not sset.q.member(v):
                    raise InfeasiblePathError(
                        f"q_path vertex {k} is not in Q", clause="qpath-membership"
                    )
        if float(np.abs(vertices[0] - start_q).max()) > tolerance or (
            float(np.abs(vertices[-1] - end_q).max()) > tolerance
        ):
            raise InfeasiblePathError(
                "q_path endpoints do not match the endpoint eigenvalues",
                clause="qpath-endpoints",
            )

    # the coordinates, plus the audit's matrices (at most 2 * dim reals each)
    check_float_budget(3 * steps * 3 * a.dim, f"a connect path of {steps} steps per leg")
    # one composition: both reference endpoints, then the sweep after its start
    sweep = _interpolate_vertices(vertices, steps)[1:]
    composed = _compose(np.vstack([start_q, end_q, sweep]), frame)
    ref_start, ref_end = (Element(a, c) for c in composed[:2])
    ref_q = _eigenvalue_blocks(a, composed[:2])
    leg1 = _orbit_leg(x, ref_start, start_q, ref_q[0], steps)
    leg3 = _orbit_leg(ref_end, y, ref_q[1], end_q, steps)
    coords = np.concatenate([leg1, composed[2:], leg3[1:]])
    _audit_membership(sset, coords, tolerance)
    return PathPolyline(a, coords, tolerance)


# ---------------------------------------------------------------------------
# components of finite spectral sets


def components_finite(sset: SpectralSet) -> list[SpectralComponent]:
    """Arcwise connected components of the spectral set of a finite Q.

    One component per distinct split of a sorted point of Q into the factor
    blocks, each sorted: a restricted orbit, on a simple algebra (one block)
    the eigenvalue orbit of the point.  These are pairwise disjoint compact
    sets, hence separate components.  The n! / (r_1! ... r_m!) assignments
    of positions to blocks of ranks r_i, the frame and the composition are
    each budgeted before they are built.
    """
    points = sset.q.points
    if points is None:
        raise ValueError("component enumeration needs a finite set")
    a, k = sset.algebra, len(points)
    offs = alg._rank_offsets(a)
    n, sizes = a.rank, np.diff(offs).tolist()
    count = math.prod(math.comb(n - i, r) for i, r in zip(offs, sizes))
    check_float_budget(k * count * n, f"the {count} factor-block assignments of {k} points in R^{n}")
    # rows of positions, block by block: each block takes increasing positions
    # among those the earlier blocks left free
    assign, free = np.empty((1, 0), dtype=np.intp), np.arange(n)[None, :]
    for r in sizes:
        m = free.shape[1]
        picks = np.array(list(itertools.combinations(range(m), r)), dtype=np.intp)
        # the complements of the picks, row for row: complement reverses lex order
        rest = np.array(list(itertools.combinations(range(m), m - r)), dtype=np.intp)[::-1]
        assign = np.hstack([np.repeat(assign, len(picks), axis=0), free[:, picks].reshape(-1, r)])
        free = free[:, rest].reshape(len(assign), m - r)
    # a sorted point read at increasing positions keeps each block sorted
    reps = _lex_unique(points[:, assign].reshape(-1, n))
    template = "eigenvalue orbit of " if a.is_simple() else "restricted orbit with factor blocks "
    template += " | ".join("[" + ", ".join(["%.12g"] * r) + "]" for r in sizes)
    # the n x n frame and each composition stack [k, n, n], real or complex
    k = len(reps)
    check_float_budget(2 * k * a.dim, f"the composition of {k} components in dimension {a.dim}")
    return [
        SpectralComponent(representative=rep, element=Element(a, c), description=template % tuple(q))
        for rep, q, c in zip(reps, reps.tolist(), _compose(reps, canonical_frame(a)))
    ]


# ---------------------------------------------------------------------------
# additive splitting


def sum_split(
    z: Element, q1_set: PermSet, q2_set: PermSet, q1, q2
) -> tuple[Element, Element]:
    """Split z into members of two spectral sets sharing z's frame.

    The caller supplies the scalar decomposition q1 + q2 = lambda(z)
    (coordinate-wise against the sorted eigenvalues); the returned summands
    are the frame compositions of q1 and q2.
    """
    rank = z.algebra.rank
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.shape != (rank,) or q2.shape != (rank,):
        raise ValueError(f"split vectors must have length {rank}")
    if not (np.isfinite(q1).all() and np.isfinite(q2).all()):
        raise ValueError("split vectors must be finite numbers")
    lam = eigen_map(z)
    gap = float(np.abs(q1 + q2 - lam).max())
    if not gap <= SPLIT_TOL:
        raise MembershipError(
            f"q1 + q2 differs from the eigenvalues of z by {gap:.3e} > {SPLIT_TOL:g}"
        )
    if not q1_set.member(q1):
        raise MembershipError("q1 is not a member of the first set")
    if not q2_set.member(q2):
        raise MembershipError("q2 is not a member of the second set")
    frame, _ = spectral_decompose(z)
    return compose_theta(q1, frame), compose_theta(q2, frame)


def propose_sum_split(lam, q1_set: PermSet, q2_set: PermSet, seed: int = 0):
    """Search a scalar decomposition lam = q1 + q2 with q1 in Q1, q2 in Q2.

    Tries the halving and one-sided splits, then seeded coordinate-wise
    convex combinations.  Intended for convex-cone built-ins; raises
    MembershipError when nothing is found.
    """
    lam = np.asarray(lam, dtype=float)
    zero = np.zeros_like(lam)
    candidates = [(lam / 2.0, lam / 2.0), (lam, zero), (zero, lam)]
    rng = np.random.default_rng(seed)
    for _ in range(32):
        u = rng.uniform(0.0, 1.0, size=lam.size)
        candidates.append((u * lam, (1.0 - u) * lam))
    for q1, q2 in candidates:
        if q1_set.member(q1) and q2_set.member(q2):
            return q1, q2
    raise MembershipError("no admissible split found for the given sets")


# ---------------------------------------------------------------------------
# range of a linear functional over an orbit


def fan_interval(c: Element, a_el: Element) -> FanInterval:
    """Exact range endpoints of <c, .> over the eigenvalue orbit of a.

    The maximum pairs both sorted eigenvalue vectors in the same order on
    c's frame; the minimum pairs them oppositely.
    """
    if c.algebra != a_el.algebra:
        raise AlgebraMismatchError("both elements must share one algebra")
    if not c.algebra.is_simple():
        raise UnsupportedAlgebraError(
            "the closed-form endpoints are established for simple algebras"
        )
    lam_c = eigen_map(c)
    lam_a = eigen_map(a_el)
    big = float(lam_c @ lam_a)
    small = float(lam_c[::-1] @ lam_a)
    frame_c, _ = spectral_decompose(c)
    ends = _compose(np.stack([lam_a, lam_a[::-1]]), frame_c)
    maximizer, minimizer = (Element(c.algebra, v) for v in ends)
    return FanInterval(delta=small, Delta=big, minimizer=minimizer, maximizer=maximizer)


def fan_sample(c: Element, a_el: Element, count: int, seed: int) -> np.ndarray:
    """Values of <c, phi(a)> over random identity-component automorphisms."""
    if c.algebra != a_el.algebra:
        raise AlgebraMismatchError("both elements must share one algebra")
    # <c, s> = sum(w * c * s) as in `inner_product`, summed row by row so
    # each value is independent of `count`
    weighted_c = alg._inner_weights(c.algebra) * c.coords
    return (_orbit_coords(a_el, count, seed) * weighted_c).sum(axis=1)


# ---------------------------------------------------------------------------
# decomposition certificates


def _numerical_rank(rows: np.ndarray) -> int:
    if rows.size == 0:
        return 0
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv >= RANK_TOL * sv[0]))


def certificate_check(
    sset: SpectralSet,
    cert: DecompositionCertificate,
    samples: int,
    seed: int,
) -> CertificateVerdict:
    """Audit a claimed direct-sum decomposition of a cone inside `sset`.

    Accepts iff (i) the part spans are jointly independent (stacked rank
    equals the sum of per-part ranks), (ii) every generator is a member of
    `sset`, and (iii) the first `samples` members among 50 * samples
    Gaussian candidates are each reconstructed by nonnegative coefficients
    over the pooled generators within the NNLS residual threshold.  The
    generators are one stack.  Candidate i is row i of one `default_rng(seed)`
    stream, drawn in chunks that double the rows drawn so far (the first
    has `samples` rows) until `samples` members are found; each chunk is one
    eigenvalue pass and one `margin_many`.  One stacked NNLS reconstructs
    all members, and the first over the threshold is reported.
    """
    if samples < 1:
        raise ValueError("need at least one audit sample")
    a = cert.algebra
    if sset.algebra != a:
        raise AlgebraMismatchError(f"certificate over {a} audited against {sset.algebra}")
    part_rows = [
        np.array([alg.isometric_coords(g) for g in part]) for part in cert.parts
    ]
    rank_sum = sum(_numerical_rank(rows) for rows in part_rows)
    stacked = np.vstack(part_rows)
    total_rank = _numerical_rank(stacked)
    if total_rank != rank_sum:
        return CertificateVerdict(
            accepted=False,
            failed_clause="span-independence",
            detail=(
                f"stacked generator rank {total_rank} != sum of per-part "
                f"ranks {rank_sum}"
            ),
        )
    gens = [(pi, gi, g) for pi, part in enumerate(cert.parts) for gi, g in enumerate(part)]
    margins = sset.q.margin_many(_eigenvalues(a, np.array([g.coords for *_, g in gens])))
    outside = np.flatnonzero(~(margins >= 0.0))  # a nan margin is no member either
    if outside.size:
        pi, gi, _ = gens[outside[0]]
        return CertificateVerdict(
            accepted=False,
            failed_clause="generator-membership",
            detail=f"generator {gi} of part {pi} fails the membership oracle",
        )
    max_attempts = 50 * samples
    # the candidates, plus the eigenvalue pass's matrices (at most 2 * dim reals each)
    check_float_budget(3 * max_attempts * a.dim, f"{max_attempts} certificate candidates")
    rng, members, drawn = np.random.default_rng(int(seed)), np.empty((0, a.dim)), 0
    while len(members) < samples and drawn < max_attempts:
        chunk = rng.standard_normal((min(max(drawn, samples), max_attempts - drawn), a.dim))
        drawn += len(chunk)
        members = np.vstack([members, chunk[sset.q.margin_many(_eigenvalues(a, chunk)) >= 0.0]])
    # the first `samples` members' isometric coordinates, as `alg.isometric_coords` gives each
    _, residuals = _nnls_rows(stacked.T, np.sqrt(alg._inner_weights(a)) * members[:samples])
    over = np.flatnonzero(residuals > NNLS_RESIDUAL)
    if over.size:
        k = over[0]
        return CertificateVerdict(
            accepted=False,
            failed_clause="nonnegative-reconstruction",
            detail=f"sample {k} has NNLS residual {residuals[k]:.3e} > {NNLS_RESIDUAL:g}",
        )
    if len(members) < samples:
        raise ValueError(
            f"membership oracle accepted only {len(members)}/{samples} samples "
            f"within {max_attempts} attempts; cannot audit reconstruction"
        )
    return CertificateVerdict(
        accepted=True,
        failed_clause=None,
        detail=f"{samples} sampled members reconstructed; spans independent",
    )
