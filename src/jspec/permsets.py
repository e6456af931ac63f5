"""Permutation-invariant subsets of R^n: built-in cones, finite orbits, and
a randomized pointedness probe.

Every set is a vectorized margin function m, asked one stack of rows at a
time.  A row q is inside at slack t iff m(q) + t >= 0 (`_inside`), so a NaN
margin is outside at every site, the path audit included, and a margin of
-inf at any slack: a 0/-inf margin is a test that no slack relaxes.  A
caller's own set is a `PermSet` with its own `margin_fn`; its permutation
invariance and flag honesty (convex, cone) are the caller's contract.  A
finite set is stored as its sorted points, one per permutation orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import _scaled, _scaled_lengths
from .errors import check_float_budget

FINITE_TOL = 1e-12

__all__ = [
    "FINITE_TOL",
    "PermSet",
    "make_rearrangement_cone",
    "make_trace_norm_cone",
    "make_trace_halfspace",
    "make_finite_orbit",
    "pointed_sample_check",
]


@dataclass(frozen=True, eq=False)
class PermSet:
    """A permutation-invariant subset of R^n.

    `margin_fn` maps rows [k, n] to k margins; a row is a member iff its
    margin is >= 0.  A finite set's `points` hold one point per orbit,
    sorted non-increasing, deduplicated and in lexicographic order; every
    other set has none.
    """

    n: int
    tag: str
    margin_fn: Callable[[np.ndarray], np.ndarray]
    convex: bool = False
    cone: bool = False
    points: np.ndarray | None = None

    def _rows(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {q.shape}")
        return q.reshape(1, self.n)

    def member(self, q, slack: float = 0.0) -> bool:
        """Membership (`_inside`); positive `slack` relaxes the margin by that amount."""
        return bool(_inside(self.margin(q), slack))

    def margin(self, q) -> float:
        return float(self.margin_fn(self._rows(q))[0])

    def margin_many(self, rows: np.ndarray) -> np.ndarray:
        """Margins [k] of the rows [k, n], one call for the whole stack."""
        return self.margin_fn(np.asarray(rows, dtype=float))


def _inside(margins, slack: float = 0.0):
    """margins + slack >= 0, the one place where a margin meets a threshold:
    for a margin that is not NaN, `not margin < -slack`; NaN is outside."""
    return margins + slack >= 0.0


def _lex_unique(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a stack [k, n], in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))]


def _cone_margin(margin: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """A cone's `margin`, which holds past the largest double, with no numpy
    warning.  Where no row's margin overflows, it is `margin`'s, at its
    cost.  Else each row whose margin is inf or nan is scaled by
    `algebra._scaled`, which keeps the sign of a cone's margin, and its
    margin scaled back, to +-inf past the largest double; finite margins
    are `margin`'s, bit for bit."""

    def safe(rows: np.ndarray) -> np.ndarray:
        try:
            with np.errstate(over="raise", invalid="raise"):
                return margin(rows)
        except FloatingPointError:  # inf or nan from finite rows
            pass
        with np.errstate(over="ignore", invalid="ignore"):
            out = margin(rows)
            over = np.flatnonzero(~np.isfinite(out))
            scaled, e = _scaled(rows[over])
            out[over] = np.ldexp(margin(scaled), e[:, 0])
        return out

    return safe


def make_rearrangement_cone(n: int, m: int) -> PermSet:
    """{q : sum of the m smallest entries >= 0}; for m = 1 this is the
    coordinate-wise nonnegativity test, the preimage of the symmetric cone."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need integer n >= 2, got {n!r}")
    if not isinstance(m, int) or not 1 <= m <= n - 1:
        raise ValueError(f"need 1 <= m <= n-1, got m={m!r}")

    def margin(rows: np.ndarray) -> np.ndarray:
        # summed in decreasing-rearrangement order so the value agrees
        # exactly with the tail sum of the sorted vector
        return np.sort(rows, axis=1)[:, m - 1 :: -1].sum(axis=1)

    return PermSet(n=n, tag=f"rearr({n},{m})", margin_fn=_cone_margin(margin), convex=True, cone=True)


def make_trace_norm_cone(n: int) -> PermSet:
    """{q : tr(q) >= sqrt(n/2) * ||q||_2}, a proper cone for n >= 3."""
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"need integer n >= 3, got {n!r}")
    factor = np.sqrt(n / 2.0)

    def margin(rows: np.ndarray) -> np.ndarray:
        roots, k = _scaled_lengths(rows)  # scaled back here: past the largest double, inf
        return rows.sum(axis=1) - factor * np.ldexp(roots, k)

    return PermSet(n=n, tag=f"tracenorm({n})", margin_fn=_cone_margin(margin), convex=True, cone=True)


def make_trace_halfspace(n: int) -> PermSet:
    """{q : tr(q) >= 0}; a non-pointed closed convex cone."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"need integer n >= 1, got {n!r}")

    def margin(rows: np.ndarray) -> np.ndarray:
        return rows.sum(axis=1)

    return PermSet(n=n, tag=f"halfspace-trace({n})", margin_fn=_cone_margin(margin), convex=True, cone=True)


def make_finite_orbit(points) -> PermSet:
    """The full permutation orbit of the given points, as a finite set.

    Membership tolerance is FINITE_TOL in the max norm.  The set is stored
    as its `points`: each point sorted once, deduplicated.  A margin
    compares each sorted row with each sorted point, so its stack
    holds [rows, points, n], not [rows, orbit points, n].
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    n = pts[0].size
    if n < 1 or any(p.shape != (n,) for p in pts):
        raise ValueError("points must share one length n >= 1")
    if not all(np.isfinite(p).all() for p in pts):
        raise ValueError("points must be finite numbers")
    # one sorted point per orbit; + 0.0 makes -0.0 +0.0
    down = _lex_unique(np.sort(pts, axis=1)[:, ::-1] + 0.0)
    down.setflags(write=False)
    ascending = down[:, ::-1]

    def margin(rows: np.ndarray) -> np.ndarray:
        # FINITE_TOL minus the max-norm distance to the nearest orbit point: the
        # permutation of a point nearest a row pairs sorted entries with sorted
        # entries; a gap past the largest double is +inf
        check_float_budget(len(rows) * ascending.size, f"{len(rows)} rows against the points")
        with np.errstate(over="ignore"):
            gaps = np.abs(np.sort(rows, axis=1)[:, None, :] - ascending[None, :, :])
        return FINITE_TOL - gaps.max(axis=2).min(axis=1)

    return PermSet(
        n=n,
        tag=f"finite({len(down)} orbits)",
        margin_fn=margin,
        convex=bool(len(down) == 1 and down[0, 0] == down[0, -1]),
        cone=not down.any(),
        points=down,
    )


def pointed_sample_check(q_set: PermSet, samples: int, seed: int):
    """Randomized search for a pointedness violation q != 0 with both q and
    -q members.  Candidates mix raw Gaussians g_i with zero-sum differences
    g_i - g_i[perm_i], so lineality directions of trace-type half-spaces are
    actually hit.  One `default_rng(seed)` draws g_i and the sort keys of
    perm_i per sample, so a longer run extends a shorter one.  The stream
    is drawn in chunks that double the samples drawn so far (the first has
    64), so the scan stops at the chunk of its first witness; the draws
    are those of one call for all samples, bit for bit.  Returns the first
    witness in scan order (g_0, g_0 - g_0[perm_0], g_1, ...) or None.
    """
    if not q_set.cone:
        raise ValueError(f"{q_set.tag} is not flagged as a cone")
    if samples < 1:
        raise ValueError("need at least one sample")
    n = q_set.n
    check_float_budget(2 * samples * n, f"{samples} pointedness samples")
    rng, drawn = np.random.default_rng(int(seed)), 0
    while drawn < samples:
        count = min(max(drawn, 64), samples - drawn)
        draws = rng.standard_normal((count, 2, n))
        drawn += count
        g = draws[:, 0]
        perm = np.argsort(draws[:, 1], axis=1)
        rows = np.empty((2 * count, n))
        rows[0::2] = g
        rows[1::2] = g - np.take_along_axis(g, perm, axis=1)
        both = _inside(q_set.margin_many(rows)) & _inside(q_set.margin_many(-rows))
        nonzero = np.abs(rows).max(axis=1) > FINITE_TOL
        hits = np.flatnonzero(both & nonzero)
        if hits.size:
            return rows[hits[0]].copy()
    return None
