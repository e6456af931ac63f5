import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jspec import (
    PermSet,
    SpectralSet,
    components_finite,
    coordinate_algebra,
    make_finite_orbit,
    make_rearrangement_cone,
    make_trace_halfspace,
    make_trace_norm_cone,
    pointed_sample_check,
    sort_desc,
)
from jspec import errors
from jspec.permsets import FINITE_TOL

finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=7
)


# ---------------------------------------------------------------------------
# builders


def test_rearrangement_cone_examples():
    q32 = make_rearrangement_cone(3, 2)
    assert not q32.member([3.0, -1.0, -1.0])  # s_2 = -2
    assert q32.member([1.0, 1.0, 1.0])
    q31 = make_rearrangement_cone(3, 1)
    assert q31.member([2.0, 0.0, 1.0])
    assert not q31.member([2.0, -1e-9, 1.0])  # m=1 is coordinate nonnegativity


def test_rearrangement_cone_preconditions():
    with pytest.raises(ValueError):
        make_rearrangement_cone(1, 1)
    with pytest.raises(ValueError):
        make_rearrangement_cone(3, 0)
    with pytest.raises(ValueError):
        make_rearrangement_cone(3, 3)


@settings(max_examples=60, deadline=None)
@given(finite_vectors, st.integers(min_value=1, max_value=6))
def test_smallest_sum_matches_sorted_tail(q, m):
    # definitional identity: s_m(q) equals the sum of the last m entries of
    # the decreasing rearrangement, exactly
    q = np.array(q)
    n = q.size
    m = min(m, n - 1)
    cone = make_rearrangement_cone(n, m)
    s_m = cone.margin(q)
    assert s_m == sort_desc(q)[n - m :].sum()


def test_trace_norm_cone_examples():
    t3 = make_trace_norm_cone(3)
    assert t3.member([1.0, 1.0, 1.0])  # 3 >= sqrt(3/2)*sqrt(3)
    assert not t3.member([1.0, 0.0, 0.0])  # 1 < sqrt(3/2)
    assert t3.member([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        make_trace_norm_cone(2)


def test_finite_orbit_examples():
    q = make_finite_orbit([[1.0, 0.0, 0.0]])
    assert np.array_equal(q.points, [[1.0, 0.0, 0.0]])
    assert not q.convex and not q.cone
    shared = make_finite_orbit([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.array_equal(shared.points, [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    sym = make_finite_orbit([[1.0, 1.0]])
    assert len(sym.points) == 1
    assert sym.convex and not sym.cone
    with pytest.raises(ValueError):
        make_finite_orbit([])
    with pytest.raises(ValueError):
        make_finite_orbit([[]])  # no coordinates: no orbit to gather


def _orbit_by_tuples(points):
    """Reference: the orbit as a sorted set of permuted tuples."""
    pts = [np.asarray(p, dtype=float) for p in points]
    perms = itertools.permutations(range(pts[0].size))
    return np.array(sorted({tuple(p[list(s)]) for s in perms for p in pts}))


def _sorted_points_by_tuples(points):
    """Reference: one non-increasing tuple per orbit, as a sorted set."""
    return np.array(sorted({tuple(sorted(p, reverse=True)) for p in points}))


@pytest.mark.parametrize(
    "points",
    [
        [[1.0, 1.0, 0.0, 0.0]],
        [[2.0, -1.0, 2.0, -1.0, 0.5], [-1.0, 2.0, -1.0, 2.0, 0.5]],
        [[-0.0, 3.0, -3.0, 0.0], [0.0, 0.0, 1.5, -1.5]],
        [[-2.5, 1.0, 1.0, -2.5, 7.0, 0.0, 1.0], [4.0, -4.0, 0.0, 0.0, 0.0, 4.0, -4.0]],
    ],
    ids=["repeated", "shared-orbit", "signed-zeros", "mixed-sign"],
)
def test_finite_orbit_rows_match_the_tuple_construction(points):
    q_set = make_finite_orbit(points)
    assert np.array_equal(q_set.points, _sorted_points_by_tuples(points))
    assert not np.signbit(q_set.points[q_set.points == 0.0]).any()  # a zero is always +0.0
    # over R^n every permutation is its own component, so the representatives are the orbit
    comps = components_finite(SpectralSet(coordinate_algebra(q_set.n), q_set))
    orbit = np.array([c.representative for c in comps])
    assert np.array_equal(orbit, _orbit_by_tuples(points))
    assert not np.signbit(orbit[orbit == 0.0]).any()


def test_finite_orbit_margin_is_the_distance_to_every_orbit_point():
    # the sorted pairing gives, bit for bit, the margin against the whole orbit
    rng = np.random.default_rng(3)
    repeated = [[2.0, -1.0, 2.0, 0.5, -3.0]]
    mixed = [[1.0, 1.0, 0.0, 0.0, 0.0], [0.5, -1.0, 4.0, 2.0, 2.0]]
    for points in (repeated, mixed):
        q_set = make_finite_orbit(points)
        orbit = _orbit_by_tuples(points)
        near = rng.choice([0.0, 1e-13, -3e-12], size=(20, 5))  # inside and outside FINITE_TOL
        odd = [[np.nan, 0, 0, 0, 0], [np.inf, 0, 0, 0, 0]]
        picked = orbit[rng.integers(len(orbit), size=20)]
        rows = np.vstack([picked + near, rng.standard_normal((20, 5)), odd])
        reference = FINITE_TOL - np.abs(rows[:, None, :] - orbit[None]).max(axis=2).min(axis=1)
        assert np.array_equal(q_set.margin_many(rows), reference, equal_nan=True)


def test_finite_orbit_margin_checks_the_float_budget(monkeypatch):
    q_set = make_finite_orbit([[1.0, 0.0, 0.0], [2.0, 2.0, 1.0]])  # 2 points of 3 floats
    rows = np.zeros((10, 3))
    monkeypatch.setattr(errors, "FLOAT_BUDGET", 10 * 2 * 3)
    assert q_set.margin_many(rows).shape == (10,)
    monkeypatch.setattr(errors, "FLOAT_BUDGET", 10 * 2 * 3 - 1)
    with pytest.raises(ValueError, match="10 rows against the points"):
        q_set.margin_many(rows)


def test_finite_orbit_rejects_non_finite_points():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            make_finite_orbit([[1.0, 0.0, 0.0], [bad, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# invariance and structure probes


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_rearrangement_cone(4, 1),
        lambda: make_rearrangement_cone(4, 3),
        lambda: make_trace_norm_cone(4),
        lambda: make_trace_halfspace(4),
        lambda: make_finite_orbit([[2.0, 1.0, 0.0, 0.0]]),
    ],
)
def test_permutation_invariance(build):
    q_set = build()
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = rng.standard_normal(q_set.n) + rng.choice([0.0, 2.0])
        sigma = rng.permutation(q_set.n)
        assert q_set.member(q) == q_set.member(q[sigma])
    if q_set.points is not None:
        for p in q_set.points:
            sigma = rng.permutation(q_set.n)
            assert q_set.member(p[sigma])


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_rearrangement_cone(3, 2),
        lambda: make_trace_norm_cone(3),
        lambda: make_trace_halfspace(3),
    ],
)
def test_convexity_and_cone_probes(build):
    q_set = build()
    rng = np.random.default_rng(2)
    members = []
    while len(members) < 60:
        q = rng.standard_normal(3) * 2.0 + rng.uniform(0.0, 3.0)
        if q_set.member(q):
            members.append(q)
    for i in range(0, 60, 2):
        mid = (members[i] + members[i + 1]) / 2.0
        assert q_set.member(mid), "midpoint of members left a convex set"
    for q in members[:20]:
        for t in (0.0, 0.5, 2.0):
            assert q_set.member(t * q), "scaling a member left a cone"


# ---------------------------------------------------------------------------
# pointedness probe


def test_halfspace_witness_found_quickly():
    h = make_trace_halfspace(2)
    witness = pointed_sample_check(h, samples=1000, seed=0)
    assert witness is not None
    assert abs(witness.sum()) <= 1e-12
    assert np.abs(witness).max() > 0.0
    # both signs really are members
    assert h.member(witness) and h.member(-witness)


def test_pointed_cone_has_no_violation():
    assert pointed_sample_check(make_rearrangement_cone(4, 2), 20_000, seed=1) is None
    assert pointed_sample_check(make_trace_norm_cone(3), 20_000, seed=2) is None


def test_zero_orbit_no_violation():
    zero = make_finite_orbit([[0.0, 0.0]])
    assert zero.cone
    assert pointed_sample_check(zero, 1000, seed=3) is None


def test_pointed_check_requires_cone_flag():
    not_cone = make_finite_orbit([[1.0, 0.0]])
    with pytest.raises(ValueError):
        pointed_sample_check(not_cone, 10, seed=0)


def test_pointed_check_deterministic():
    h = make_trace_halfspace(3)
    w1 = pointed_sample_check(h, 500, seed=9)
    w2 = pointed_sample_check(h, 500, seed=9)
    assert np.array_equal(w1, w2)


def test_pointed_check_witness_independent_of_sample_count():
    # a longer run extends a shorter one, so the first witness stays first
    h = make_trace_halfspace(3)
    w = pointed_sample_check(h, 200, seed=0)
    assert w is not None
    assert np.array_equal(w, pointed_sample_check(h, 2000, seed=0))


def _zero_or_minus_inf(inside):
    """The margin 0 where `inside` holds and -inf where it does not."""
    return np.where(inside, 0.0, -np.inf)


def test_custom_predicate_support():
    ball = PermSet(
        3, "ball", lambda rows: _zero_or_minus_inf((rows**2).sum(axis=1) <= 1.0), convex=True
    )
    assert ball.member([0.1, 0.2, 0.0])
    assert not ball.member([2.0, 0.0, 0.0])
    # the margin 0 inside and -inf outside is a test that no slack relaxes
    assert ball.margin([0.0, 0.0, 0.0]) == 0.0
    assert ball.margin([2.0, 0.0, 0.0]) == -np.inf
    assert not ball.member([2.0, 0.0, 0.0], slack=1e9)


def test_custom_margin_asks_each_row_once_in_order():
    # margin_many hands the whole stack to margin_fn in one call; margin
    # hands it the one row
    seen = []

    def margin_fn(rows):
        seen.append(rows.tolist())
        return _zero_or_minus_inf(rows[:, 0] >= 0.0)

    rows = np.array([[1.0, 0.0], [-1.0, 2.0], [0.0, -3.0]])
    s = PermSet(2, "custom", margin_fn)
    assert s.margin_many(rows).tolist() == [0.0, -np.inf, 0.0]
    assert seen == [rows.tolist()]
    assert s.margin([-1.0, 2.0]) == -np.inf
    assert seen[-1] == [[-1.0, 2.0]]
    assert s.margin_many(np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_pointed_check_on_custom_cones_matches_builtins(seed):
    # the same draws, asked through 0/-inf margins, give the same witness
    for n in (2, 3, 5):
        halfspace = PermSet(
            n, "custom", lambda rows: _zero_or_minus_inf(rows.sum(axis=1) >= 0), convex=True, cone=True
        )
        w = pointed_sample_check(halfspace, 300, seed)
        ref = pointed_sample_check(make_trace_halfspace(n), 300, seed)
        assert w is not None and w.tobytes() == ref.tobytes()
        orthant = PermSet(
            n, "custom", lambda rows: _zero_or_minus_inf(rows.min(axis=1) >= 0), convex=True, cone=True
        )
        assert pointed_sample_check(orthant, 300, seed) is None
        assert pointed_sample_check(make_rearrangement_cone(n, 1), 300, seed) is None
