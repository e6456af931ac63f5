import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jspec import (
    AlgebraMismatchError,
    ComplexHermitian,
    DecompositionCertificate,
    Element,
    InfeasiblePathError,
    MembershipError,
    NumericError,
    PermSet,
    ProductAlgebra,
    RealSymmetric,
    SpectralSet,
    SpinFactor,
    UnsupportedAlgebraError,
    add_elements,
    apply_automorphism,
    certificate_check,
    components_finite,
    connect,
    coordinate_algebra,
    distance,
    eigen_map,
    element_from_sym,
    factor_blocks,
    fan_interval,
    fan_sample,
    inner_product,
    isometric_coords,
    make_finite_orbit,
    make_rearrangement_cone,
    make_trace_halfspace,
    make_trace_norm_cone,
    norm,
    orbit_sample,
    random_element,
    random_g_automorphism,
    scale_element,
    sort_desc,
    split_product,
    spectral_decompose,
    ss_member,
    sum_split,
    trace,
    unit_element,
)
from jspec import canonical_frame, compose_theta
from jspec import orbits, spectral, spectralsets
from jspec.algebra import matrix_of
from jspec.spectral import JordanFrame, _eigenvalue_blocks
from jspec.nnls import _nnls_rows, nnls
from jspec.spectralsets import NNLS_RESIDUAL, _block_sorted, _numerical_rank

from conftest import ALL_KINDS, SIMPLE_KINDS, element_with_eigenvalues, random_frame


def psd_set(n):
    return SpectralSet(RealSymmetric(n), make_rearrangement_cone(n, 1))


def _max_at_least_half():
    """{q in R^3 : max(q) >= 1/2}, neither convex nor finite: a caller's set
    with the margin 0 inside and -inf outside."""
    return PermSet(3, "custom", lambda rows: np.where(rows.max(axis=1) >= 0.5, 0.0, -np.inf))


# ---------------------------------------------------------------------------
# membership


def test_member_psd_cone():
    s = psd_set(3)
    assert ss_member(s, element_from_sym(RealSymmetric(3), np.diag([2.0, 1.0, 0.0])))
    assert not ss_member(s, element_from_sym(RealSymmetric(3), np.diag([2.0, 1.0, -0.1])))


def test_member_trace_norm_cone():
    s = SpectralSet(RealSymmetric(3), make_trace_norm_cone(3))
    assert ss_member(s, unit_element(RealSymmetric(3)))  # 3 >= sqrt(3/2)*sqrt(3)
    assert not ss_member(s, element_from_sym(RealSymmetric(3), np.diag([1.0, 0.0, 0.0])))


def test_member_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        SpectralSet(RealSymmetric(3), make_rearrangement_cone(4, 1))


def test_membership_is_sorted_slice_membership():
    # Q is permutation invariant, so testing the eigenvalues in either order
    # is the same thing; exact agreement on random elements
    s = psd_set(3)
    for seed in range(60):
        x = random_element(RealSymmetric(3), seed)
        lam = eigen_map(x)
        assert ss_member(s, x) == s.q.member(lam[::-1])


@pytest.mark.parametrize(
    "algebra", [RealSymmetric(3), ComplexHermitian(3), SpinFactor(5)], ids=str
)
def test_orbit_closedness_and_aut_invariance(algebra):
    n = algebra.rank
    sets = [make_rearrangement_cone(n, 1), make_trace_norm_cone(n) if n >= 3 else None]
    rng = np.random.default_rng(17)
    for q_set in filter(None, sets):
        sset = SpectralSet(algebra, q_set)
        x = element_with_eigenvalues(algebra, np.linspace(n, 1, n), seed=3)
        assert ss_member(sset, x)
        for y in orbit_sample(x, 50, seed=1):
            assert ss_member(sset, y, slack=1e-10)
        for _ in range(50):
            y = apply_automorphism(random_g_automorphism(algebra, rng), x)
            assert ss_member(sset, y, slack=1e-10)


def test_convexity_transfer():
    # midpoints of members stay members when Q is convex
    s = psd_set(3)
    rng = np.random.default_rng(23)
    for trial in range(100):
        x = element_with_eigenvalues(RealSymmetric(3), rng.uniform(0, 3, 3), seed=trial)
        y = element_with_eigenvalues(RealSymmetric(3), rng.uniform(0, 3, 3), seed=trial + 999)
        mid = scale_element(0.5, add_elements(x, y))
        assert ss_member(s, mid, slack=1e-10)


# ---------------------------------------------------------------------------
# connect


def test_connect_psd_pair_audits_clean():
    s = psd_set(3)
    x = element_with_eigenvalues(RealSymmetric(3), [3.0, 1.5, 0.2], seed=1)
    y = element_with_eigenvalues(RealSymmetric(3), [2.0, 1.0, 0.1], seed=2)
    path = connect(s, x, y, steps=20)
    assert distance(path.samples[0], x) == 0.0
    assert distance(path.samples[-1], y) <= 1e-10
    for smp in path.samples:
        assert eigen_map(smp)[-1] >= -1e-8
    assert path.max_step > 0.0
    steps = [
        distance(path.samples[k], path.samples[k + 1])
        for k in range(len(path.samples) - 1)
    ]
    assert max(steps) == path.max_step


def test_connect_path_is_a_coordinate_stack():
    s = psd_set(3)
    x = element_with_eigenvalues(RealSymmetric(3), [3.0, 1.5, 0.2], seed=1)
    y = element_with_eigenvalues(RealSymmetric(3), [2.0, 1.0, 0.1], seed=2)
    path = connect(s, x, y, steps=7)
    assert path.algebra == x.algebra
    assert path.coords.shape == (3 * 7 - 2, x.algebra.dim)
    assert not path.coords.flags.writeable
    assert "samples" not in vars(path)  # the elements are built on first use
    assert all(np.array_equal(smp.coords, c) for smp, c in zip(path.samples, path.coords))
    assert path.samples is path.samples


@pytest.mark.parametrize("algebra", [RealSymmetric(3), ComplexHermitian(2), SpinFactor(4)], ids=str)
def test_connect_audit_matches_per_sample_membership(algebra):
    # a caller's margin sees each sample's eigenvalues, in sample order, as
    # eigen_map gives them
    seen = []

    def margin_fn(rows):
        seen.extend(np.array(rows))
        return np.where(rows.sum(axis=1) >= 0.0, 0.0, -np.inf)

    s = SpectralSet(algebra, PermSet(algebra.rank, "custom", margin_fn, convex=True))
    x = element_with_eigenvalues(algebra, np.linspace(2.0, 1.0, algebra.rank), seed=3)
    y = element_with_eigenvalues(algebra, np.linspace(2.0, 1.0, algebra.rank), seed=4)
    path = connect(s, x, y, steps=5)
    audited = seen[-len(path.samples):]
    assert len(audited) == 3 * 5 - 2
    for q, smp in zip(audited, path.samples):
        assert np.array_equal(q, eigen_map(smp))


@pytest.mark.parametrize(
    "algebra, qset",
    [
        (RealSymmetric(3), make_rearrangement_cone(3, 1)),
        (ComplexHermitian(3), make_trace_halfspace(3)),
        (SpinFactor(4), make_rearrangement_cone(2, 1)),
    ],
    ids=["sym3", "herm3", "spin4"],
)
def test_connect_scales_exactly_up_to_the_largest_double(algebra, qset):
    # the witness of 2^j x and 2^j y is 2^j times that of x and y, bit for
    # bit, over the range where `orbit_sample` scales so
    s = SpectralSet(algebra, qset)
    x, y = (add_elements(random_element(algebra, seed), scale_element(4.0, unit_element(algebra))) for seed in (1, 2))
    base = connect(s, x, y, steps=5).coords
    for j in [*range(-1000, 990, 19), *range(990, 1017)]:
        got = connect(s, *(Element(algebra, np.ldexp(z.coords, j)) for z in (x, y)), steps=5).coords
        assert got.tobytes() == np.ldexp(base, j).tobytes(), j


def test_connect_equal_endpoints_two_samples():
    s = psd_set(2)
    x = element_from_sym(RealSymmetric(2), np.diag([1.0, 0.5]))
    path = connect(s, x, x)
    assert len(path.samples) == 2
    assert path.max_step == 0.0


def test_connect_same_orbit_in_nonconvex_set():
    a = RealSymmetric(3)
    s = SpectralSet(a, make_finite_orbit([[1.0, 0.0, 0.0]]))
    x = element_from_sym(a, np.diag([1.0, 0.0, 0.0]))
    y = orbit_sample(x, 1, seed=8)[0]
    path = connect(s, x, y, steps=25)
    assert distance(path.samples[-1], y) <= 1e-10


def test_connect_rejects_nonmember_endpoint():
    s = psd_set(2)
    bad = element_from_sym(RealSymmetric(2), np.diag([1.0, -1.0]))
    good = element_from_sym(RealSymmetric(2), np.diag([1.0, 1.0]))
    with pytest.raises(InfeasiblePathError) as info:
        connect(s, bad, good)
    assert info.value.clause == "endpoint-membership"


def test_connect_explicit_qpath():
    a = RealSymmetric(2)
    s = psd_set(2)
    x = element_from_sym(a, np.diag([2.0, 1.0]))
    y = element_from_sym(a, np.diag([4.0, 0.5]))
    path = connect(s, x, y, q_path=[[2.0, 1.0], [3.0, 3.0], [4.0, 0.5]], steps=10)
    for smp in path.samples:
        assert eigen_map(smp)[-1] >= -1e-8


def test_connect_qpath_ends_within_tolerance_are_the_blocks():
    # q_path ends that miss the endpoint blocks by less than `tolerance` are
    # replaced by the blocks: the sweep starts where the orbit leg ends, and
    # the last sample is y
    a = RealSymmetric(2)
    s = psd_set(2)
    x = element_from_sym(a, np.diag([2.0, 1.0]))
    y = element_from_sym(a, np.diag([4.0, 0.5]))
    exact = connect(s, x, y, q_path=[[2.0, 1.0], [3.0, 3.0], [4.0, 0.5]], steps=6)
    off = connect(s, x, y, q_path=[[2.0 + 5e-9, 1.0], [3.0, 3.0], [4.0, 0.5 - 5e-9]], steps=6)
    assert np.array_equal(off.coords, exact.coords)
    assert np.abs(off.coords[-1] - y.coords).max() <= 1e-12 * norm(y)


def test_connect_qpath_vertex_outside_sorted_slice():
    # an unsorted vertex is sorted, as on a product; a vertex outside Q and a
    # wrong far endpoint are refused
    a = RealSymmetric(2)
    s = psd_set(2)
    x = element_from_sym(a, np.diag([2.0, 1.0]))
    y = element_from_sym(a, np.diag([4.0, 0.5]))
    unsorted = connect(s, x, y, q_path=[[2.0, 1.0], [1.0, 3.0], [4.0, 0.5]], steps=6)
    sorted_ = connect(s, x, y, q_path=[[2.0, 1.0], [3.0, 1.0], [4.0, 0.5]], steps=6)
    assert np.array_equal(unsorted.coords, sorted_.coords)
    with pytest.raises(InfeasiblePathError) as info:
        connect(s, x, y, q_path=[[2.0, 1.0], [-1.0, 3.0], [4.0, 0.5]])  # vertex outside Q
    assert info.value.clause == "qpath-membership"
    with pytest.raises(InfeasiblePathError) as info:
        connect(s, x, y, q_path=[[2.0, 1.0], [3.0, 1.0]])  # wrong far endpoint
    assert info.value.clause == "qpath-endpoints"


def test_connect_requires_qpath_for_nonconvex():
    # a finite Q has no path between distinct orbits; a Q neither convex nor
    # finite needs the caller's q_path
    a = RealSymmetric(3)
    x = element_from_sym(a, np.diag([1.0, 0.0, 0.0]))
    y = element_from_sym(a, np.diag([2.0, 0.0, 0.0]))
    s = SpectralSet(a, make_finite_orbit([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    with pytest.raises(InfeasiblePathError) as info:
        connect(s, x, y)
    assert info.value.clause == "no-path-in-finite-set"
    s = SpectralSet(a, _max_at_least_half())
    with pytest.raises(ValueError, match="q_path is required"):
        connect(s, x, y)
    path = connect(s, x, y, q_path=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], steps=5)
    assert distance(path.samples[-1], y) <= 1e-9


def test_connect_coordinate_vectors_infeasible():
    # distinct factor blocks in a finite set: the classic obstruction
    a = coordinate_algebra(3)
    s = SpectralSet(a, make_finite_orbit([[1.0, 0.0, 0.0]]))
    c1 = Element(a, np.array([1.0, 0.0, 0.0]))
    c2 = Element(a, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(InfeasiblePathError) as info:
        connect(s, c1, c2)
    assert info.value.clause == "no-path-in-finite-set"


def test_connect_product_mode_with_qpath():
    a = ProductAlgebra((RealSymmetric(2), RealSymmetric(1)))
    s = SpectralSet(a, make_rearrangement_cone(3, 1))
    x = Element(a, np.array([2.0, 0.0, 1.0, 3.0]))  # diag(2,1) (+) (3)
    y = Element(a, np.array([1.0, 0.0, 4.0, 0.5]))  # diag(1,4) (+) (0.5)
    q_path = [factor_blocks(x), [3.0, 2.0, 1.0], factor_blocks(y)]
    path = connect(s, x, y, q_path=q_path, steps=12)
    for smp in path.samples:
        assert eigen_map(smp)[-1] >= -1e-8
    assert distance(path.samples[-1], y) <= 1e-9


def test_connect_product_mode_requires_qpath():
    # a convex Q takes the segment between the factor blocks, as a simple
    # algebra does; a Q neither convex nor finite still needs a q_path
    a = ProductAlgebra((RealSymmetric(2), RealSymmetric(1)))
    s = SpectralSet(a, make_rearrangement_cone(3, 1))
    x = Element(a, np.array([2.0, 0.0, 1.0, 3.0]))
    y = Element(a, np.array([1.0, 0.0, 4.0, 0.5]))
    path = connect(s, x, y, steps=8)
    segment = connect(s, x, y, q_path=[factor_blocks(x), factor_blocks(y)], steps=8)
    assert np.array_equal(path.coords, segment.coords)
    assert distance(path.samples[-1], y) <= 1e-9
    s = SpectralSet(a, _max_at_least_half())
    with pytest.raises(ValueError, match="q_path is required"):
        connect(s, x, y)


def test_connect_product_same_restricted_orbit_without_qpath():
    a = ProductAlgebra((RealSymmetric(2), SpinFactor(3)))
    s = SpectralSet(a, make_rearrangement_cone(4, 1))
    x = Element(a, np.abs(random_element(a, 31).coords))
    parts = split_product(x)
    y_parts = [orbit_sample(p, 1, seed=5)[0] for p in parts]
    from jspec import join_product

    y = join_product(a, y_parts)
    if ss_member(s, x) and ss_member(s, y):
        path = connect(s, x, y, steps=10)
        assert distance(path.samples[-1], y) <= 1e-9


def _two_members(algebra):
    """Two members of the nonnegative rearrangement cone with distinct eigenvalues."""
    q = 1.0 + np.arange(algebra.rank, dtype=float)[::-1]
    return element_with_eigenvalues(algebra, q, 3), element_with_eigenvalues(algebra, 0.5 * q[::-1], 4)


@pytest.mark.parametrize("algebra", SIMPLE_KINDS, ids=str)
def test_connect_simple_algebra_is_one_factor_block(algebra):
    one, q_set = ProductAlgebra((algebra,)), make_rearrangement_cone(algebra.rank, 1)
    s, s_one = SpectralSet(algebra, q_set), SpectralSet(one, q_set)
    x, y = _two_members(algebra)
    x1, y1 = Element(one, x.coords), Element(one, y.coords)
    mid = np.linspace(3.0, 1.0, algebra.rank)
    q_path = [eigen_map(x), mid, eigen_map(y)]
    for kw in ({}, {"q_path": q_path}):
        path = connect(s, x, y, steps=7, **kw)
        path_one = connect(s_one, x1, y1, steps=7, **kw)
        assert np.array_equal(path.coords, path_one.coords)


def _eigensolver_spy(monkeypatch):
    calls = []
    real = spectral._eigh_desc

    def spy(m, vectors):
        calls.append((np.array(m), vectors))
        return real(m, vectors)

    monkeypatch.setattr(spectral, "_eigh_desc", spy)
    return calls


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_connect_diagonalizes_only_its_endpoints(algebra, monkeypatch):
    s = SpectralSet(algebra, make_rearrangement_cone(algebra.rank, 1))
    x, y = _two_members(algebra)
    product = isinstance(algebra, ProductAlgebra)
    parts = zip(split_product(x), split_product(y)) if product else [(x, y)]
    # matrix factors of size 2 or more: a 1x1 factor is its own eigenvalue,
    # with frame [[1]], and never reaches LAPACK
    blocks = [(xi.algebra, (xi.coords, yi.coords)) for xi, yi in parts
              if isinstance(xi.algebra, (RealSymmetric, ComplexHermitian)) and xi.algebra.n >= 2]
    calls = _eigensolver_spy(monkeypatch)

    def no_decompose(x):
        raise AssertionError("connect called spectral_decompose")

    monkeypatch.setattr(spectralsets, "spectral_decompose", no_decompose)
    steps = 6
    connect(s, x, y, steps=steps)
    full = [m for m, vectors in calls if vectors]
    values = [m for m, vectors in calls if not vectors]
    # one eigh per matrix factor, on the stack [x, y] of that factor bit for
    # bit, and no other: never on a reference endpoint, never on one alone
    assert len(full) == len(blocks)
    for m, (f, b) in zip(full, blocks, strict=True):
        want = np.stack([matrix_of(f, b[0]), matrix_of(f, b[1])])
        assert m.dtype == want.dtype and m.shape == want.shape and m.tobytes() == want.tobytes()
    # two eigvalsh passes per factor: the endpoints, then the audit of every sample
    passes = [2, 3 * steps - 2] * len(blocks)
    assert sorted(len(m) for m in values) == sorted(passes)


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_orbit_path_diagonalizes_its_endpoints_once(algebra, monkeypatch):
    # y has x's eigenvalues factor by factor, on other frames
    x = random_element(algebra, 3)
    product = isinstance(algebra, ProductAlgebra)
    parts = split_product(x) if product else [x]
    ys = [element_with_eigenvalues(p.algebra, eigen_map(p), 4) for p in parts]
    y = Element(algebra, np.concatenate([yi.coords for yi in ys]))
    blocks = [(p.algebra, (p.coords, yi.coords)) for p, yi in zip(parts, ys)
              if isinstance(p.algebra, (RealSymmetric, ComplexHermitian)) and p.algebra.n >= 2]
    want = orbits.orbit_path(x, y, 5).coords
    calls = _eigensolver_spy(monkeypatch)
    assert orbits.orbit_path(x, y, 5).coords.tobytes() == want.tobytes()
    # one eigh per matrix factor, on the stack [x, y] of that factor bit for bit
    full = [m for m, vectors in calls if vectors]
    assert len(full) == len(blocks)
    for m, (f, b) in zip(full, blocks, strict=True):
        want_m = np.stack([matrix_of(f, b[0]), matrix_of(f, b[1])])
        assert m.dtype == want_m.dtype and m.shape == want_m.shape and m.tobytes() == want_m.tobytes()


@pytest.mark.parametrize("outside", [-1.0, np.nan], ids=["negative", "nan"])
def test_connect_checks_the_qpath_vertices_as_one_stack(outside):
    # the second vertex leaves Q (a NaN margin is no member either); the
    # margins are taken once for the endpoints and once for all four vertices
    rows = []

    def margin(q):
        rows.append(len(q))
        return np.where(q[:, 0] == 3.0, outside, q.min(axis=1))

    s = SpectralSet(RealSymmetric(2), PermSet(2, "orthant", margin))
    x, y = (element_from_sym(RealSymmetric(2), np.diag(d)) for d in ([2.0, 1.0], [4.0, 0.5]))
    with pytest.raises(InfeasiblePathError, match="^q_path vertex 1 is not in Q$") as info:
        connect(s, x, y, q_path=[[2.0, 1.0], [3.0, 1.0], [3.5, 1.0], [4.0, 0.5]])
    assert info.value.clause == "qpath-membership"
    assert rows == [2, 4]


_FINITE_KINDS = [
    RealSymmetric(2),
    RealSymmetric(3),
    ComplexHermitian(2),
    ProductAlgebra((RealSymmetric(2), SpinFactor(3))),
]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_connect_exits_4_iff_components_separate_the_endpoints(data):
    # x and y lie on splits of points of a finite Q, each on its own random
    # frame; connect has no path exactly when components_finite puts them
    # apart, also where the splits differ by 5e-9, less than PATH_TOL
    a = data.draw(st.sampled_from(_FINITE_KINDS), label="algebra")
    n = a.rank
    points = data.draw(st.lists(st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n),
                                min_size=1, max_size=3), label="points")
    if data.draw(st.booleans(), label="near"):
        # y on the split of a point 5e-9 from x's point that x's split takes
        points.append([points[0][0] + 5e-9, *points[0][1:]])
        picks, perms = [points[0], points[-1]], [data.draw(st.permutations(range(n)))] * 2
    else:
        picks = [data.draw(st.sampled_from(points)) for _ in range(2)]
        perms = [data.draw(st.permutations(range(n))) for _ in range(2)]
    sset = SpectralSet(a, make_finite_orbit(points))
    reps = components_finite(sset).representatives
    ends, where = [], []
    for p, perm, seed in zip(picks, perms, (5, 6)):
        q = _block_sorted(np.array(p)[perm], a)
        # listed in basis order, so q's factor blocks are the element's
        frame = JordanFrame(a, random_frame(a, seed).basis, np.arange(n))
        ends.append(compose_theta(q, frame))
        gaps = np.abs(reps - _eigenvalue_blocks(a, ends[-1].coords)).max(axis=1)
        assert gaps.min() <= 1e-13
        where.append(int(gaps.argmin()))
    try:
        path = connect(sset, *ends, steps=4)
    except InfeasiblePathError as exc:
        assert exc.clause == "no-path-in-finite-set"
        assert where[0] != where[1]
    else:
        assert where[0] == where[1]
        assert len(path.coords) == (2 if np.array_equal(ends[0].coords, ends[1].coords) else 3 * 4 - 2)


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_connect_orbit_legs_meet_the_sweep(algebra):
    # the orbit leg ends at x's eigenvalue blocks composed in y's frame,
    # listed block by block, where the sweep starts: row 2 * steps - 2 is
    # the one joint, on products too, and each later row composes the next
    # point of the segment of blocks in that frame
    s = SpectralSet(algebra, make_rearrangement_cone(algebra.rank, 1))
    x, y = _two_members(algebra)
    steps = 9
    coords = connect(s, x, y, steps=steps).coords
    f_y = spectral_decompose(y)[0]
    start_q, end_q = _eigenvalue_blocks(algebra, np.stack([x.coords, y.coords]))
    scale = max(1.0, norm(x), norm(y))
    for row, u in zip(coords[2 * steps - 2:], np.linspace(0.0, 1.0, steps), strict=True):
        q = (1.0 - u) * start_q + u * end_q
        assert np.abs(row - compose_theta(q[f_y.order], f_y).coords).max() <= 1e-9 * scale


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_connect_makes_one_orbit_leg_without_the_canonical_frame(algebra, monkeypatch):
    # one g_path per factor block, onto y's frame, and no canonical frame
    calls = []
    real = orbits.g_path

    def spy(phi):
        calls.append(phi.algebra)
        return real(phi)

    def no_frame(a):
        raise AssertionError("connect built a canonical frame")

    monkeypatch.setattr(orbits, "g_path", spy)
    monkeypatch.setattr(spectralsets, "canonical_frame", no_frame)
    s = SpectralSet(algebra, make_rearrangement_cone(algebra.rank, 1))
    x, y = _two_members(algebra)
    path = connect(s, x, y, steps=6)
    factors = algebra.factors if isinstance(algebra, ProductAlgebra) else (algebra,)
    assert calls == list(factors)
    assert len(path.samples) == 3 * 6 - 2


@pytest.mark.parametrize("near", ["x", "y"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [1e-9, 1e-8, 1e-7])
def test_connect_spin_axis_near_the_canonical_axis(offset, sign, near):
    # the orbit leg turns x's spin axis onto y's; here one endpoint's axis
    # is `offset` rad from +-the other's, so the leg turns by about `offset`
    # or pi - `offset`: the path still starts at x and ends at y
    a = SpinFactor(4)
    s = SpectralSet(a, make_rearrangement_cone(2, 1))
    u = np.array([0.6, 0.0, 0.8])
    near_axis = sign * (np.cos(offset) * u + np.sin(offset) * np.array([0.0, 1.0, 0.0]))
    axes = (near_axis, u)
    x, y = (Element(a, np.concatenate(([3.0], 2.0 * v))) for v in (axes if near == "x" else axes[::-1]))
    coords = connect(s, x, y, steps=5).coords
    assert np.array_equal(coords[0], x.coords)
    assert np.abs(coords[-1] - y.coords).max() <= 1e-12 * max(1.0, norm(y))


_SCALE_SETS = {
    "rearr": lambda n: make_rearrangement_cone(n, 1),
    "tracenorm": make_trace_norm_cone,
    "halfspace-trace": make_trace_halfspace,
}


@settings(max_examples=150, deadline=None)
@given(
    algebra=st.sampled_from(ALL_KINDS),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-3.0, 3.0),
    k=st.integers(-900, 900),
)
def test_verdicts_do_not_depend_on_scale(algebra, seed, shift, k):
    # lambda(2^k x) = 2^k lambda(x) and every Q here is a cone, so the
    # eigenvalues scale, the decomposition exists and the verdicts stay put
    # at any valid magnitude (finite sets are left out: FINITE_TOL is
    # absolute by contract)
    x = add_elements(random_element(algebra, seed), scale_element(shift, unit_element(algebra)))
    scaled = Element(algebra, np.ldexp(x.coords, k))
    lam = eigen_map(x)
    top = float(np.abs(lam).max())
    assert np.abs(eigen_map(scaled) - np.ldexp(lam, k)).max() <= 1e-12 * np.ldexp(top, k)
    spectral_decompose(scaled)
    for name, make in _SCALE_SETS.items():
        if name == "tracenorm" and algebra.rank < 3:
            continue
        sset = SpectralSet(algebra, make(algebra.rank))
        if abs(sset.q.margin(lam)) > 1e-9 * top:  # off the boundary, beyond rounding
            assert ss_member(sset, scaled) == ss_member(sset, x), name


# ---------------------------------------------------------------------------
# components


def test_components_coordinate_space():
    a = coordinate_algebra(3)
    s = SpectralSet(a, make_finite_orbit([[1.0, 0.0, 0.0]]))
    comps = components_finite(s)
    assert len(comps) == 3
    reps = sorted(map(tuple, comps.representatives.tolist()))
    assert reps == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]


def test_components_simple_algebra():
    a = RealSymmetric(3)
    s = SpectralSet(a, make_finite_orbit([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    comps = components_finite(s)
    assert len(comps) == 2
    elements = [Element(a, c) for c in comps.coords]
    for x in elements:
        assert ss_member(s, x, slack=1e-10)
    lam0 = eigen_map(elements[0])
    lam1 = eigen_map(elements[1])
    assert np.abs(lam0 - lam1).max() > 0.5  # separated by the eigenvalue map


def test_components_single_orbit_connects():
    a = RealSymmetric(3)
    s = SpectralSet(a, make_finite_orbit([[1.0, 0.0, 0.0]]))
    comps = components_finite(s)
    assert len(comps) == 1
    rep = Element(a, comps.coords[0])
    x = orbit_sample(rep, 1, seed=1)[0]
    y = orbit_sample(rep, 1, seed=2)[0]
    path = connect(s, x, y, steps=15)
    assert distance(path.samples[-1], y) <= 1e-9


def test_components_mixed_product_blocks():
    a = ProductAlgebra((RealSymmetric(2), RealSymmetric(1)))
    s = SpectralSet(a, make_finite_orbit([[1.0, 0.0, 0.0]]))
    comps = components_finite(s)
    # the single eigenvalue 1 sits either in the rank-2 factor or the scalar
    assert len(comps) == 2


@pytest.mark.parametrize(
    "algebra",
    [RealSymmetric(3), ComplexHermitian(2), SpinFactor(5), ProductAlgebra((RealSymmetric(2), SpinFactor(3)))],
    ids=str,
)
def test_components_compose_like_compose_theta(algebra):
    # one stacked composition gives each representative's element exactly
    points = [np.arange(algebra.rank, dtype=float), np.r_[np.ones(algebra.rank - 1), 5.0]]
    comps = components_finite(SpectralSet(algebra, make_finite_orbit(points)))
    frame = canonical_frame(algebra)
    assert len(comps) >= 2
    for rep, coords in zip(comps.representatives, comps.coords):
        assert np.array_equal(coords, compose_theta(rep, frame).coords)
    # the stacks are the result, shared by every reader: neither is writable
    assert not comps.representatives.flags.writeable and not comps.coords.flags.writeable
    with pytest.raises(ValueError):
        comps.coords[0, 0] = 1.0


def _components_by_permutations(algebra, points):
    """Representatives and descriptions as the n! orbit gave them: every
    permutation of each sorted point, each factor block sorted, as a sorted
    set, described with `format(.12g)`."""
    sizes = [algebra.rank] if algebra.is_simple() else [f.rank for f in algebra.factors]
    offs = np.cumsum([0] + sizes)
    rows = {
        tuple(t for i, j in zip(offs, offs[1:]) for t in sorted(perm[i:j], reverse=True))
        for p in make_finite_orbit(points).points
        for perm in itertools.permutations(p.tolist())
    }
    reps = sorted(rows)

    def fmt(v):
        return "[" + ", ".join(format(float(t), ".12g") for t in v) + "]"

    if algebra.is_simple():
        return reps, [f"eigenvalue orbit of {fmt(rep)}" for rep in reps]
    return reps, [
        "restricted orbit with factor blocks "
        + " | ".join(fmt(rep[i:j]) for i, j in zip(offs, offs[1:]))
        for rep in reps
    ]


_FACTORS = st.one_of(
    st.integers(1, 4).map(RealSymmetric),
    st.integers(1, 3).map(ComplexHermitian),
    st.integers(3, 5).map(SpinFactor),
)
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1 / 3, 0.1 + 0.2, 1e-300, -7e12])


@st.composite
def _finite_components_cases(draw):
    factors = draw(st.lists(_FACTORS, min_size=1, max_size=4).filter(
        lambda fs: sum(f.rank for f in fs) <= 7))
    simple = len(factors) == 1 and draw(st.booleans())
    algebra = factors[0] if simple else ProductAlgebra(tuple(factors))
    point = st.lists(_ENTRIES, min_size=algebra.rank, max_size=algebra.rank)
    return algebra, draw(st.lists(point, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(_finite_components_cases())
@example((ProductAlgebra((RealSymmetric(3), SpinFactor(4), RealSymmetric(2))),
          [[1.0, -0.0, 2.5, 2.5, 0.0, 1 / 3, -1.0], [0.0] * 7, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]]))
def test_components_match_the_permutation_orbit(case):
    # the factor-block assignments give the representatives bit for bit, with
    # no -0.0, and the descriptions character for character
    algebra, points = case
    reps, descriptions = _components_by_permutations(algebra, points)
    comps = components_finite(SpectralSet(algebra, make_finite_orbit(points)))
    assert list(comps.descriptions) == descriptions
    assert [rep.tobytes() for rep in comps.representatives] == [np.array(r).tobytes() for r in reps]
    assert not np.signbit(comps.representatives[comps.representatives == 0]).any()


def test_components_need_finite_flag():
    s = psd_set(3)
    with pytest.raises(ValueError):
        components_finite(s)


# ---------------------------------------------------------------------------
# sum splitting


def test_sum_split_halving():
    a = RealSymmetric(2)
    z = element_from_sym(a, np.diag([3.0, 1.0]))
    r = make_rearrangement_cone(2, 1)
    p1, p2 = sum_split(z, r, r, [1.5, 0.5], [1.5, 0.5])
    expected = element_from_sym(a, np.diag([1.5, 0.5]))
    assert distance(p1, expected) <= 1e-12
    assert distance(p2, expected) <= 1e-12


def test_sum_split_zero_part():
    a = RealSymmetric(2)
    z = element_from_sym(a, np.diag([3.0, 1.0]))
    r = make_rearrangement_cone(2, 1)
    p1, p2 = sum_split(z, r, r, [3.0, 1.0], [0.0, 0.0])
    assert distance(p1, z) <= 1e-12
    assert norm(p2) == 0.0


def test_sum_split_random_psd():
    rng = np.random.default_rng(4)
    r = make_rearrangement_cone(3, 1)
    for trial in range(40):
        lam = np.sort(rng.uniform(0.0, 4.0, 3))[::-1]
        z = element_with_eigenvalues(RealSymmetric(3), lam, seed=trial)
        u = rng.uniform(0.0, 1.0, 3)
        q1, q2 = u * eigen_map(z), (1.0 - u) * eigen_map(z)
        p1, p2 = sum_split(z, r, r, q1, q2)
        assert ss_member(SpectralSet(RealSymmetric(3), r), p1, slack=1e-10)
        assert ss_member(SpectralSet(RealSymmetric(3), r), p2, slack=1e-10)
        assert distance(add_elements(p1, p2), z) <= 1e-9 * max(1.0, norm(z))


def test_sum_split_rejects_bad_decomposition():
    a = RealSymmetric(2)
    z = element_from_sym(a, np.diag([3.0, 1.0]))
    r = make_rearrangement_cone(2, 1)
    with pytest.raises(MembershipError):
        sum_split(z, r, r, [2.0, 1.0], [0.5, 0.0])  # sums to (2.5, 1.0) != (3, 1)
    with pytest.raises(MembershipError):
        sum_split(z, r, r, [4.0, 2.0], [-1.0, -1.0])  # second part not a member


# ---------------------------------------------------------------------------
# fan intervals


def test_fan_interval_s2_exact():
    a = RealSymmetric(2)
    c = element_from_sym(a, np.diag([1.0, -1.0]))
    x = element_from_sym(a, np.diag([1.0, 0.0]))
    fi = fan_interval(c, x)
    assert fi.delta == -1.0 and fi.Delta == 1.0
    assert abs(inner_product(c, fi.maximizer) - fi.Delta) <= 1e-12
    assert abs(inner_product(c, fi.minimizer) - fi.delta) <= 1e-12


def test_fan_interval_s2_brute_force_oracle():
    # independent oracle: sweep explicit rotations; tr(C R A R^T) must fill
    # out [-1, 1] with the endpoints attained
    a = RealSymmetric(2)
    cm = np.diag([1.0, -1.0])
    am = np.diag([1.0, 0.0])
    values = []
    for theta in np.linspace(0.0, np.pi, 721):
        r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        values.append(np.trace(cm @ r @ am @ r.T))
    values = np.array(values)
    assert values.min() >= -1.0 - 1e-12 and values.max() <= 1.0 + 1e-12
    assert values.min() <= -1.0 + 1e-4 and values.max() >= 1.0 - 1e-4


def test_fan_unit_direction_is_trace():
    a = ComplexHermitian(3)
    c = unit_element(a)
    x = random_element(a, 12)
    fi = fan_interval(c, x)
    assert fi.delta == pytest.approx(fi.Delta, abs=1e-12)
    assert fi.Delta == pytest.approx(trace(x), abs=1e-10)
    vals = fan_sample(c, x, 100, seed=0)
    assert np.abs(vals - trace(x)).max() <= 1e-10


def test_fan_self_pairing_dominates():
    x = random_element(RealSymmetric(3), 3)
    fi = fan_interval(x, x)
    lam = eigen_map(x)
    assert fi.Delta == pytest.approx(float(lam @ lam), abs=1e-10)
    assert fi.delta <= fi.Delta


@pytest.mark.parametrize("algebra", [RealSymmetric(3), ComplexHermitian(3), SpinFactor(5)], ids=str)
def test_fan_samples_inside_interval(algebra):
    for seed in range(8):
        c = random_element(algebra, seed)
        x = random_element(algebra, seed + 100)
        fi = fan_interval(c, x)
        vals = fan_sample(c, x, 300, seed=seed)
        assert vals.min() >= fi.delta - 1e-9
        assert vals.max() <= fi.Delta + 1e-9
        assert abs(inner_product(c, fi.maximizer) - fi.Delta) <= 1e-9
        assert abs(inner_product(c, fi.minimizer) - fi.delta) <= 1e-9


def test_fan_sample_prefix():
    a = ComplexHermitian(3)
    c, x = random_element(a, 1), random_element(a, 2)
    assert np.array_equal(fan_sample(c, x, 50, seed=4), fan_sample(c, x, 120, seed=4)[:50])


@pytest.mark.parametrize("algebra", SIMPLE_KINDS, ids=str)
def test_fan_sample_matches_inner_products(algebra):
    c, x = random_element(algebra, 1, scale=3.0), random_element(algebra, 2)
    values = fan_sample(c, x, 40, seed=6)
    expected = np.array([inner_product(c, s) for s in orbit_sample(x, 40, seed=6)])
    assert values.shape == (40,)
    assert np.abs(values - expected).max() <= 1e-12 * max(1.0, norm(c) * norm(x))
    assert fan_sample(c, x, 0, seed=6).shape == (0,)


def test_fan_zero_element():
    a = RealSymmetric(3)
    c = random_element(a, 1)
    zero = element_from_sym(a, np.zeros((3, 3)))
    fi = fan_interval(c, zero)
    assert fi.delta == 0.0 and fi.Delta == 0.0
    assert np.abs(fan_sample(c, zero, 50, seed=1)).max() == 0.0


def test_fan_rejects_mismatch_and_products():
    with pytest.raises(AlgebraMismatchError):
        fan_interval(random_element(RealSymmetric(2), 0), random_element(RealSymmetric(3), 0))
    a = coordinate_algebra(2)
    with pytest.raises(UnsupportedAlgebraError):
        fan_interval(random_element(a, 0), random_element(a, 1))
    # fan_sample too: its samples are defined on simple algebras only
    with pytest.raises(AlgebraMismatchError):
        fan_sample(random_element(RealSymmetric(2), 0), random_element(RealSymmetric(3), 0), 5, 0)
    with pytest.raises(UnsupportedAlgebraError):
        fan_sample(random_element(a, 0), random_element(a, 1), 5, 0)


def test_fan_interval_draws_no_samples(monkeypatch):
    c, x = random_element(RealSymmetric(3), 1), random_element(RealSymmetric(3), 2)
    want = fan_interval(c, x)

    def refuse(*args, **kwargs):
        raise AssertionError("fan_interval built a random generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    got = fan_interval(c, x)
    assert (got.delta, got.Delta) == (want.delta, want.Delta)
    for end in ("minimizer", "maximizer"):
        assert getattr(got, end).coords.tobytes() == getattr(want, end).coords.tobytes()


# ---------------------------------------------------------------------------
# nnls and certificates


def test_nnls_matches_reference_solver():
    rng = np.random.default_rng(9)
    for _ in range(20):
        gmat = rng.standard_normal((8, 5))
        b = rng.standard_normal(8)
        w, res = nnls(gmat, b)
        w_ref, res_ref = scipy.optimize.nnls(gmat, b)
        assert res == pytest.approx(res_ref, abs=1e-6)
        assert np.all(w >= 0.0)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_nnls_nearly_parallel_generators(eps):
    # projected gradient stopped at residuals 5.8e-3, 7.5e-4 and 7.5e-5 here
    gmat = np.array([[1.0, 1.0, 0.0], [0.0, eps, 0.0], [0.0, 0.0, 1.0]])
    w, res = nnls(gmat, gmat @ np.array([0.5, 2.0, 1.0]))
    assert res <= 1e-6
    assert np.all(w >= 0.0)


@st.composite
def nnls_problems(draw):
    """Small integer generators, p > m included, and a few float right-hand sides."""
    m, p, k = draw(st.integers(1, 5)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(-3, 3), min_size=m * p, max_size=m * p))
    values = st.floats(-4.0, 4.0, allow_nan=False)
    rhs = draw(st.lists(values, min_size=k * m, max_size=k * m))
    return np.array(entries, dtype=float).reshape(m, p), np.array(rhs).reshape(k, m)


@settings(max_examples=200, deadline=None)
@given(nnls_problems())
@example(  # more generators than coordinates, a repeated direction, a zero column
    (
        np.array([[1.0, 0.0, 1.0, 1.0, 2.0, 0.0], [0.0, 1.0, 1.0, -1.0, 0.0, 0.0]]),
        np.array([[3.0, 1.0], [1.0, -2.0], [-1.0, -1.0], [0.0, 0.0]]),
    )
)
@example(  # scipy 1.17.1 stops at w with |G w - b| = 4.35 and reports 0.84; the optimum is 1.34
    (
        np.array([[2.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [-1.0, 3.0, 2.0], [3.0, -1.0, 0.0], [2.0, 2.0, 0.0]]),
        np.array([[0.0, -1.375, 0.0, 0.0, 0.0]]),
    )
)
def test_nnls_matches_reference_and_its_rows(problem):
    # the reference can stop short of the optimum and report an rnorm its w
    # does not have, so jspec's residual is held to the true residual of that
    # w; jspec's w is feasible and its residual its own, so wherever the
    # reference is optimal this is the two-sided check
    gmat, rhs = problem
    w, residuals, k_row, k_col = _nnls_rows(gmat, rhs)
    w = np.ldexp(w, k_row[:, None] - k_col)
    assert np.all(w >= 0.0)
    for row, b in enumerate(rhs):
        w_row, res_row = nnls(gmat, b)
        assert np.abs(w_row - w[row]).max() <= 1e-12
        assert abs(res_row - residuals[row]) <= 1e-12
        assert abs(residuals[row] - np.linalg.norm(gmat @ w_row - b)) <= 1e-9
        # KKT: the negative gradient G^T (b - G w) is <= 0 off the support and 0 on it
        grad = gmat.T @ (b - gmat @ w_row)
        scale = 1.0 + np.abs(gmat).max() * (np.abs(b).max() + np.abs(gmat).max() * w_row.sum())
        assert np.where(w_row > 0.0, np.abs(grad), grad).max() <= 1e-9 * scale
        try:
            w_ref, _ = scipy.optimize.nnls(gmat, b)
        except RuntimeError:  # the reference's own iteration cap
            continue
        assert residuals[row] <= np.linalg.norm(gmat @ w_ref - b) + 1e-9


def test_nnls_coefficient_past_the_largest_double_raises():
    # the coefficients 4e308 solve the problem exactly but are no doubles
    with pytest.raises(NumericError, match="past the largest double"):
        nnls(1e-308 * np.eye(3), [4.0, 4.0, 4.0])


def test_nnls_coefficients_near_the_largest_double_are_scaled_back_once():
    # w = [6.5e293, 6.5e293] is finite, but w times the row scale 2^1023
    # alone is not: the coefficients go back by 2^(k_row - k_col) in one step
    w, residual = nnls(2.0**60 * np.array([[1.0, -1.0], [1e-4, 1e-4]]), [0.0, 1.5e308])
    assert np.allclose(w, 1.5e308 / (2.0**61 * 1e-4), rtol=1e-12, atol=0.0)
    assert residual <= 1e-6 * 1.5e308


def test_certificate_generators_are_one_stack(monkeypatch):
    # parts of 1, 2 and 2 generators: the isometric rows, the per-part ranks
    # and the memberships all come from one coordinate stack, and a failing
    # generator is named by its part and its place in it
    a = coordinate_algebra(3)
    e = np.eye(3)

    def refuse(*args, **kwargs):
        raise AssertionError("a generator was read on its own")

    monkeypatch.setattr(spectralsets.alg, "isometric_coords", refuse)
    s = SpectralSet(a, make_rearrangement_cone(3, 1))
    for rows, verdict in [
        ([[e[0]], [e[1], 2 * e[1]], [e[2], 3 * e[2]]], (True, None, "3 sampled members reconstructed; spans independent")),
        ([[e[0]], [e[1], e[0] + e[1]], [e[2]]], (False, "span-independence", "stacked generator rank 3 != sum of per-part ranks 4")),
        ([[e[0]], [e[1], 2 * e[1]], [e[2], -e[2]]], (False, "generator-membership", "generator 1 of part 2 fails the membership oracle")),
        ([[e[0]], [e[1], -e[1]], [e[2], -e[2]]], (False, "generator-membership", "generator 1 of part 1 fails the membership oracle")),
    ]:
        cert = DecompositionCertificate(tuple(tuple(Element(a, g) for g in part) for part in rows))
        v = certificate_check(s, cert, 3, 0)
        assert (v.accepted, v.failed_clause, v.detail) == verdict


def test_certificate_orthant_accepted():
    a = coordinate_algebra(3)
    s = SpectralSet(a, make_rearrangement_cone(3, 1))
    rays = [Element(a, np.eye(3)[i]) for i in range(3)]
    cert = DecompositionCertificate(tuple((r,) for r in rays))
    verdict = certificate_check(s, cert, samples=30, seed=0)
    assert verdict.accepted


@pytest.mark.parametrize("size", [1e-308, 1e-310, 1e-320, 1.5e-323])
def test_certificate_of_tiny_orthant_rays_accepted(size):
    # the audit reads only residuals, so it never forms the coefficients of
    # tiny generators, which pass the largest double
    a = coordinate_algebra(3)
    s = SpectralSet(a, make_rearrangement_cone(3, 1))
    rays = [Element(a, size * np.eye(3)[i]) for i in range(3)]
    cert = DecompositionCertificate(tuple((r,) for r in rays))
    assert certificate_check(s, cert, samples=30, seed=0).accepted


@pytest.mark.parametrize("size", [1e308, 1.7976931348623157e308])
def test_certificate_of_huge_orthant_rays_accepted(size):
    # NNLS scales a column whose max |entry| is at least 2^1023 by 2^1023,
    # not by 2^1024, which is past the largest double
    a = coordinate_algebra(3)
    s = SpectralSet(a, make_rearrangement_cone(3, 1))
    rays = [Element(a, size * np.eye(3)[i]) for i in range(3)]
    cert = DecompositionCertificate(tuple((r,) for r in rays))
    assert certificate_check(s, cert, samples=30, seed=0).accepted


def test_certificate_generators_far_below_one_are_nonzero():
    # the squares of 2^-565 underflow; the norm is scaled, so these are
    # nonzero generators, and only an exact zero is refused
    a = coordinate_algebra(2)
    tiny = [Element(a, np.ldexp(np.eye(2)[i], -565)) for i in range(2)]
    assert DecompositionCertificate(((tiny[0],), (tiny[1],))).parts[0] == (tiny[0],)
    with pytest.raises(ValueError, match="must be nonzero"):
        DecompositionCertificate(((Element(a, np.zeros(2)),),))


def test_certificate_single_part_accepted():
    a = coordinate_algebra(3)
    s = SpectralSet(a, make_rearrangement_cone(3, 1))
    rays = tuple(Element(a, np.eye(3)[i]) for i in range(3))
    verdict = certificate_check(
        s, DecompositionCertificate((rays,)), samples=30, seed=1
    )
    assert verdict.accepted


def test_certificate_psd_split_rejected_by_reconstruction():
    a = RealSymmetric(2)
    s = psd_set(2)
    g1 = element_from_sym(a, np.diag([1.0, 0.0]))
    g2 = element_from_sym(a, np.diag([0.0, 1.0]))
    g3 = element_from_sym(a, np.array([[0.5, 0.5], [0.5, 0.5]]))
    cert = DecompositionCertificate(((g1,), (g2, g3)))
    verdict = certificate_check(s, cert, samples=40, seed=2)
    assert not verdict.accepted
    assert verdict.failed_clause == "nonnegative-reconstruction"


def test_certificate_overlapping_spans_rejected():
    a = RealSymmetric(2)
    s = psd_set(2)
    g1 = element_from_sym(a, np.diag([1.0, 0.0]))
    g2 = element_from_sym(a, np.diag([0.0, 1.0]))
    g3 = element_from_sym(a, np.array([[0.5, 0.5], [0.5, 0.5]]))
    cert = DecompositionCertificate(((g1, g2), (g3, g1)))
    verdict = certificate_check(s, cert, samples=5, seed=3)
    assert not verdict.accepted
    assert verdict.failed_clause == "span-independence"


def test_certificate_generator_membership_clause():
    a = coordinate_algebra(2)
    s = SpectralSet(a, make_rearrangement_cone(2, 1))
    good = Element(a, np.array([1.0, 0.0]))
    bad = Element(a, np.array([0.0, -1.0]))  # independent span, not a member
    cert = DecompositionCertificate(((good,), (bad,)))
    verdict = certificate_check(s, cert, samples=5, seed=4)
    assert not verdict.accepted
    assert verdict.failed_clause == "generator-membership"


def _certificate_check_per_candidate(k_members, cert, samples, seed):
    """Reference oracle: the audit as one membership call per generator and
    per rejection-sampled candidate, each candidate drawn on its own.
    Returns (accepted, failed_clause, detail) or the ValueError text."""
    a = cert.algebra
    part_rows = [np.array([isometric_coords(g) for g in part]) for part in cert.parts]
    rank_sum = sum(_numerical_rank(rows) for rows in part_rows)
    stacked = np.vstack(part_rows)
    total_rank = _numerical_rank(stacked)
    if total_rank != rank_sum:
        detail = f"stacked generator rank {total_rank} != sum of per-part ranks {rank_sum}"
        return (False, "span-independence", detail)
    for pi, part in enumerate(cert.parts):
        for gi, g in enumerate(part):
            if not k_members(g):
                detail = f"generator {gi} of part {pi} fails the membership oracle"
                return (False, "generator-membership", detail)
    accepted = attempts = 0
    max_attempts = 50 * samples
    rng = np.random.default_rng(int(seed))
    while accepted < samples and attempts < max_attempts:
        x = Element(a, rng.standard_normal(a.dim))
        attempts += 1
        if not k_members(x):
            continue
        accepted += 1
        _, residual = nnls(stacked.T, isometric_coords(x))
        if residual > NNLS_RESIDUAL:
            detail = f"sample {accepted - 1} has NNLS residual {residual:.3e} > {NNLS_RESIDUAL:g}"
            return (False, "nonnegative-reconstruction", detail)
    if accepted < samples:
        return (
            f"membership oracle accepted only {accepted}/{samples} samples "
            f"within {max_attempts} attempts; cannot audit reconstruction"
        )
    return (True, None, f"{accepted} sampled members reconstructed; spans independent")


def _certificate_cases():
    rn3, rn8, s2 = coordinate_algebra(3), coordinate_algebra(8), RealSymmetric(2)
    orthant3 = SpectralSet(rn3, make_rearrangement_cone(3, 1))
    orthant8 = SpectralSet(rn8, make_rearrangement_cone(8, 1))  # accepts 1 in 256
    psd2 = psd_set(2)
    g1, g2 = (element_from_sym(s2, np.diag(d)) for d in ([1.0, 0.0], [0.0, 1.0]))
    g3 = element_from_sym(s2, np.array([[0.5, 0.5], [0.5, 0.5]]))
    e1, e2, e3 = (Element(rn3, r) for r in np.eye(3))
    sheared = np.eye(8)
    sheared[7, 6] = 1.0  # e7 + e8: a member, but x7 < x8 has no reconstruction
    return {
        "orthant": (orthant3, [[e1], [e2], [e3]]),
        "rescaled": (orthant3, [[Element(rn3, r)] for r in np.diag([100.0, 0.01, 1.0])]),
        "overlap": (orthant3, [[e1, e2], [add_elements(e1, e2), e3]]),
        "bad-generator": (orthant3, [[e1], [e2, scale_element(-1.0, e3)]]),
        "psd-split": (psd2, [[g1], [g2, g3]]),
        "low-acceptance": (orthant8, [[Element(rn8, r)] for r in np.eye(8)]),
        "low-acceptance-reject": (orthant8, [[Element(rn8, r)] for r in sheared]),
    }


def test_certificate_check_matches_per_candidate_oracle():
    # every verdict, its detail and the "accepted only" error match the
    # oracle; together the cases reach each outcome
    outcomes = set()
    for case, (sset, parts) in _certificate_cases().items():
        cert = DecompositionCertificate(tuple(tuple(p) for p in parts))
        for seed, samples in ((0, 20), (1, 1), (2, 5)):
            expected = _certificate_check_per_candidate(
                lambda el: ss_member(sset, el), cert, samples, seed
            )
            if isinstance(expected, str):
                with pytest.raises(ValueError) as info:
                    certificate_check(sset, cert, samples, seed)
                assert str(info.value) == expected, (case, seed, samples)
                outcomes.add("accepted-only")
                continue
            v = certificate_check(sset, cert, samples, seed)
            assert (v.accepted, v.failed_clause, v.detail) == expected, (case, seed, samples)
            outcomes.add(v.failed_clause)
    assert outcomes == {
        None,
        "span-independence",
        "generator-membership",
        "nonnegative-reconstruction",
        "accepted-only",
    }


def test_certificate_draws_stop_once_samples_members_are_found(monkeypatch):
    # half the candidates have a nonnegative trace: 200 members take 400
    # rows of the stream, not all 50 * 200 candidates
    a = RealSymmetric(8)
    sset = SpectralSet(a, make_trace_halfspace(8))
    cert = DecompositionCertificate(((unit_element(a),),))
    eigenvalues, rows = spectralsets._eigenvalues, []

    def counting(algebra, coords):
        rows.append(len(coords))
        return eigenvalues(algebra, coords)

    monkeypatch.setattr(spectralsets, "_eigenvalues", counting)
    verdict = certificate_check(sset, cert, samples=200, seed=2)
    assert rows == [1, 200, 200]  # the generator, then two chunks
    assert verdict.failed_clause == "nonnegative-reconstruction"


def test_certificate_check_rejects_another_algebra():
    a = coordinate_algebra(2)
    cert = DecompositionCertificate(((Element(a, np.array([1.0, 0.0])),),))
    with pytest.raises(AlgebraMismatchError):
        certificate_check(psd_set(2), cert, samples=5, seed=0)


def test_certificate_validation():
    with pytest.raises(ValueError):
        DecompositionCertificate(())
    a = coordinate_algebra(2)
    with pytest.raises(ValueError):
        DecompositionCertificate(((Element(a, np.zeros(2)),),))


# ---------------------------------------------------------------------------
# extreme-ray geometry of the trace-norm cone


def _boundary_trace_norm_point(n, seed):
    # q = s*1 + g with g trace-centered and s = |g| / sqrt(n) puts q exactly
    # on tr(q) = sqrt(n/2) ||q||
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    g -= g.mean()
    s = float(np.linalg.norm(g)) / np.sqrt(n)
    return s * np.ones(n) + g


def test_boundary_construction_is_tight():
    for seed in range(20):
        q = _boundary_trace_norm_point(3, seed)
        assert abs(q.sum() - np.sqrt(1.5) * np.linalg.norm(q)) <= 1e-10


def test_trace_norm_boundary_is_extreme():
    a = RealSymmetric(3)
    s = SpectralSet(a, make_trace_norm_cone(3))
    rng = np.random.default_rng(5)
    for seed in range(20):
        q = _boundary_trace_norm_point(3, seed)
        x = element_with_eigenvalues(a, sort_desc(q), seed=seed)
        eps = 1e-3 * norm(x)
        for _ in range(20):
            d = random_element(a, int(rng.integers(1 << 30)))
            d = add_elements(d, scale_element(-inner_product(d, x) / inner_product(x, x), x))
            if norm(d) == 0.0:
                continue
            both = ss_member(s, add_elements(x, scale_element(eps, d))) and ss_member(
                s, add_elements(x, scale_element(-eps, d))
            )
            assert not both, "boundary point admitted a two-sided perturbation"


def test_symmetric_cone_boundary_not_extreme():
    # contrast: diag(1,1,0) is a midpoint of two distinct members of the
    # positive semidefinite cone
    a = RealSymmetric(3)
    s = psd_set(3)
    x = element_from_sym(a, np.diag([1.0, 1.0, 0.0]))
    p = element_from_sym(a, np.diag([2.0, 0.0, 0.0]))
    q = element_from_sym(a, np.diag([0.0, 2.0, 0.0]))
    assert ss_member(s, x) and ss_member(s, p) and ss_member(s, q)
    assert distance(scale_element(0.5, add_elements(p, q)), x) == 0.0
    assert distance(p, q) > 1.0
