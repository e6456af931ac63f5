import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jspec import (
    ComplexHermitian,
    NumericError,
    OrbitMismatchError,
    ProductAlgebra,
    RealSymmetric,
    SpinFactor,
    UnsupportedAlgebraError,
    apply_automorphism,
    coordinate_algebra,
    distance,
    eigen_map,
    element_from_sym,
    frame_transport,
    g_path,
    inner_product,
    jordan_product,
    norm,
    orbit_path,
    orbit_sample,
    random_element,
    random_g_automorphism,
    spectral_decompose,
    split_product,
    unit_element,
)
from jspec.algebra import Element, join_product, sym_matrix
from jspec.orbits import Automorphism, PathPolyline

from conftest import PRODUCT_KINDS, SIMPLE_KINDS, element_with_eigenvalues, random_frame


# ---------------------------------------------------------------------------
# automorphisms


@pytest.mark.parametrize("algebra", SIMPLE_KINDS, ids=str)
def test_action_preserves_products_and_eigenvalues(algebra):
    # 6 kinds x 170 sampled (phi, x, y) triples: >= 1000 total
    rng = np.random.default_rng(7)
    for trial in range(170):
        phi = random_g_automorphism(algebra, rng)
        x = random_element(algebra, trial)
        y = random_element(algebra, trial + 900)
        lhs = apply_automorphism(phi, jordan_product(x, y))
        rhs = jordan_product(apply_automorphism(phi, x), apply_automorphism(phi, y))
        assert distance(lhs, rhs) <= 1e-8 * max(1.0, norm(lhs))
        assert abs(
            inner_product(apply_automorphism(phi, x), apply_automorphism(phi, y))
            - inner_product(x, y)
        ) <= 1e-8 * max(1.0, abs(inner_product(x, y)))
        assert np.abs(eigen_map(apply_automorphism(phi, x)) - eigen_map(x)).max() <= 1e-8


def test_unitary_always_in_identity_component():
    # the unitary group is connected: g_path reaches every unitary, also
    # diag(1, -1), whose real counterpart is a reflection
    rng = np.random.default_rng(0)
    for phi in (
        random_g_automorphism(ComplexHermitian(3), rng),
        Automorphism(ComplexHermitian(2), np.diag([1.0, -1.0]).astype(complex)),
    ):
        assert np.abs(g_path(phi).matrices([1.0])[0] - phi.matrix).max() <= 1e-12


# ---------------------------------------------------------------------------
# frame transport


def test_transport_identity_when_frames_equal():
    frame = random_frame(RealSymmetric(3), 5)
    phi = frame_transport(frame, frame)
    assert np.abs(phi.matrix - np.eye(3)).max() < 1e-12


def test_transport_s2_quarter_turn():
    a = RealSymmetric(2)
    e_frame = random_frame(a, 0)
    x = element_from_sym(a, np.diag([1.0, 0.0]))
    e_frame, _ = spectral_decompose(x)
    y = element_from_sym(a, np.array([[0.0, 1.0], [1.0, 0.0]]))
    f_frame, _ = spectral_decompose(y)
    phi = frame_transport(e_frame, f_frame)
    # direct multiplication oracle: the first idempotent must land on
    # the projection onto span{(1,1)/sqrt(2)}
    image = apply_automorphism(phi, element_from_sym(a, np.diag([1.0, 0.0])))
    assert distance(image, element_from_sym(a, np.array([[0.5, 0.5], [0.5, 0.5]]))) < 1e-12
    u = phi.matrix
    assert abs(abs(u[0, 0]) - np.cos(np.pi / 4)) < 1e-12


@pytest.mark.parametrize("algebra", SIMPLE_KINDS, ids=str)
def test_transport_maps_frames(algebra):
    for seed in range(10):
        e_frame = random_frame(algebra, seed)
        f_frame = random_frame(algebra, seed + 5_000)
        phi = frame_transport(e_frame, f_frame)
        # the transport is reached along its own identity-component path
        assert np.abs(g_path(phi).matrices([1.0])[0] - phi.matrix).max() <= 1e-12
        for e, f in zip(e_frame.idempotents, f_frame.idempotents):
            assert distance(apply_automorphism(phi, e), f) <= 1e-8


def test_transport_determinant_is_positive():
    for seed in range(10):
        phi = frame_transport(
            random_frame(RealSymmetric(3), seed), random_frame(RealSymmetric(3), seed + 50)
        )
        assert np.linalg.det(phi.matrix) == pytest.approx(1.0, abs=1e-10)


def test_transport_rejects_products():
    a = ProductAlgebra((RealSymmetric(2), RealSymmetric(2)))
    frame = random_frame(a, 1)
    with pytest.raises(UnsupportedAlgebraError):
        frame_transport(frame, frame)


@pytest.mark.parametrize("algebra", PRODUCT_KINDS, ids=str)
def test_automorphisms_of_products_are_not_represented(algebra):
    # a product moves factor by factor along orbit_path instead
    with pytest.raises(UnsupportedAlgebraError, match="orbit_path moves a product"):
        random_g_automorphism(algebra, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# identity-component paths


def test_g_path_identity_is_constant():
    path = g_path(Automorphism(RealSymmetric(3), np.eye(3)))
    for t in (0.0, 0.3, 1.0):
        assert np.abs(path.sample(t).matrix - np.eye(3)).max() < 1e-15


def test_g_path_single_rotation_scales_angle():
    theta = np.pi / 4
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    path = g_path(Automorphism(RealSymmetric(2), rot))
    half = path.sample(0.5).matrix
    expect = np.array([[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]])
    assert np.abs(half - expect).max() < 1e-12


@pytest.mark.parametrize("algebra", SIMPLE_KINDS, ids=str)
def test_g_path_endpoints_and_continuity(algebra):
    rng = np.random.default_rng(13)
    for _ in range(10):
        phi = random_g_automorphism(algebra, rng)
        path = g_path(phi)
        size = phi.matrix.shape[0]
        assert np.abs(path.sample(0.0).matrix - np.eye(size)).max() < 1e-12
        assert np.abs(path.sample(1.0).matrix - phi.matrix).max() < 1e-9
        # bounded increments along a fine grid
        prev = path.sample(0.0).matrix
        for t in np.linspace(0.0, 1.0, 33)[1:]:
            cur = path.sample(t).matrix
            assert np.abs(cur - prev).max() < 1.0
            gram = cur.conj().T @ cur
            assert np.abs(gram - np.eye(size)).max() < 1e-12
            prev = cur


@pytest.mark.parametrize("algebra", SIMPLE_KINDS, ids=str)
def test_path_matrices_equal_single_samples(algebra):
    # one replay over a vector of t equals one replay per t, bit for bit
    path = g_path(random_g_automorphism(algebra, np.random.default_rng(5)))
    ts = np.linspace(0.0, 1.0, 9)
    for t, m in zip(ts, path.matrices(ts)):
        assert np.array_equal(m, path.sample(t).matrix)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SIMPLE_KINDS + [RealSymmetric(1), SpinFactor(7)]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=1, max_size=12),
)
def test_path_matrices_rows_equal_one_element_replays(algebra, seed, identity, ts):
    # the rows-first replay with its coefficients computed in one pass:
    # row i of the stack is the replay of [ts[i]] alone, bit for bit, also
    # for a path with no rotation and a one-element ts
    phi = random_g_automorphism(algebra, np.random.default_rng(seed))
    if identity:
        phi = Automorphism(algebra, np.eye(len(phi.matrix), dtype=phi.matrix.dtype))
    path = g_path(phi)
    mats = path.matrices(ts)
    assert mats.shape == (len(ts),) + phi.matrix.shape
    assert mats.dtype == phi.matrix.dtype
    for t, m in zip(ts, mats):
        assert np.array_equal(m, path.matrices([t])[0])
    if identity:
        assert path.rotations == ()
        assert np.array_equal(mats, np.broadcast_to(phi.matrix, mats.shape))


def test_g_path_rejects_reflection():
    # det -1 leaves an odd count of -1 entries after the plane rotations
    refl = Automorphism(RealSymmetric(2), np.diag([1.0, -1.0]))
    with pytest.raises(NumericError, match="odd sign count"):
        g_path(refl)


# sha256 of `matrices(linspace(0, 1, 9)).tobytes()` on factorizations that
# take the rare branches: a zero pivot (Hermitian) and half-turn pairs of -1
# diagonal entries (real symmetric, spin).  Recorded before the real and
# unitary factorizations were one; the bytes follow the host's libm.
_PATH_MATRIX_DIGESTS = {
    "herm2-zero-pivot": (
        ComplexHermitian(2), [[0, 1], [1, 0]],
        "cd903707ecbf4a4dc816764890d7868edfb455253a3f3893f57ca82698da44fd",
    ),
    "herm3-zero-pivot": (
        ComplexHermitian(3), [[0, 0, 1j], [1, 0, 0], [0, 1, 0]],
        "8ece0359bc954765b7d0a96d69dda1653e6be28a8d8f4e1ad769c7564b7a8ddb",
    ),
    "sym3-half-turn": (
        RealSymmetric(3), np.diag([-1.0, -1.0, 1.0]),
        "3c8de133925dc7bcb75b16bf5dbebab27c45e33f32bb79a32d8b8a37003a1614",
    ),
    "sym4-two-half-turns": (
        RealSymmetric(4), -np.eye(4),
        "77ccc351ef679392b6d22eef9f2b8c61b09f111f78a931715d24aa5325d6287d",
    ),
    "spin5-half-turn": (
        SpinFactor(5), np.diag([1.0, -1.0, -1.0, 1.0]),
        "23cc1bac6e51ca5299839a31d5e9a6e8d7f1189d81b2617d026f78615da79486",
    ),
}


@pytest.mark.parametrize("case", sorted(_PATH_MATRIX_DIGESTS))
def test_path_matrices_of_rare_branches_are_pinned(case):
    algebra, m, digest = _PATH_MATRIX_DIGESTS[case]
    dtype = complex if isinstance(algebra, ComplexHermitian) else float
    path = g_path(Automorphism(algebra, np.asarray(m, dtype=dtype)))
    # host-independent: the path ends at the factored representation
    assert np.abs(path.matrices([1.0])[0] - np.asarray(m)).max() <= 1e-12
    mats = path.matrices(np.linspace(0.0, 1.0, 9))
    assert hashlib.sha256(mats.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# orbit paths


def test_path_polyline_keeps_its_own_copy():
    a = RealSymmetric(2)
    given = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]])
    path = PathPolyline(a, given, 1e-8)
    given[0, 0] = 5.0  # the caller's array stays writable and apart
    assert path.coords.tolist() == [[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]]
    assert not path.coords.flags.writeable
    assert path.samples[0].coords.tolist() == [1.0, 0.0, 1.0]


@pytest.mark.parametrize("k", [530, -530])
def test_max_step_scales_exactly_by_powers_of_two(k):
    # sums of squares of 2^530-scaled steps overflow and 2^-530-scaled ones
    # underflow; the power-of-two scaling inside max_step keeps it exact
    for algebra in (RealSymmetric(3), ComplexHermitian(2), SpinFactor(4)):
        coords = np.random.default_rng(3).standard_normal((5, algebra.dim))
        step = PathPolyline(algebra, coords, 0.0).max_step
        scaled = PathPolyline(algebra, np.ldexp(coords, k), 0.0).max_step
        assert scaled == math.ldexp(step, k)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [0.0, 1e-12, 1e-9, 1e-7, 1e-4])
def test_spin_orbit_path_between_nearly_equal_or_opposite_axes(offset, sign):
    # the rotation between spin axes u and v = +-u + O(offset) ends at v and
    # stays on the sphere to rounding: near -u, v - (u.v) u would lose its
    # digits to cancellation, so the turn's plane is found from v + u
    a = SpinFactor(5)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(4)
    v = sign * u + offset * rng.standard_normal(4)
    x, y = (Element(a, np.concatenate(([2.0], 3.0 * w / np.linalg.norm(w)))) for w in (u, v))
    coords = orbit_path(x, y, steps=7).coords
    assert np.array_equal(coords[0], x.coords)
    assert np.abs(coords[-1] - y.coords).max() <= 1e-14 * norm(y)
    assert np.abs(np.linalg.norm(coords[:, 1:], axis=1) - 3.0).max() <= 1e-14 * 3.0


def test_orbit_path_constant_for_equal_endpoints():
    x = random_element(RealSymmetric(3), 2)
    path = orbit_path(x, x, steps=5)
    assert all(distance(s, x) < 1e-12 for s in path.samples)


@pytest.mark.parametrize("algebra", SIMPLE_KINDS, ids=str)
def test_orbit_path_preserves_eigenvalues(algebra):
    for seed in range(6):
        x = random_element(algebra, seed)
        y = orbit_sample(x, 1, seed=seed + 77)[0]
        path = orbit_path(x, y, steps=40)
        lam = eigen_map(x)
        assert distance(path.samples[0], x) == 0.0
        assert distance(path.samples[-1], y) <= 1e-10
        for s in path.samples:
            assert np.abs(eigen_map(s) - lam).max() <= 1e-8
        assert path.max_step <= 2.0 * norm(x) + 1.0


@pytest.mark.parametrize("algebra", SIMPLE_KINDS, ids=str)
def test_orbit_path_samples_are_single_actions(algebra):
    # the stacked sweep equals applying each path sample on its own, bit for bit
    x = random_element(algebra, 4)
    y = orbit_sample(x, 1, seed=9)[0]
    path = orbit_path(x, y, steps=7)
    transport = g_path(frame_transport(spectral_decompose(x)[0], spectral_decompose(y)[0]))
    for t, s in zip(np.linspace(0.0, 1.0, 7), path.samples):
        assert np.array_equal(s.coords, apply_automorphism(transport.sample(t), x).coords)


def test_orbit_path_rank_one_projections():
    # every sample of a path between rank-one projections is itself one
    a = RealSymmetric(3)
    x = element_from_sym(a, np.diag([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(3)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    y = element_from_sym(a, np.outer(v, v))
    path = orbit_path(x, y, steps=60)
    for s in path.samples:
        assert np.abs(eigen_map(s) - [1.0, 0.0, 0.0]).max() < 1e-9
        assert distance(jordan_product(s, s), s) < 1e-9  # idempotent


def test_orbit_path_idempotent_circle():
    # S^2 path from diag(1,0) to the projection onto (1,1)/sqrt(2) sweeps
    # the circle [[cos^2 t, cos t sin t], [cos t sin t, sin^2 t]] monotonically
    a = RealSymmetric(2)
    x = element_from_sym(a, np.diag([1.0, 0.0]))
    y = element_from_sym(a, np.array([[0.5, 0.5], [0.5, 0.5]]))
    path = orbit_path(x, y, steps=33)
    thetas = []
    for s in path.samples:
        m = sym_matrix(s)
        theta = 0.5 * np.arctan2(2.0 * m[0, 1], m[0, 0] - m[1, 1])
        if thetas:
            # the circle matrix is pi-periodic in theta; unwrap to the branch
            # nearest the previous sample
            theta += np.pi * round((thetas[-1] - theta) / np.pi)
        ref = np.array(
            [
                [np.cos(theta) ** 2, np.cos(theta) * np.sin(theta)],
                [np.cos(theta) * np.sin(theta), np.sin(theta) ** 2],
            ]
        )
        assert np.abs(m - ref).max() <= 1e-8
        thetas.append(theta)
    diffs = np.diff(thetas)
    assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)
    assert abs(thetas[0]) < 1e-12
    # the endpoint projects onto span{(1,1)}: theta = pi/4 up to the period
    assert abs((thetas[-1] - np.pi / 4) % np.pi) < 1e-9 or abs(
        np.pi - (thetas[-1] - np.pi / 4) % np.pi
    ) < 1e-9


def test_orbit_path_rejects_mismatch_and_products():
    with pytest.raises(OrbitMismatchError):
        orbit_path(random_element(RealSymmetric(3), 0), random_element(RealSymmetric(3), 1), 10)
    # a product names the factor whose eigenvalues differ
    a = ProductAlgebra((RealSymmetric(2), RealSymmetric(2)))
    x = random_element(a, 0)
    y = join_product(a, [split_product(x)[0], random_element(RealSymmetric(2), 5)])
    with pytest.raises(OrbitMismatchError, match="factor 1 has mismatched"):
        orbit_path(x, y, 10)
    with pytest.raises(ValueError):
        orbit_path(random_element(RealSymmetric(2), 0), random_element(RealSymmetric(2), 0), 1)


# ---------------------------------------------------------------------------
# restricted orbits


def test_restricted_orbit_singleton_in_coordinate_space():
    a = coordinate_algebra(3)
    c1 = Element(a, np.array([1.0, 0.0, 0.0]))
    path = orbit_path(c1, c1, steps=4)
    assert all(distance(s, c1) == 0.0 for s in path.samples)


def test_restricted_orbit_rejects_coordinate_swap():
    # same global eigenvalues, different factor blocks
    a = coordinate_algebra(3)
    c1 = Element(a, np.array([1.0, 0.0, 0.0]))
    c2 = Element(a, np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(eigen_map(c1), eigen_map(c2))
    with pytest.raises(OrbitMismatchError):
        orbit_path(c1, c2, steps=4)


def test_restricted_orbit_factorwise_preservation():
    a = ProductAlgebra((RealSymmetric(2), SpinFactor(3)))
    x = random_element(a, 4)
    ys = [orbit_sample(p, 1, seed=11)[0] for p in split_product(x)]
    y = join_product(a, ys)
    path = orbit_path(x, y, steps=25)
    assert distance(path.samples[-1], y) <= 1e-10
    for s in path.samples:
        for xi, si in zip(split_product(x), split_product(s)):
            assert np.abs(eigen_map(si) - eigen_map(xi)).max() <= 1e-8


# ---------------------------------------------------------------------------
# orbit sampling


def test_orbit_sample_of_unit_is_unit():
    e = unit_element(RealSymmetric(3))
    for s in orbit_sample(e, 5, seed=0):
        assert distance(s, e) < 1e-12


def test_orbit_sample_rank_one_projections():
    a = RealSymmetric(3)
    x = element_from_sym(a, np.diag([1.0, 0.0, 0.0]))
    for s in orbit_sample(x, 50, seed=1):
        m = sym_matrix(s)
        # u u^T for a unit vector u: idempotent with unit trace
        assert np.abs(m @ m - m).max() < 1e-10
        assert abs(np.trace(m) - 1.0) < 1e-12


def test_orbit_sample_spin_sphere():
    # the orbit of (0, v) is the sphere of radius |v| in the vector part
    a = SpinFactor(4)
    x = Element(a, np.array([0.0, 1.0, 0.0, 0.0]))
    for s in orbit_sample(x, 50, seed=2):
        assert abs(s.coords[0]) < 1e-14
        assert abs(np.linalg.norm(s.coords[1:]) - 1.0) < 1e-12


def test_orbit_sample_deterministic_and_order_independent():
    x = random_element(ComplexHermitian(2), 9)
    first = orbit_sample(x, 6, seed=5)
    again = orbit_sample(x, 6, seed=5)
    for s, t in zip(first, again):
        assert np.array_equal(s.coords, t.coords)
    # per-index derivation: a longer run reproduces the shorter run's prefix
    longer = orbit_sample(x, 12, seed=5)
    for s, t in zip(first, longer):
        assert np.array_equal(s.coords, t.coords)


@pytest.mark.parametrize(
    "algebra", [RealSymmetric(1), RealSymmetric(4), ComplexHermitian(3), SpinFactor(5)], ids=str
)
def test_orbit_sample_is_sequential_haar_draws(algebra):
    # one Haar path: the stacked draw equals sequential single draws, bit for bit
    x = random_element(algebra, 3)
    rng = np.random.default_rng(11)
    for s in orbit_sample(x, 7, seed=11):
        t = apply_automorphism(random_g_automorphism(algebra, rng), x)
        assert np.array_equal(s.coords, t.coords)


@pytest.mark.parametrize("algebra", SIMPLE_KINDS, ids=str)
def test_orbit_sample_zero_count(algebra):
    x = random_element(algebra, 3)
    assert orbit_sample(x, 0, seed=1) == []


def test_orbit_sample_rejects_products():
    with pytest.raises(UnsupportedAlgebraError):
        orbit_sample(random_element(coordinate_algebra(2), 0), 3, seed=0)
