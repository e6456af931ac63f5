import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jspec import (
    ComplexHermitian,
    Element,
    InvalidFrameError,
    JordanFrame,
    NumericError,
    ProductAlgebra,
    RealSymmetric,
    SpinFactor,
    canonical_frame,
    compose_theta,
    coordinate_algebra,
    distance,
    eigen_map,
    element_from_herm,
    element_from_spin,
    element_from_sym,
    jordan_product,
    norm,
    random_element,
    sort_desc,
    spectral_decompose,
    spectral,
    trace,
    unit_element,
)

from jspec.algebra import _lengths, coords_of

from conftest import ALL_KINDS, SIMPLE_KINDS, element_with_eigenvalues, random_frame


# ---------------------------------------------------------------------------
# sorting


def test_sort_desc_examples():
    assert np.array_equal(sort_desc([1, 3, 2]), [3, 2, 1])
    assert np.array_equal(sort_desc([5.0, 5.0, 5.0]), [5.0, 5.0, 5.0])


# ---------------------------------------------------------------------------
# eigenvalue map


def test_eigen_map_diagonal():
    x = element_from_sym(RealSymmetric(2), np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(eigen_map(x), [1.0, 0.0])


def test_eigen_map_spin():
    x = element_from_spin(SpinFactor(3), 1.0, np.array([1.0, 0.0]))
    assert np.array_equal(eigen_map(x), [2.0, 0.0])


def test_eigen_map_coordinate_space():
    # eigenvalues of a point of R^n are its sorted entries
    x = Element(coordinate_algebra(3), np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(eigen_map(x), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("kind", [RealSymmetric(1), ComplexHermitian(1)])
def test_eigen_map_one_by_one_matches_lapack(kind):
    # a 1x1 factor skips LAPACK; its value and the sign of a zero must not change
    from jspec.algebra import matrix_of
    from jspec.errors import NumericError

    values = [0.0, -0.0, 5e-324, -5e-324, 1e308, -2.5, 0.1]
    a = ProductAlgebra((kind,) * len(values))
    x = Element(a, np.array(values))
    expected = sort_desc(np.concatenate(
        [np.linalg.eigvalsh(matrix_of(kind, [v])) for v in values]
    ))
    assert eigen_map(x).tobytes() == expected.tobytes()
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError, match="non-finite entry"):
            eigen_map(Element(kind, np.array([bad])))


@pytest.mark.parametrize("kind", [RealSymmetric(1), ComplexHermitian(1)])
def test_spectral_decompose_one_by_one_matches_lapack(kind, monkeypatch):
    # a 1x1 factor's frame is [[1]] and its value its coordinate, as LAPACK
    # returns them, sign of a zero included; LAPACK itself is not called
    from jspec.algebra import matrix_of
    from jspec.errors import NumericError

    values = [0.0, -0.0, 5e-324, -5e-324, 1e308, -2.5, 0.1]
    lapack = [np.linalg.eigh(matrix_of(kind, [v])) for v in values]
    monkeypatch.setattr(spectral, "_eigh_desc", None)
    for v, (w, u) in zip(values, lapack):
        frame, q = spectral_decompose(Element(kind, np.array([v])))
        assert q.tobytes() == w.tobytes()
        assert frame.basis.tobytes() == u.tobytes()
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError, match="non-finite entry"):
            spectral_decompose(Element(kind, np.array([bad])))


@pytest.mark.parametrize("algebra", ALL_KINDS + [coordinate_algebra(3)], ids=str)
def test_stacked_decompositions_equal_the_one_row_calls(algebra):
    # `_decompositions` runs one `_simple_spectrum` per factor block over the
    # whole stack; row i gives the frame and values that the per-factor
    # calls on row i alone give, bit for bit, a zero row included
    from jspec.algebra import _blocks

    coords = np.stack([random_element(algebra, s).coords for s in (1, 2, 3)] + [np.zeros(algebra.dim)])
    product = isinstance(algebra, ProductAlgebra)
    for row, (frame, q) in zip(coords, spectral._decompositions(algebra, coords), strict=True):
        bases = frame.basis if product else (frame,)
        values = []
        for f, (fa, c, _) in zip(bases, _blocks(algebra), strict=True):
            want_q, want_u = spectral._simple_spectrum(fa, row[c], vectors=True)
            assert f.basis.tobytes() == np.asarray(want_u, dtype=f.basis.dtype).tobytes()
            values.append(want_q)
        values = np.concatenate(values)
        order = np.argsort(-values, kind="stable") if product else np.arange(algebra.rank)
        assert np.array_equal(frame.order, order)
        assert q.tobytes() == values[order].tobytes()
        assert spectral_decompose(Element(algebra, row))[1].tobytes() == q.tobytes()


@pytest.mark.parametrize("vector", [[0.0, np.inf, 0.0], [np.nan, 1.0, 0.0]])
@pytest.mark.parametrize("call", [eigen_map, spectral_decompose])
def test_spin_non_finite_coordinates_raise(call, vector):
    # the spin radius of an infinite vector part is inf and x0 - r of it
    # -inf, and a NaN anywhere gives NaN eigenvalues: refused by the one
    # check before the kind is read, as in the matrix kinds, each alone and
    # as a factor of a product
    from jspec.errors import NumericError

    for a in (SpinFactor(3), RealSymmetric(3), ComplexHermitian(2)):
        coords = np.resize(vector, a.dim)
        product = ProductAlgebra((RealSymmetric(1), a))
        for x in (Element(a, coords), Element(product, np.concatenate(([1.0], coords)))):
            with pytest.raises(NumericError, match="non-finite entry"):
                call(x)


def test_eigen_map_product_pools_factors():
    a = ProductAlgebra((RealSymmetric(2), SpinFactor(3)))
    x = random_element(a, 3)
    from jspec.algebra import split_product

    pooled = np.concatenate([eigen_map(p) for p in split_product(x)])
    assert np.allclose(eigen_map(x), sort_desc(pooled), atol=0.0)


def _random_matrix_element(a, rng):
    m = rng.standard_normal((a.n, a.n))
    if isinstance(a, RealSymmetric):
        m = (m + m.T) / 2.0
        return element_from_sym(a, m), m
    m = m + 1j * rng.standard_normal((a.n, a.n))
    m = (m + m.conj().T) / 2.0
    return element_from_herm(a, m), m


def _check_against_scipy_oracle(algebra, rng):
    for _ in range(25):
        x, m = _random_matrix_element(algebra, rng)
        # independent oracle
        expected = scipy.linalg.eigvalsh(m)[::-1]
        frame, values = spectral_decompose(x)
        for got in (eigen_map(x), values):
            assert np.all(np.diff(got) <= 0.0)
            assert np.abs(got - expected).max() <= 1e-12
        assert np.abs(compose_theta(values, frame).coords - x.coords).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8])
def test_symmetric_against_scipy_oracle(n):
    _check_against_scipy_oracle(RealSymmetric(n), np.random.default_rng(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_hermitian_against_scipy_oracle(n):
    _check_against_scipy_oracle(ComplexHermitian(n), np.random.default_rng(100 + n))


@pytest.mark.parametrize(
    "m, expected",
    [
        (np.diag([3.0, 1.0, 2.0]), [3.0, 2.0, 1.0]),
        (np.zeros((4, 4)), [0.0] * 4),
        (2.0 * np.eye(5), [2.0] * 5),
    ],
    ids=["diagonal", "zero", "scalar"],
)
def test_exact_spectra(m, expected):
    x = element_from_sym(RealSymmetric(len(m)), m)
    assert np.array_equal(eigen_map(x), expected)
    assert np.array_equal(spectral_decompose(x)[1], expected)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_diagonal():
    a = RealSymmetric(2)
    frame, values = spectral_decompose(element_from_sym(a, np.diag([3.0, 1.0])))
    assert np.array_equal(values, [3.0, 1.0])
    assert distance(frame.idempotents[0], element_from_sym(a, np.diag([1.0, 0.0]))) == 0.0
    assert distance(frame.idempotents[1], element_from_sym(a, np.diag([0.0, 1.0]))) == 0.0


def test_decompose_spin_vector_element():
    a = SpinFactor(3)
    frame, values = spectral_decompose(element_from_spin(a, 0.0, np.array([2.0, 0.0])))
    assert np.allclose(values, [2.0, -2.0])
    assert np.allclose(frame.idempotents[0].coords, [0.5, 0.5, 0.0])
    assert np.allclose(frame.idempotents[1].coords, [0.5, -0.5, 0.0])


def test_decompose_spin_zero_vector_part():
    a = SpinFactor(4)
    frame, values = spectral_decompose(element_from_spin(a, 2.0, np.zeros(3)))
    assert np.array_equal(values, [2.0, 2.0])
    assert np.allclose(frame.idempotents[0].coords, [0.5, 0.5, 0.0, 0.0])


def test_spin_frames_at_every_scale():
    # 2,000 spin elements, d = 3-6, at scales 2^-1074 .. 2^1000: each axis is
    # a unit vector, so no frame is refused, and it is bit for bit xbar / r
    # where xbar has no subnormal entry
    rng = np.random.default_rng(33)
    for _ in range(2000):
        a = SpinFactor(int(rng.integers(3, 7)))
        x = Element(a, np.ldexp(rng.standard_normal(a.dim), int(rng.integers(-1074, 1001))))
        frame, _ = spectral_decompose(x)
        xbar = x.coords[1:]
        if np.all((xbar == 0.0) | (np.abs(xbar) >= np.finfo(float).tiny)) and xbar.any():
            assert np.array_equal(frame.basis, xbar / _lengths(xbar))


_KIND_FAMILIES = {
    "real-symmetric": [RealSymmetric(n) for n in (2, 3, 4, 6)],
    "complex-hermitian": [ComplexHermitian(n) for n in (2, 3, 4)],
    "spin": [SpinFactor(d) for d in (3, 5, 8)],
    "product": [
        ProductAlgebra((RealSymmetric(2), SpinFactor(3))),
        ProductAlgebra((ComplexHermitian(2), RealSymmetric(1), RealSymmetric(3))),
    ],
}


@pytest.mark.parametrize("family", sorted(_KIND_FAMILIES), ids=str)
def test_round_trip(family):
    # 1000 round trips per algebra kind
    algebras = _KIND_FAMILIES[family]
    for seed in range(1000):
        algebra = algebras[seed % len(algebras)]
        x = random_element(algebra, seed)
        frame, values = spectral_decompose(x)
        err = distance(compose_theta(values, frame), x)
        assert err <= 1e-8 * max(1.0, norm(x))


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_theta_law(algebra):
    # eigen_map(compose_theta(q, F)) == sort_desc(q)
    rng = np.random.default_rng(11)
    for seed in range(30):
        frame = random_frame(algebra, seed + 1000)
        q = rng.standard_normal(algebra.rank)
        assert np.abs(eigen_map(compose_theta(q, frame)) - sort_desc(q)).max() <= 1e-9


def test_theta_law_unsorted_example():
    frame = canonical_frame(RealSymmetric(2))
    assert np.array_equal(eigen_map(compose_theta([1.0, 3.0], frame)), [3.0, 1.0])


def test_theta_zero_gives_zero():
    frame = random_frame(ComplexHermitian(3), 9)
    assert norm(compose_theta(np.zeros(3), frame)) == 0.0


def test_theta_listing_independence_exact():
    # permuting coefficients and idempotents together leaves the element
    # unchanged bit for bit
    rng = np.random.default_rng(5)
    for algebra in [RealSymmetric(4), SpinFactor(5), ProductAlgebra((RealSymmetric(2), RealSymmetric(2)))]:
        frame = random_frame(algebra, 77)
        q = rng.standard_normal(algebra.rank)
        base = compose_theta(q, frame)
        for _ in range(10):
            sigma = rng.permutation(algebra.rank)
            shuffled = JordanFrame(algebra, frame.basis, frame.order[sigma])
            assert np.array_equal(compose_theta(q[sigma], shuffled).coords, base.coords)


@pytest.mark.filterwarnings("error")
def test_spin_compose_is_exact_at_both_ends_of_the_doubles():
    # x0 = (q0 + q1) / 2 and the vector coefficient (q0 - q1) / 2 round once:
    # exact on subnormal q, and no overflow where q0 +- q1 passes the
    # largest double
    frame = canonical_frame(SpinFactor(3))
    tiny, big = 2.0**-1074, np.finfo(float).max
    cases = [
        ((3 * tiny, tiny), (2 * tiny, tiny)),
        ((3 * tiny, -tiny), (tiny, 2 * tiny)),
        ((big, big), (big, 0.0)),
        ((big, -big), (0.0, big)),
        ((1.5 * 2.0**1023, 2.0**1023), (1.25 * 2.0**1023, 0.25 * 2.0**1023)),
    ]
    for q, (x0, c) in cases:
        x = compose_theta(q, frame)
        assert x.coords.tobytes() == np.array([x0, c, 0.0]).tobytes(), q
        assert np.array_equal(eigen_map(x), q), q


def test_compose_theta_length_mismatch():
    frame = canonical_frame(RealSymmetric(3))
    with pytest.raises(ValueError):
        compose_theta([1.0, 2.0], frame)


def test_eigenvalue_map_is_short():
    # ||lambda(x) - lambda(y)||_2 <= ||x - y|| in the trace-form norm
    for algebra in ALL_KINDS:
        for seed in range(25):
            x = random_element(algebra, seed)
            y = random_element(algebra, seed + 10_000)
            gap = float(np.linalg.norm(eigen_map(x) - eigen_map(y)))
            assert gap <= distance(x, y) + 1e-10


# ---------------------------------------------------------------------------
# frames


def test_frame_validation_rejects_garbage():
    a = RealSymmetric(2)
    with pytest.raises(InvalidFrameError):
        JordanFrame(a, np.array([[1.0, 0.0], [1.0, 1.0]]), [0, 1])  # not orthonormal
    with pytest.raises(InvalidFrameError):
        JordanFrame(a, np.eye(2), [0, 0])  # order is not a permutation


def test_canonical_frame_reconstructs_unit():
    for algebra in ALL_KINDS:
        frame = canonical_frame(algebra)
        e = compose_theta(np.ones(algebra.rank), frame)
        assert distance(e, unit_element(algebra)) == 0.0


def test_canonical_frame_is_built_once_per_algebra():
    for algebra in ALL_KINDS:
        frame = canonical_frame(algebra)
        assert canonical_frame(algebra) is frame
        assert not frame.order.flags.writeable
        bases = frame.basis if isinstance(algebra, ProductAlgebra) else (frame,)
        for f in bases:
            assert not f.basis.flags.writeable and not f.order.flags.writeable
            with pytest.raises(ValueError):
                f.basis[0] = 2.0


def test_decompose_frames_are_valid():
    # the listed idempotents form a Jordan frame: each squares to itself with
    # unit trace, they multiply pairwise to zero and sum to the unit
    tol = spectral.FRAME_TOL
    for algebra in ALL_KINDS:
        frame, _ = spectral_decompose(random_element(algebra, 123))
        es = frame.idempotents
        assert len(es) == algebra.rank
        for i, e in enumerate(es):
            assert np.abs(jordan_product(e, e).coords - e.coords).max() <= tol
            assert abs(trace(e) - 1.0) <= tol
            for f in es[i + 1:]:
                assert np.abs(jordan_product(e, f).coords).max() <= tol
        total = np.sum([e.coords for e in es], axis=0)
        assert np.abs(total - unit_element(algebra).coords).max() <= tol


# ---------------------------------------------------------------------------
# stacked kernels: each row equals the one-element call, bit for bit


@st.composite
def hermitian_stacks(draw):
    """A stack [k, n, n] of real symmetric or complex Hermitian matrices."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 6))
    complex_ = draw(st.booleans())
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    shape = (k, 2, n, n) if complex_ else (k, n, n)
    g = draw(hnp.arrays(np.float64, shape, elements=entries))
    m = g[:, 0] + 1j * g[:, 1] if complex_ else g
    return (m + m.conj().swapaxes(1, 2)) / 2.0


@settings(max_examples=60, deadline=None)
@given(hermitian_stacks(), st.booleans())
def test_stacked_eigh_rows_equal_single_calls(stack, vectors):
    values, vecs = spectral._eigh_desc(stack, vectors=vectors)
    assert values.shape == stack.shape[:2]
    assert np.all(np.diff(values, axis=-1) <= 0.0)
    for i, m in enumerate(stack):
        one_values, one_vecs = spectral._eigh_desc(m, vectors=vectors)
        assert np.array_equal(values[i], one_values)
        if vectors:
            assert np.array_equal(vecs[i], one_vecs)


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_stacked_eigenvalues_equal_eigen_map(algebra):
    coords = np.array([random_element(algebra, seed).coords for seed in range(7)])
    values = spectral._eigenvalues(algebra, coords)
    for row, c in zip(values, coords):
        assert np.array_equal(row, eigen_map(Element(algebra, c)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_KINDS + [RealSymmetric(7), ComplexHermitian(5)]),
       st.integers(0, 2**32 - 1), st.integers(-1000, 1024))
@example(RealSymmetric(4), 0, -1000)
@example(ComplexHermitian(3), 0, 1000)
@example(RealSymmetric(7), 1, 700)
@example(SpinFactor(3), 1, 1023)  # lambda = (1.23, -0.54) 2^1023
@example(SpinFactor(3), 1, 1024)  # 1.23 * 2^1024 is no double, 0.82 * 2^1024 is
def test_eigenvalues_scale_exactly_with_the_element(algebra, seed, k):
    # LAPACK rescales a matrix whose norm is far from 1 by a factor that is
    # not a power of two; divided by a power of two first, 2^k x has the
    # eigenvalues 2^k eigen_map(x) and the frame of x, bit for bit, and so
    # does a spin element, whose x0 +- |xbar| is summed scaled: an
    # eigenvalue (or a spin radius) past the largest double raises, with no
    # overflow warning
    x = random_element(algebra, seed)
    with np.errstate(over="ignore"):
        scaled, want = np.ldexp(x.coords, k), np.ldexp(eigen_map(x), k)
    assume(np.isfinite(scaled).all() and np.all((scaled == 0.0) | (np.abs(scaled) >= np.finfo(float).tiny)))
    y = Element(algebra, scaled)
    if not np.isfinite(want).all():
        with pytest.raises(NumericError, match="is past the largest double"):
            eigen_map(y)
        return
    assert np.array_equal(eigen_map(y), want)
    (frame_x, values_x), (frame_y, values_y) = spectral_decompose(x), spectral_decompose(y)
    assert np.array_equal(values_y, np.ldexp(values_x, k))
    assert np.array_equal(spectral._idempotent_coords(frame_y), spectral._idempotent_coords(frame_x))


@pytest.mark.parametrize(
    "algebra",
    [a for a in SIMPLE_KINDS if not isinstance(a, SpinFactor)]
    + [RealSymmetric(1), ComplexHermitian(1), RealSymmetric(40)],
    ids=str,
)
def test_idempotents_equal_the_packed_outer_products(algebra):
    # each packed slot is read off the eigenvector columns: bit for bit the
    # packed stack of outer products u_k u_k^*, in any listing order
    frame = random_frame(algebra, 5)
    u = frame.basis
    packed = coords_of(algebra, u.T[:, :, None] * u.T.conj()[:, None, :])
    for order in (frame.order, np.random.default_rng(1).permutation(algebra.rank)):
        coords = spectral._idempotent_coords(JordanFrame(algebra, u, order))
        assert coords.flags.c_contiguous
        assert coords.tobytes() == packed[order].tobytes()


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_stacked_compose_rows_equal_compose_theta(algebra):
    rng = np.random.default_rng(11)
    for seed in range(3):
        frame = random_frame(algebra, seed)
        q = rng.standard_normal((9, algebra.rank))
        composed = spectral._compose(q, frame)
        assert composed.shape == (9, algebra.dim)
        for row, qj in zip(composed, q):
            assert np.array_equal(row, compose_theta(qj, frame).coords)
