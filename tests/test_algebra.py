import ast
import math
import pathlib
import re

import numpy as np
import pytest

from jspec import (
    AlgebraMismatchError,
    ComplexHermitian,
    Element,
    ProductAlgebra,
    RealSymmetric,
    SpinFactor,
    coordinate_algebra,
    distance,
    element_from_spin,
    element_from_sym,
    inner_product,
    jordan_product,
    norm,
    random_element,
    trace,
    unit_element,
)
import jspec
from jspec.algebra import _lengths, coords_of, herm_matrix, matrix_of, sym_matrix
from jspec.errors import NumericError

from conftest import ALL_KINDS


def test_descriptor_dimensions():
    assert RealSymmetric(3).rank == 3 and RealSymmetric(3).dim == 6
    assert ComplexHermitian(3).rank == 3 and ComplexHermitian(3).dim == 9
    assert SpinFactor(5).rank == 2 and SpinFactor(5).dim == 5
    prod = ProductAlgebra((RealSymmetric(2), SpinFactor(3)))
    assert prod.rank == 4 and prod.dim == 6


def test_descriptor_validation():
    with pytest.raises(ValueError):
        RealSymmetric(0)
    with pytest.raises(ValueError):
        SpinFactor(2)
    with pytest.raises(ValueError):
        ProductAlgebra(())


def test_nested_products_flatten():
    inner = ProductAlgebra((RealSymmetric(1), SpinFactor(3)))
    outer = ProductAlgebra((RealSymmetric(2), inner))
    assert all(not isinstance(f, ProductAlgebra) for f in outer.factors)
    assert outer.rank == 2 + 1 + 2


def test_unit_is_identity_matrix():
    e = unit_element(RealSymmetric(3))
    assert np.array_equal(sym_matrix(e), np.eye(3))
    e = unit_element(SpinFactor(4))
    assert np.array_equal(e.coords, [1.0, 0.0, 0.0, 0.0])
    e = unit_element(coordinate_algebra(2))
    assert np.array_equal(e.coords, [1.0, 1.0])


def test_unit_times_unit():
    for a in ALL_KINDS:
        e = unit_element(a)
        assert distance(jordan_product(e, e), e) == 0.0


def test_orthogonal_idempotents_multiply_to_zero():
    a = RealSymmetric(2)
    e1 = element_from_sym(a, np.diag([1.0, 0.0]))
    e2 = element_from_sym(a, np.diag([0.0, 1.0]))
    assert norm(jordan_product(e1, e2)) == 0.0


def test_spin_product_formula():
    a = SpinFactor(3)
    x = element_from_spin(a, 1.0, np.array([1.0, 0.0]))
    assert np.array_equal(jordan_product(x, x).coords, [2.0, 2.0, 0.0])


def test_inner_product_values():
    assert inner_product(unit_element(RealSymmetric(3)), unit_element(RealSymmetric(3))) == 3.0
    a = RealSymmetric(2)
    e1 = element_from_sym(a, np.diag([1.0, 0.0]))
    e2 = element_from_sym(a, np.diag([0.0, 1.0]))
    assert inner_product(e1, e2) == 0.0
    s = SpinFactor(3)
    x = element_from_spin(s, 1.0, np.zeros(2))
    assert inner_product(x, x) == 2.0


def test_inner_product_matches_trace_of_product():
    # the weighted-coordinate form must agree with tr(x o y)
    for a in ALL_KINDS:
        x = random_element(a, 5)
        y = random_element(a, 6)
        assert inner_product(x, y) == pytest.approx(trace(jordan_product(x, y)), rel=1e-12, abs=1e-12)


def test_hermitian_storage_round_trip():
    a = ComplexHermitian(3)
    x = random_element(a, 0)
    m = herm_matrix(x)
    assert np.abs(m - m.conj().T).max() == 0.0


@pytest.mark.parametrize(
    "algebra",
    [RealSymmetric(1), RealSymmetric(4), ComplexHermitian(1), ComplexHermitian(3)],
    ids=str,
)
def test_stacked_packing_matches_single_elements(algebra):
    # one kernel serves a (k, dim) stack and each element alone, bit for bit
    stack = np.stack([random_element(algebra, seed).coords for seed in range(5)])
    mats = matrix_of(algebra, stack)
    unpack = sym_matrix if isinstance(algebra, RealSymmetric) else herm_matrix
    for c, m in zip(stack, mats):
        assert np.array_equal(m, unpack(Element(algebra, c)))
        assert np.array_equal(coords_of(algebra, m), c)
    assert np.array_equal(coords_of(algebra, mats), stack)
    empty = matrix_of(algebra, stack[:0])
    assert empty.shape == (0, algebra.n, algebra.n)
    assert coords_of(algebra, empty).shape == (0, algebra.dim)


def test_packed_positions_closed_forms():
    n = 4
    sym = matrix_of(RealSymmetric(n), np.arange(10.0))
    herm = matrix_of(ComplexHermitian(n), np.arange(16.0))
    for i in range(n):
        assert sym[i, i] == i * (i + 3) // 2
        assert herm[i, i] == i * i + 2 * i
        for j in range(i):
            assert sym[i, j] == sym[j, i] == i * (i + 1) // 2 + j
            assert herm[i, j] == complex(i * i + 2 * j, i * i + 2 * j + 1)
            assert herm[j, i] == herm[i, j].conjugate()


def test_random_element_determinism():
    for a in ALL_KINDS:
        x = random_element(a, 42)
        y = random_element(a, 42)
        assert np.array_equal(x.coords, y.coords)
        z = random_element(a, 43)
        assert not np.array_equal(x.coords, z.coords)


def test_random_element_rejects_bad_scale():
    with pytest.raises(ValueError):
        random_element(RealSymmetric(2), 0, scale=0.0)
    with pytest.raises(ValueError):
        random_element(RealSymmetric(2), 0, scale=-1.0)


def test_algebra_mismatch_raises():
    x = random_element(RealSymmetric(2), 0)
    y = random_element(RealSymmetric(3), 0)
    with pytest.raises(AlgebraMismatchError):
        jordan_product(x, y)
    with pytest.raises(AlgebraMismatchError):
        inner_product(x, y)


def test_element_coords_immutable():
    x = random_element(RealSymmetric(2), 1)
    with pytest.raises(ValueError):
        x.coords[0] = 7.0


def test_element_keeps_its_own_copy():
    a = RealSymmetric(2)
    given = np.array([1.0, 0.0, 1.0])
    x = Element(a, given)
    given[0] = 5.0  # the caller's array stays writable
    assert x.coords.tolist() == [1.0, 0.0, 1.0]
    base = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]])
    y = Element(a, base[0])
    base[0, 0] = 5.0  # a writable base array cannot reach the element
    assert y.coords.tolist() == [1.0, 0.0, 1.0]
    assert not y.coords.flags.writeable
    assert Element(a, [1, 0, 1]).coords.dtype == float


@pytest.mark.parametrize("coords", [
    [1 + 2j, 0, 1], np.array([1.0, 0.0, 1.0], dtype=complex), ["1", "0", "1"],
    [True, False, True], [1.0, None, 1.0],
], ids=["complex-list", "complex-array", "strings", "bools", "none"])
def test_element_refuses_non_real_coordinates(coords):
    with pytest.raises(ValueError, match="real numbers"):
        Element(RealSymmetric(2), coords)


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_commutativity(algebra):
    for seed in range(40):
        x = random_element(algebra, 2 * seed)
        y = random_element(algebra, 2 * seed + 1)
        lhs = jordan_product(x, y)
        rhs = jordan_product(y, x)
        scale = max(1.0, norm(lhs))
        assert distance(lhs, rhs) <= 1e-12 * scale


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_jordan_identity(algebra):
    # x^2 o (x o y) == x o (x^2 o y)
    for seed in range(40):
        x = random_element(algebra, 3 * seed)
        y = random_element(algebra, 3 * seed + 1)
        x2 = jordan_product(x, x)
        lhs = jordan_product(x2, jordan_product(x, y))
        rhs = jordan_product(x, jordan_product(x2, y))
        scale = max(1.0, norm(lhs), norm(rhs))
        assert distance(lhs, rhs) <= 1e-9 * scale


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_trace_form_associativity(algebra):
    # <x o y, z> == <y, x o z>
    for seed in range(40):
        x = random_element(algebra, 4 * seed)
        y = random_element(algebra, 4 * seed + 1)
        z = random_element(algebra, 4 * seed + 2)
        lhs = inner_product(jordan_product(x, y), z)
        rhs = inner_product(y, jordan_product(x, z))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_unit_is_two_sided_identity(algebra):
    e = unit_element(algebra)
    for seed in range(20):
        x = random_element(algebra, seed)
        assert distance(jordan_product(e, x), x) <= 1e-14 * max(1.0, norm(x))


@pytest.mark.parametrize("algebra", ALL_KINDS, ids=str)
def test_norm_and_distance_scale_exactly_by_powers_of_two(algebra):
    # a sum of squares of 2^530-scaled coordinates overflows and one of
    # 2^-530-scaled coordinates underflows; the power-of-two scaling keeps
    # both exact, and the unscaled values are the plain trace-form ones
    for seed in range(10):
        x, y = random_element(algebra, 2 * seed), random_element(algebra, 2 * seed + 1)
        assert norm(x) == math.sqrt(inner_product(x, x))
        for k in (530, -530):
            xs, ys = (Element(algebra, np.ldexp(z.coords, k)) for z in (x, y))
            assert norm(xs) == math.ldexp(norm(x), k)
            assert distance(xs, ys) == math.ldexp(distance(x, y), k)


def test_lengths_of_a_stack_are_its_rows_lengths():
    # one call over a stack [..., m] gives each row's length, each row with
    # its own power of two: sqrt(vecdot) itself in the normal range, and
    # exact where the row's sum of squares overflows or underflows
    rows = np.random.default_rng(7).standard_normal((2, 4, 5))
    w = np.array([1.0, 2.0, 2.0, 1.0, 2.0])
    assert np.array_equal(_lengths(rows, w), np.sqrt(np.vecdot(w * rows, rows)))
    for k in (600, -600, 1000, -1000):
        assert np.array_equal(_lengths(np.ldexp(rows, k), w), np.ldexp(_lengths(rows, w), k))
    mixed = np.ldexp([[3.0, 4.0], [3.0, 4.0], [0.0, 0.0], [1.0, 0.0]], [[700], [-700], [0], [-1074]])
    assert _lengths(mixed).tolist() == [math.ldexp(5.0, 700), math.ldexp(5.0, -700), 0.0, 5e-324]
    # up to the largest double a length is exact; past it, a NumericError
    top = np.array([[1.7976931348623157e308, 0.0], [1.2e308, 1.2e308]])
    assert _lengths(top).tolist() == [1.7976931348623157e308, math.hypot(1.2e308, 1.2e308)]
    with pytest.raises(NumericError, match="past the largest double"):
        _lengths(np.vstack([top, [1.3e308, 1.3e308]]))


def test_only_algebra_sums_squares():
    # every length goes through `algebra._lengths`; nnls keeps its own
    # residual norms, whose rows it scales to max |entry| 1 first
    src = pathlib.Path(jspec.__file__).parent
    offenders = [
        f.name for f in sorted(src.glob("*.py"))
        if f.name not in ("algebra.py", "nnls.py") and re.search(r"linalg\.norm|vecdot", f.read_text())
    ]
    assert not offenders, f"{offenders} sum squares outside algebra._lengths"


def test_every_lapack_call_goes_through_the_guard():
    # each np.linalg function is passed to `algebra._lapack`, never called
    # nor imported on its own: a LinAlgError is a ValueError, which the CLI
    # reads as an input error, and a NaN result could become a verdict
    src = pathlib.Path(jspec.__file__).parent
    offenders = []
    for f in sorted(src.glob("*.py")):
        tree = ast.parse(f.read_text())
        guarded = {id(fn) for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and ast.unparse(node.func).endswith("_lapack") and node.args
                   for fn in ast.walk(node.args[0])}  # a conditional passes either branch
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node):
                offenders.append(f"{f.name}:{node.lineno}")
            elif (isinstance(node, ast.Attribute) and ast.unparse(node.value).endswith("linalg")
                  and node.attr != "LinAlgError" and id(node) not in guarded):
                offenders.append(f"{f.name}:{node.lineno}")
    assert not offenders, f"np.linalg used outside algebra._lapack at {offenders}"


def test_the_packed_order_has_one_derivation():
    # every reader of the packed lower triangle takes its entries from
    # `algebra._make_layout`, the one function that derives them
    triangles = {"tril_indices", "triu_indices", "tril", "triu"}
    src = pathlib.Path(jspec.__file__).parent
    offenders = []
    for f in sorted(src.glob("*.py")):
        tree = ast.parse(f.read_text())
        defs = [d for d in ast.walk(tree) if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in triangles
                    or isinstance(node, ast.alias) and node.name in triangles):
                # ast.walk is breadth first: the last def around the line is the innermost
                around = [d.name for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                offenders.append(f"{f.stem}.{around[-1] if around else '<module>'}")
    offenders = sorted(set(offenders) - {"algebra._make_layout"})
    assert not offenders, f"{offenders} derive a triangle outside algebra._make_layout"


def test_norm_of_a_subnormal_element():
    a = coordinate_algebra(2)
    tiny = math.ldexp(1.0, -1074)  # the smallest subnormal double
    assert norm(Element(a, np.array([tiny, 0.0]))) == tiny
    assert norm(Element(a, np.zeros(2))) == 0.0
    assert distance(Element(a, np.array([tiny, 0.0])), Element(a, np.array([0.0, tiny]))) > 0.0
