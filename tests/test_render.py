"""The JSON renderer against a one-call-per-node reference renderer, and
the element emitter against documents built in the test and rendered by
that reference."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jspec.algebra import (
    ComplexHermitian,
    Element,
    ProductAlgebra,
    RealSymmetric,
    SpinFactor,
    matrix_of,
)
from jspec.errors import NumericError
from jspec.io import _Json, _element_texts, _float_rows, emit_algebra, emit_element, parse_element, render_json


def oracle(value) -> str:
    """The renderer as it was before floats were formatted a row at a time."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericError(f"cannot render the non-finite number {value!r} as JSON")
        return format(value, ".17g")
    if value is None or isinstance(value, (bool, int, str)):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {oracle(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(oracle, value)) + "]"
    raise TypeError(f"cannot render {type(value)!r}")


def outcome(render, value):
    try:
        return render(value)
    except (NumericError, TypeError) as exc:
        return type(exc), str(exc)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1.0, 2.5e-8]
NON_FINITE = [math.nan, math.inf, -math.inf]

finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
ints = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40), st.sampled_from([2**63, -(2**64) - 1]))
text = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t é漢\U0001f600'), st.characters()),
    max_size=8,
)
numpy_values = st.one_of(
    finite_floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4), elements=finite_floats),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=4)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=2, max_side=4)),
)
leaves = st.one_of(finite_floats, ints, st.booleans(), st.none(), text, numpy_values)
rows = st.one_of(
    st.lists(finite_floats, max_size=6),
    st.lists(st.one_of(finite_floats, ints), max_size=6),
    st.lists(st.booleans(), max_size=4),
)


@st.composite
def float_matrices(draw):
    """A list of float rows: equal-length, possibly empty, or made ragged,
    or given one int or -0.0 cell."""
    cols = draw(st.integers(0, 5))
    matrix = draw(st.lists(st.lists(finite_floats, min_size=cols, max_size=cols), max_size=5))
    if matrix and cols:
        i, j = draw(st.integers(0, len(matrix) - 1)), draw(st.integers(0, cols - 1))
        change = draw(st.sampled_from(["none", "ragged", "int", "negative-zero", "tuple-row"]))
        if change == "ragged":
            matrix[i].pop(j)
        elif change == "int":
            matrix[i][j] = draw(ints)
        elif change == "negative-zero":
            matrix[i][j] = -0.0
        elif change == "tuple-row":
            matrix[i] = tuple(matrix[i])
    return matrix


matrices = st.one_of(
    float_matrices(),
    st.integers(0, 3).map(lambda rows: [[] for _ in range(rows)]),  # empty rows
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(text, st.integers(-5, 5)), children, max_size=4),
    )


payloads = st.recursive(st.one_of(leaves, rows, matrices), containers, max_leaves=10)


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_render_matches_reference(value):
    rendered = render_json(value)
    assert rendered == oracle(value)
    json.loads(rendered)


@st.composite
def payloads_with_a_non_finite(draw):
    """A payload with one NaN or infinity placed inside a float row (a
    list or tuple of floats), inside a mixed row, or as a bare value."""
    bad = draw(st.sampled_from(NON_FINITE))
    row = draw(st.lists(finite_floats, max_size=5))
    row.insert(draw(st.integers(0, len(row))), bad)
    if draw(st.booleans()):
        row.append(draw(st.sampled_from(NON_FINITE)))  # only the first one is named
    spot = draw(st.sampled_from([row, tuple(row), row + [1], bad, np.array(row)]))
    items = draw(st.lists(payloads, max_size=2))
    items.insert(draw(st.integers(0, len(items))), spot)
    return draw(st.sampled_from([items, tuple(items), {"k": items}]))


@settings(max_examples=50, deadline=None)
@given(payloads_with_a_non_finite())
def test_non_finite_raises_like_reference(value):
    expected = outcome(oracle, value)
    assert expected[0] is NumericError
    assert outcome(render_json, value) == expected


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, b"raw", np.complex128(1j), [0.5, {"k": 2j}]])
def test_unknown_type_raises_type_error(value):
    expected = outcome(oracle, value)
    assert expected[0] is TypeError
    assert outcome(render_json, value) == expected


@settings(max_examples=100, deadline=None)
@given(float_matrices())
def test_float_matrix_matches_reference(matrix):
    rendered = render_json(matrix)
    assert rendered == oracle(matrix)
    assert json.loads(rendered) == json.loads(oracle(matrix))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=1, max_size=4),
    st.data(),
)
def test_non_finite_cell_of_a_matrix_raises_like_reference(matrix, data):
    i = data.draw(st.integers(0, len(matrix) - 1))
    j = data.draw(st.integers(0, 2))
    matrix[i][j] = data.draw(st.sampled_from(NON_FINITE))
    expected = outcome(oracle, matrix)
    assert expected[0] is NumericError
    assert outcome(render_json, matrix) == expected
    assert outcome(render_json, {"m": [matrix, matrix]}) == outcome(oracle, {"m": [matrix, matrix]})


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, 2.5], [-0.0, 3.0]],
        [[1.0, 2.5], [3.0]],
        [[1.0, 2], [3.0, 4.0]],
        [[], []],
        [[0.5], [0.25], [0.125]],
        [[1.0, 2.0], (3.0, 4.0)],
        [[[1.0]], [[2.0]]],
    ],
    ids=["negative-zero", "ragged", "int-cell", "empty-rows", "one-column", "tuple-row", "nested"],
)
def test_float_matrix_cases(matrix):
    assert render_json(matrix) == oracle(matrix)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                  elements=st.one_of(finite_floats, st.sampled_from(NON_FINITE))))
def test_float_rows_match_reference(rows):
    # the rows a `components` representative is written with
    assert outcome(lambda r: render_json(_float_rows(r)), rows) == outcome(oracle, rows)


# ---------------------------------------------------------------------------
# the element emitter

MAX = 1.7976931348623157e308
EMITTED_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS + [MAX, -MAX]), finite_floats)
simple_algebras = st.one_of(
    st.integers(1, 3).map(RealSymmetric),
    st.integers(1, 3).map(ComplexHermitian),
    st.integers(3, 4).map(SpinFactor),
)
# a product of products flattens, so nesting reaches the same factor lists
algebras = st.recursive(
    simple_algebras,
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda fs: ProductAlgebra(tuple(fs))),
    max_leaves=4,
)


def factor_blocks(a, coords):
    """Each factor of a product with its block of coords [..., dim]."""
    offs = np.cumsum([0] + [f.dim for f in a.factors])
    return [(f, coords[..., i:j]) for f, i, j in zip(a.factors, offs, offs[1:])]


def reference_doc(a, coords) -> dict:
    """The element document as a tree built from `matrix_of(...).tolist()`."""
    if isinstance(a, RealSymmetric):
        data = matrix_of(a, coords).tolist()
    elif isinstance(a, ComplexHermitian):
        m = matrix_of(a, coords)
        data = {"re": m.real.tolist(), "im": m.imag.tolist()}
    elif isinstance(a, SpinFactor):
        data = {"x0": float(coords[0]), "xbar": coords[1:].tolist()}
    else:
        data = {"factors": [reference_doc(f, c) for f, c in factor_blocks(a, coords)]}
    return {"alg": emit_algebra(a), "data": data}


def reference_numbers(a, coords) -> np.ndarray:
    """The matrix entries of the matrix factors of the rows of coords."""
    if isinstance(a, (RealSymmetric, ComplexHermitian)):
        return matrix_of(a, coords).view(float).ravel()
    if isinstance(a, SpinFactor):
        return np.zeros(0)
    return np.concatenate([reference_numbers(f, c) for f, c in factor_blocks(a, coords)])


@st.composite
def element_stacks(draw, min_rows=0):
    a = draw(algebras)
    rows = draw(st.integers(min_rows, 3))
    return a, draw(hnp.arrays(np.float64, (rows, a.dim), elements=EMITTED_FLOATS))


SYM7_HERM6_SPIN4 = ProductAlgebra((RealSymmetric(7), ComplexHermitian(6), SpinFactor(4)))


def _signed_zeros(a, seed):
    """Two rows of coordinates of `a` with +0.0 and -0.0 spread among them."""
    coords = np.random.default_rng(seed).standard_normal((2, a.dim))
    coords[0, ::5], coords[1, 1::7] = -0.0, 0.0
    return coords


@settings(max_examples=30, deadline=None)
@given(element_stacks())
# lower Im entries +0.0, -0.0, +0.0: the upper ones print -0, 0, -0
@example((ComplexHermitian(3), np.array([[1.0, -0.0, 0.0, 2.0, 0.5, -0.0, 0.25, 0.0, -3.0]])))
# -0.0 off the diagonal (and on it) prints 0, as `matrix_of` unpacks it
@example((RealSymmetric(3), np.array([[1.0, -0.0, 2.0, -0.0, 0.5, -0.0], [-0.0] * 6])))
# the strategy draws n <= 3 only
@example((SYM7_HERM6_SPIN4, _signed_zeros(SYM7_HERM6_SPIN4, 7)))
def test_emitter_matches_reference(stack):
    a, coords = stack
    expected = [oracle(reference_doc(a, row)) for row in coords]
    assert _element_texts(a, coords) == expected
    assert render_json(_element_texts(a, coords)) == oracle([reference_doc(a, c) for c in coords])
    for row, text in zip(coords, expected):
        assert render_json(emit_element(Element(a, row))) == text


@settings(max_examples=25, deadline=None)
@given(element_stacks(min_rows=1), st.data())
def test_emitter_names_the_first_non_finite_in_document_order(stack, data):
    a, coords = stack
    for _ in range(data.draw(st.integers(1, 2))):
        i, j = data.draw(st.integers(0, len(coords) - 1)), data.draw(st.integers(0, a.dim - 1))
        coords[i, j] = data.draw(st.sampled_from(NON_FINITE))
    expected = outcome(oracle, [reference_doc(a, row) for row in coords])
    assert expected[0] is NumericError
    assert outcome(lambda c: render_json(_element_texts(a, c)), coords) == expected


@settings(max_examples=25, deadline=None)
@given(element_stacks(min_rows=1))
@example((ComplexHermitian(2), np.full((1, 4), -0.0)))
def test_emitted_element_parses_back(stack):
    # symmetrizing (m + m.T) / 2 on read overflows past MAX / 2, which the
    # parser rejects as non-finite; every other element comes back bit for
    # bit, up to the sign of a zero in a real symmetric factor, which
    # `matrix_of` unpacks as +0.0
    a, coords = stack
    x = Element(a, coords[0])
    doc = emit_element(x)
    if (np.abs(reference_numbers(a, coords[:1])) > MAX / 2).any():
        with pytest.raises(ValueError, match="finite"):
            parse_element(doc)
        return
    back = parse_element(doc)
    assert np.array_equal(back.coords, x.coords)  # equal values: equal bits, but for the sign of 0
    factors = factor_blocks(a, np.stack([back.coords, x.coords])) if isinstance(a, ProductAlgebra) else [
        (a, np.stack([back.coords, x.coords]))
    ]
    for f, (got, want) in factors:
        if not isinstance(f, RealSymmetric):  # Hermitian and spin: zeros keep their sign too
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_render_json_peaks_near_its_output_length():
    # the pieces of a document are joined once: the writer holds no
    # whole-document copy beside the text it returns
    row = _Json("[" + ", ".join(["0.12345678901234567"] * 5000) + "]")
    payload = {"rows": [row] * 40, "values": [0.1 * i for i in range(2000)]}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = render_json(payload)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 4_000_000
    assert peak <= 1.5 * len(text)
