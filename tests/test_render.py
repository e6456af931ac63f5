"""The JSON renderer against a one-call-per-node reference renderer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jspec.errors import NumericError
from jspec.io import render_json


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
    st.lists(finite_floats, max_size=6),  # the one-format-call fast path
    st.lists(st.one_of(finite_floats, ints), max_size=6),
    st.lists(st.booleans(), max_size=4),
)


@st.composite
def float_matrices(draw):
    """A list of float rows: equal-length (one format call per matrix),
    possibly empty, or made ragged, or given one int or -0.0 cell."""
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
