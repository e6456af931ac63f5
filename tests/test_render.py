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


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(text, st.integers(-5, 5)), children, max_size=4),
    )


payloads = st.recursive(st.one_of(leaves, rows), containers, max_leaves=10)


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
