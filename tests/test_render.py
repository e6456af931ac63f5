"""The JSON renderer against a one-call-per-node reference renderer, and
the element emitter against documents built in the test and rendered by
that reference."""

import ast
import json
import math
import os
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
    coords_of,
    matrix_of,
    random_element,
)
from jspec.errors import NumericError
from jspec.io import (
    _CHUNK,
    _g17,
    _g17_digits,
    _Raw,
    _element_array,
    _element_texts,
    _plan,
    emit_algebra,
    emit_element,
    SYMMETRY_TOL,
    parse_element,
    render_json,
)
from jspec.spectral import _idempotent_coords, spectral_decompose

from conftest import source_offenders


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
    assert outcome(lambda r: "[" + ", ".join(_element_texts(r.shape[1], r)) + "]", rows) == outcome(oracle, rows)


# ---------------------------------------------------------------------------
# the stacked %.17g kernel

# every finite double, from its bits, or from hypothesis's float strategy
# (subnormals, -0.0 and the edges of the range included)
any_double = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    any_double.filter(math.isfinite),
)


def g17_texts(values) -> list[str]:
    """The rows of `_g17`, decoded: the text of each number."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in _g17(values)]


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40), elements=finite_doubles))
def test_g17_is_percent_17g(values):
    assert g17_texts(values) == ["%.17g" % v for v in values.tolist()]


MAX = 1.7976931348623157e308
# doubles exactly halfway between two 17-digit decimals, which `%` rounds
# to even: 16 integer digits and .25 or .75, 15 and .125, .375, .625 or .875
TIES = [1e15 + j + f for j in range(50) for f in (0.25, 0.75)] + [
    1e14 + j + f for j in range(50) for f in (0.125, 0.375, 0.625, 0.875)]


def _g17_battery() -> np.ndarray:
    """Powers of ten 1e-323 to 1e308 with their 3 neighbours on each side,
    the %g switch points, exact decimal ties, k/4, 5e-324 and +-MAX."""
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    steps = [tens]
    for direction in (np.inf, -np.inf):
        near = tens
        for _ in range(3):
            near = np.nextafter(near, direction)
            steps.append(near)
    switches = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999991e-5, 9.9999999999999995e-6, 9.9999999999999984e15]
    edges = [0.0, 5e-324, MAX, 2.2250738585072014e-308]
    battery = np.concatenate(steps + [switches, TIES, edges])
    return np.concatenate([battery, -battery, np.arange(-99999, 100000) / 4])


def test_g17_battery_is_percent_17g():
    battery = _g17_battery()
    assert g17_texts(battery) == ["%.17g" % v for v in battery.tolist()]


def test_g17_battery_reaches_the_fallback():
    # ties, subnormals and numbers past 1e280 are left to `%`; the rest is not
    battery = _g17_battery()
    _, _, fallback = _g17_digits(battery)
    assert set(TIES + [5e-324, MAX]) <= set(battery[fallback].tolist())
    assert fallback.size < battery.size // 10


# ---------------------------------------------------------------------------
# the element emitter

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
    assert render_json(_element_array(a, coords)) == oracle([reference_doc(a, c) for c in coords])
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
    assert outcome(lambda c: render_json(_element_array(a, c)), coords) == expected


@settings(max_examples=25, deadline=None)
@given(element_stacks(min_rows=1))
@example((ComplexHermitian(2), np.full((1, 4), -0.0)))
# entries past MAX / 2, where the sum m + m.T of symmetrizing overflows
@example((ProductAlgebra((RealSymmetric(2), ComplexHermitian(2))),
          np.array([[MAX, -1e308, 1.5e308, -MAX, 9e307, -1.2e308, 5e-324]])))
def test_emitted_element_parses_back(stack):
    # every element comes back bit for bit, entries past MAX / 2 included,
    # up to the sign of a zero in a real symmetric factor, which
    # `matrix_of` unpacks as +0.0
    a, coords = stack
    x = Element(a, coords[0])
    back = parse_element(emit_element(x))
    assert np.array_equal(back.coords, x.coords)  # equal values: equal bits, but for the sign of 0
    factors = factor_blocks(a, np.stack([back.coords, x.coords])) if isinstance(a, ProductAlgebra) else [
        (a, np.stack([back.coords, x.coords]))
    ]
    for f, (got, want) in factors:
        if not isinstance(f, RealSymmetric):  # Hermitian and spin: zeros keep their sign too
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


SYM16_HERM8_SPIN6 = ProductAlgebra((RealSymmetric(16), ComplexHermitian(8), SpinFactor(6)))
# numbers left to `%`, and signed zeros
CHUNK_EDGE_FLOATS = [1000000000000000.25, 5e-324, MAX, -MAX, 1e281, -0.0, 0.0]


def _chunk_edge_stack(a, rows, seed):
    """Rows of coordinates of `a` with the floats of CHUNK_EDGE_FLOATS in
    the first and last row of every chunk, once among all coordinates and
    as many as fit among the lower Im coordinates of the Hermitian factors,
    whose upper Im is written with its sign flipped."""
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((rows, a.dim)) * 10.0 ** rng.integers(-6, 7, (rows, a.dim))
    step = max(1, _CHUNK // a.dim)
    assert rows > 2 * step  # three chunks or more
    flip = _plan(a).flip
    for r in sorted({*range(0, rows, step), *range(step - 1, rows, step), rows - 1}):
        coords[r, rng.choice(a.dim, len(CHUNK_EDGE_FLOATS), replace=False)] = CHUNK_EDGE_FLOATS
        lower = rng.permutation(flip)[: len(CHUNK_EDGE_FLOATS)]
        coords[r, lower] = rng.permutation(CHUNK_EDGE_FLOATS)[: lower.size]
    return coords


def assert_same_text(got, want):
    """got == want for long texts, or lists of them compared joined: a
    failure shows the first difference in context, where pytest's own diff
    of a long one-line text takes minutes."""
    if not isinstance(got, str):
        got, want = "\n".join(got), "\n".join(want)
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        assert got[max(0, i - 60) : i + 60] == want[max(0, i - 60) : i + 60], f"the texts differ at {i}"


@pytest.mark.parametrize("a, rows", [(RealSymmetric(40), 12), (ComplexHermitian(4), 600), (SYM16_HERM8_SPIN6, 60)],
                         ids=["sym40", "herm4", "sym16xherm8xspin6"])
def test_emitter_matches_reference_across_chunks(a, rows):
    coords = _chunk_edge_stack(a, rows, rows)
    assert_same_text(_element_texts(a, coords), [oracle(reference_doc(a, row)) for row in coords])
    for k in (0, 1, rows):
        assert_same_text(render_json(_element_array(a, coords[:k])), "[" + ", ".join(_element_texts(a, coords[:k])) + "]")


@pytest.mark.parametrize("a, coords", [
    (RealSymmetric(40), lambda: _idempotent_coords(spectral_decompose(random_element(RealSymmetric(40), 3))[0])),
    (ComplexHermitian(4), lambda: np.random.default_rng(4).standard_normal((2000, 16))),
], ids=["sym40-frame", "herm4x2000"])
def test_element_texts_peak_near_their_output_length(a, coords):
    # numbers, number rows and gathered words live one chunk at a time:
    # the peak is the stack's texts and one chunk's arrays, where a
    # whole-stack gather peaks at ~8x the texts
    coords = coords()
    _element_texts(a, coords[:1])  # the plan, built once per algebra
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        texts = _element_texts(a, coords)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * sum(map(len, texts))


def test_pre_rendered_text_has_one_type():
    # text the renderer writes unchanged is an `io._Raw`; no other class
    # subclasses str or list
    def text_types(tree):
        return (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                and any(ast.unparse(base).rpartition(".")[2] in ("str", "list") for base in node.bases))

    offenders = source_offenders(text_types)
    assert offenders == ["io._Raw"], f"{offenders} subclass str or list"


def test_render_json_peaks_near_its_output_length():
    # the pieces of a document are joined once: the writer holds no
    # whole-document copy beside the text it returns
    row = _Raw(["[" + ", ".join(["0.12345678901234567"] * 5000) + "]"])
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


def _mean(m, n):
    """(m + n) / 2, and where the sum overflows, m / 2 + n / 2: there m == n
    once the symmetry check has passed, so that is exact."""
    mean = (m + n) / 2.0
    return np.where(np.isinf(mean), m / 2.0 + n / 2.0, mean)


def reference_parse(a, data):
    """A matrix-kind element document read by whole matrices, as it was
    before the reader took the entries in pairs: the checks of m - m.T (of
    re - re.T, then im + im.T), then the coordinates of the mean of m and
    m.T (`_mean`) and their finiteness, and that of the diagonal of im,
    which is in no coordinate; the message of the first fault, or the
    coordinates."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(a, RealSymmetric):
            m = np.array(data, dtype=float)
            skew = float(np.abs(m - m.T).max())
            if skew > SYMMETRY_TOL:
                return f"element: matrix is not symmetric (deviation {skew:.3e})"
            coords = coords_of(a, _mean(m, m.T))
        else:
            re, im = np.array(data["re"], dtype=float), np.array(data["im"], dtype=float)
            sk_re, sk_im = float(np.abs(re - re.T).max()), float(np.abs(im + im.T).max())
            if sk_re > SYMMETRY_TOL:
                return f"element: re part not symmetric (deviation {sk_re:.3e})"
            if sk_im > SYMMETRY_TOL:
                return f"element: im part not antisymmetric (deviation {sk_im:.3e})"
            m = np.empty(re.shape, dtype=complex)
            m.real, m.imag = _mean(re, re.T), _mean(im, -im.T)
            coords = coords_of(a, m)
            if not np.isfinite(np.diag(im)).all():
                return "element: coordinates must be finite numbers"
    if not np.isfinite(coords).all():
        return "element: coordinates must be finite numbers"
    return coords


_PARSE_ENTRIES = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-13, -3e-12, 1e308, -1.5e308, 5e-324, math.nan, math.inf, -math.inf]


@st.composite
def matrix_documents(draw):
    """sym or herm n documents from a pool of entries with signed zeros,
    near-ties of the tolerance, overflowing sums and non-finite numbers;
    mostly (anti)symmetric before a few entries are changed."""
    herm, n = draw(st.booleans()), draw(st.integers(1, 4))
    parts = []
    for sign in ((1.0, -1.0) if herm else (1.0,)):
        m = draw(hnp.arrays(float, (n, n), elements=st.sampled_from(_PARSE_ENTRIES)))
        if draw(st.booleans()):
            low = np.tril(np.ones((n, n), dtype=bool), -1)
            m[low.T] = (sign * m.T)[low.T]
        for _ in range(draw(st.integers(0, 2))):
            m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.sampled_from(_PARSE_ENTRIES))
        parts.append(m)
    a = (ComplexHermitian if herm else RealSymmetric)(n)
    data = {"re": parts[0].tolist(), "im": parts[1].tolist()} if herm else parts[0].tolist()
    return a, data


@settings(max_examples=300, deadline=None)
@given(matrix_documents())
def test_matrix_documents_parse_as_whole_matrices(doc):
    # the same first fault and message, or the same coordinates bit for bit
    a, data = doc
    want = reference_parse(a, data)
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            parse_element({"alg": emit_algebra(a), "data": data})
        assert str(info.value) == want
    else:
        got = parse_element({"alg": emit_algebra(a), "data": data}).coords
        assert got.tobytes() == want.tobytes()
