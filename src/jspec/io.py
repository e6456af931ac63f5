"""JSON documents for elements, algebra descriptors, permutation-invariant
sets, coefficient paths, and certificates, plus a deterministic renderer.

Element payloads are redundant on purpose (full matrices, not packed
coordinates): symmetry and antisymmetry are validated on read within
SYMMETRY_TOL and the parse/emit round trip is value-exact.  Floats render
with 17 significant digits (`%.17g`), which round-trips IEEE doubles.  The
renderer dispatches on exact Python types and formats a lone float with
`%`.  A stack of floats is formatted by `_g17`, one pass of numpy kernels
that gives the bytes of `%.17g` and leaves to `%` only the numbers whose
rounding it cannot be sure of.  Element documents have one emitter, from
coordinates: each coordinate is a distinct number of the document and is
formatted once per element of a coordinate stack, the entries (i, j) and
(j, i) of a symmetric pair share its text, and the upper Im of a
Hermitian pair is formatted as the lower one negated.  One cached plan
per algebra gathers those texts and the literal pieces of the document's
template (descriptor text and the text between the numbers) into
document order, one join makes the element's text, and the renderer
writes that text unchanged; `emit_element` is the same text decoded.  The
renderer appends a document's pieces to one list and `render_json` joins
them once, so the CLI writes each document, trailing newline included,
from one join and one write.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from . import algebra as alg
from .algebra import (
    Algebra,
    ComplexHermitian,
    Element,
    ProductAlgebra,
    RealSymmetric,
    SpinFactor,
)
from .errors import NumericError
from .orbits import PathPolyline
from .permsets import (
    PermSet,
    make_finite_orbit,
    make_rearrangement_cone,
    make_trace_halfspace,
    make_trace_norm_cone,
)
from .spectralsets import DecompositionCertificate

SYMMETRY_TOL = 1e-12

__all__ = [
    "SYMMETRY_TOL",
    "parse_algebra",
    "emit_algebra",
    "parse_element",
    "emit_element",
    "parse_permset",
    "parse_qpath",
    "parse_numbers",
    "parse_certificate",
    "emit_polyline",
    "render_json",
]


def _need(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    return doc[key]


def _need_int(doc: dict, key: str, where: str) -> int:
    value = _need(doc, key, where)
    if type(value) is not int:  # JSON true parses to bool, an int subclass
        raise ValueError(f"{where}: {key!r} must be a JSON integer, got {value!r}")
    return value


def parse_numbers(data, where: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array.  Only JSON
    integers and floats are numbers: `true`, strings and `null` are input
    errors, never coerced."""
    shape, leaves = [], [data]
    while leaves and type(leaves[0]) is list:
        try:
            (length,) = set(map(len, leaves))
        except (TypeError, ValueError):  # a number next to a list, or ragged rows
            raise ValueError(f"{where}: nested lists must have one shape") from None
        shape.append(length)
        leaves = list(itertools.chain.from_iterable(leaves))
    found = sorted(t.__name__ for t in set(map(type, leaves)) - {int, float})
    if found:
        raise ValueError(f"{where}: expected JSON numbers, got {', '.join(found)}")
    try:
        return np.array(leaves, dtype=float).reshape(shape)
    except OverflowError:
        raise ValueError(f"{where}: an integer is too large for a float") from None


def _as_matrix(data, n: int, where: str) -> np.ndarray:
    m = parse_numbers(data, where)
    if m.shape != (n, n):
        raise ValueError(f"{where}: expected an {n}x{n} matrix, got shape {m.shape}")
    return m


# ---------------------------------------------------------------------------
# algebra descriptors


def parse_algebra(doc) -> Algebra:
    """An algebra descriptor.  Nested products are walked depth first with
    an explicit stack into the flat factor list that `ProductAlgebra` keeps,
    so any nesting the JSON decoder accepts parses without recursion."""
    simple, todo = [], [doc]
    while todo:
        d = todo.pop()
        kind = _need(d, "kind", "algebra")
        if kind == "sym":
            simple.append(RealSymmetric(_need_int(d, "n", "algebra")))
        elif kind == "herm":
            simple.append(ComplexHermitian(_need_int(d, "n", "algebra")))
        elif kind == "spin":
            simple.append(SpinFactor(_need_int(d, "d", "algebra")))
        elif kind == "product":
            factors = _need(d, "factors", "algebra")
            if not isinstance(factors, list) or not factors:
                raise ValueError("algebra: product needs a nonempty factor list")
            todo.extend(reversed(factors))
        else:
            raise ValueError(f"algebra: unknown kind {kind!r}")
    return ProductAlgebra(tuple(simple)) if doc["kind"] == "product" else simple[0]


def emit_algebra(a: Algebra) -> dict:
    if isinstance(a, RealSymmetric):
        return {"kind": "sym", "n": a.n}
    if isinstance(a, ComplexHermitian):
        return {"kind": "herm", "n": a.n}
    if isinstance(a, SpinFactor):
        return {"kind": "spin", "d": a.d}
    return {"kind": "product", "factors": [emit_algebra(f) for f in a.factors]}


# ---------------------------------------------------------------------------
# elements


def parse_element(doc) -> Element:
    a = parse_algebra(_need(doc, "alg", "element"))
    data = _need(doc, "data", "element")
    # checked on the symmetrized coordinates, where (m + m.T) / 2 may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        x = _parse_element_data(a, data)
    if not np.isfinite(x.coords).all():
        raise ValueError("element: coordinates must be finite numbers")
    return x


def _parse_element_data(a: Algebra, data) -> Element:
    if isinstance(a, RealSymmetric):
        m = _as_matrix(data, a.n, "element")
        skew = float(np.abs(m - m.T).max())
        if skew > SYMMETRY_TOL:
            raise ValueError(f"element: matrix is not symmetric (deviation {skew:.3e})")
        return alg.element_from_sym(a, (m + m.T) / 2.0)
    if isinstance(a, ComplexHermitian):
        re = _as_matrix(_need(data, "re", "element"), a.n, "element re")
        im = _as_matrix(_need(data, "im", "element"), a.n, "element im")
        sk_re = float(np.abs(re - re.T).max())
        sk_im = float(np.abs(im + im.T).max())
        if sk_re > SYMMETRY_TOL:
            raise ValueError(f"element: re part not symmetric (deviation {sk_re:.3e})")
        if sk_im > SYMMETRY_TOL:
            raise ValueError(f"element: im part not antisymmetric (deviation {sk_im:.3e})")
        m = np.empty(re.shape, dtype=complex)  # parts set in place: zeros keep their sign
        m.real, m.imag = (re + re.T) / 2.0, (im - im.T) / 2.0
        return alg.element_from_herm(a, m)
    if isinstance(a, SpinFactor):
        x0 = parse_numbers(_need(data, "x0", "element"), "element x0")
        if x0.shape != ():
            raise ValueError("element: x0 must be a number")
        xbar = parse_numbers(_need(data, "xbar", "element"), "element xbar")
        if xbar.shape != (a.d - 1,):
            raise ValueError(f"element: xbar must have length {a.d - 1}")
        return alg.element_from_spin(a, float(x0), xbar)
    factor_docs = _need(data, "factors", "element")
    if not isinstance(factor_docs, list) or len(factor_docs) != len(a.factors):
        raise ValueError(
            f"element: product data needs {len(a.factors)} factor documents"
        )
    parts = []
    for fdoc, fa in zip(factor_docs, a.factors):
        part = parse_element(fdoc)
        if part.algebra != fa:
            raise ValueError(
                f"element: factor document algebra {part.algebra} does not match {fa}"
            )
        parts.append(part)
    return alg.join_product(a, parts)


class _Json(str):
    """JSON text that `_render` writes unchanged."""


# ---------------------------------------------------------------------------
# %.17g for a stack of floats

_G17_POW = 282  # the tables hold 10^k and 10^(16 - k) for k in [-_G17_POW, _G17_POW]
_G17_CHUNK = 4096  # numbers per `_g17` call in `_element_texts`
_G17_FALLBACK = 25 * 17  # the layout of a placeholder ".", for a number left to `%`


def _g17_layout(x: int, nd: int) -> list[int]:
    """Byte positions, in a number's source row (see `_g17`), of the text
    `%.17g` writes for a number with decimal exponent x and nd significant
    digits: fixed notation for -4 <= x < 17, else a mantissa and an
    exponent of at least two digits."""
    digits = list(range(3, 20))
    if 0 <= x < 17:
        return [0] + digits[: x + 1] + ([2] + digits[x + 1 : nd] if nd > x + 1 else [])
    if -4 <= x < 0:
        return [0, 1, 2] + [1] * (-x - 1) + digits[:nd]
    return [0, 3] + ([2] + digits[1:nd] if nd > 1 else []) + [24, 26 if x < 0 else 25] + (
        [21, 22, 23] if abs(x) >= 100 else [22, 23])


@functools.cache
def _g17_tables():
    """The tables of `_g17`, built at its first call.  For k = j - _G17_POW,
    `tens[:, j]` holds the least double >= 10^k, then 10^(16 - k) as hi +
    lo, from exact integer ratios, with hi also split into 26-bit halves
    for Dekker's product.  `quad[q]` is the four ASCII digits of q in one
    uint32 and `zeros[q]` the count of trailing zeros among them.  Layout
    17 f + nd - 1 of `layouts` is the text of nd significant digits in
    notation f (fixed with decimal exponent f - 4 for f < 21, then mantissa
    with exponent e+dd, e+ddd, e-dd or e-ddd), padded with spaces; a
    number's layout is `form[k + _G17_POW]` = 17 f + 16 less its count of
    trailing zeros."""
    his, los = [], []
    for s in range(-_G17_POW, _G17_POW + 17):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = num / den  # int / int rounds correctly
        hn, hd = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hd - hn * den) / (den * hd))
    hi, lo = np.array(his), np.array(los)
    ceil = np.where(lo > 0, np.nextafter(hi, np.inf), hi)[: 2 * _G17_POW + 1]
    hi, lo = hi[:15:-1], lo[:15:-1]  # 10^(16 - k), k = -_G17_POW, ...
    split = 134217729.0 * hi
    high = split - (split - hi)
    tens = np.stack([ceil, hi, high, hi - high, lo])
    q = np.arange(10000, dtype=np.uint16)
    digits = [q // 1000, q // 100 % 10, q // 10 % 10, q % 10]
    quad = (np.stack(digits, axis=1) + 48).astype(np.uint8).view("<u4").ravel()
    zeros = np.cumprod(np.stack(digits[::-1]) == 0, axis=0, dtype=np.uint8).sum(axis=0, dtype=np.uint8)
    xs = np.arange(-_G17_POW, _G17_POW + 1)
    form = np.where((xs >= -4) & (xs < 17), xs + 4, 21 + 2 * (xs < 0) + (np.abs(xs) >= 100)) * 17 + 16
    layouts = np.full((_G17_FALLBACK + 1, 25), 27, dtype=np.intp)
    for f, x in enumerate([*range(-4, 17), 17, 100, -5, -100]):
        for nd in range(1, 18):
            idx = _g17_layout(x, nd)
            layouts[f * 17 + nd - 1, : len(idx)] = idx
    layouts[_G17_FALLBACK, 0] = 2
    return tens, quad, zeros, form, layouts


def _g17_digits(v: np.ndarray):
    """The 17 correctly rounded digits D of each |v| as an integer in
    [1e16, 1e17), with k + _G17_POW for its decimal exponent k, and the
    positions of the numbers whose digits are in doubt.

    With k = floor(log10 |v|) (from `log10`, lowered once by an exact
    comparison with 10^k), D = round(|v| 10^(16 - k)) is taken from
    Dekker's exact product of |v| and the hi part of 10^(16 - k), plus |v|
    times its lo part: the error is below ~5e-15, so D is correct unless
    the product is within 1e-12 of a tie.  Those numbers, |v| outside
    [1e-280, 1e280), and a D outside [1e16, 1e17) (a log10 below k) are in
    doubt.  A zero has D = 0 and k = 0."""
    tens = _g17_tables()[0]
    a = np.abs(v)
    nonzero = a != 0
    inrange = (a >= 1e-280) & (a < 1e280)  # k and 16 - k in the tables
    a = np.where(inrange, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp) + _G17_POW
    k -= a < tens[0].take(k)
    _, hi, high, low, lo = tens.take(k, axis=1)
    split = 134217729.0 * a
    ahigh = split - (split - a)
    alow = a - ahigh
    p = a * hi  # an integer: D = p + round(t)
    t = (((ahigh * high - p) + ahigh * low + alow * high) + alow * low) + a * lo
    r = np.rint(t)
    d = p.astype(np.int64) + r.astype(np.int64)
    sure = inrange & (np.abs(t - r) < 0.5 - 1e-12) & (d >= 10**16) & (d < 10**17)
    d *= nonzero
    return d, k, np.flatnonzero(~sure & nonzero)


def _divmod(x: np.ndarray, m: int):
    """np.divmod(x, m) for int64 x >= 0, by one floor division, which
    numpy does fast for a constant m, where its `%` is slow."""
    q = x // m
    return q, x - q * m


def _g17(values) -> list[str]:
    """`'%.17g' % v` for each float of values, from one pass of numpy
    kernels over the stack (see `_g17_digits`); the numbers whose digits
    are in doubt, non-finite ones included, go to `%` itself, and a zero
    is written as "0" or "-0".

    Each number's source row of 28 bytes holds its sign (" " or "-"), "0",
    ".", its 17 digits, the four digits of |k|, "e", "+", "-" and " "; one
    gather picks its text by a layout keyed by the notation and exponent
    width and by the count of significant digits, and the texts, padded
    with spaces, are decoded and split at once."""
    v = np.asarray(values, dtype=float).ravel()
    _, quad, zeros, form, layouts = _g17_tables()
    d, k, fallback = _g17_digits(v)
    upper, lower = _divmod(d, 10**8)
    first, upper = _divmod(upper, 10**8)
    q1, q2 = _divmod(upper, 10**4)
    q3, q4 = _divmod(lower, 10**4)
    rows = np.empty((v.size, 7), dtype="<u4")
    rows[:, 0] = 0x302E3020 + (first << 24) + 13 * np.signbit(v)  # " 0." and D's first digit
    rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4] = quad[q1], quad[q2], quad[q3], quad[q4]
    rows[:, 5] = quad[np.abs(k - _G17_POW)]
    rows[:, 6] = 0x202D2B65  # "e+- "
    trailing = zeros[q4] + (q4 == 0) * (zeros[q3] + (q3 == 0) * (zeros[q2] + (q2 == 0) * zeros[q1]))
    key = form[k] - trailing
    key[fallback] = _G17_FALLBACK
    index = layouts.take(key, axis=0)
    index += np.arange(0, 28 * v.size, 28)[:, None]
    text = rows.view(np.uint8).take(index).tobytes()
    del index  # the largest array of a call: gone before the texts are made
    texts = text.decode("ascii").split()
    for i in fallback.tolist():
        texts[i] = "%.17g" % v[i]
    return texts


_Plan = namedtuple("_Plan", "template literals zero flip order gather")


@functools.lru_cache(maxsize=64)
def _plan(a: Algebra) -> _Plan:
    """How the element documents of `a` are written from coordinates.

    Every coordinate is a distinct number of the document, and the numbers
    of an element are `coords + zero`, where `zero` holds +0.0 on a real
    symmetric coordinate (a stored -0.0 unpacks as +0.0, as in `matrix_of`)
    and -0.0 elsewhere (the sign is kept), followed by their negations at
    `flip`: the lower Im (i, j) of a Hermitian factor, whose negation is
    its upper Im (j, i).  `template` is the document with one `%s` slot per
    number and the literal `0` of each Hermitian diagonal Im, and
    `literals` its pieces around the slots, `template.split("%s")`.
    `order` maps each slot to its number; `gather` is one `itemgetter` over
    the numbers' texts followed by the literals, which picks the document's
    pieces in document order: literal 0, slot 0, literal 1, ..., the last
    literal.  A product concatenates its factors' templates."""
    if isinstance(a, ProductAlgebra):
        blocks = alg._blocks(a)
        plans = [_plan(f) for f in a.factors]
        starts = np.cumsum([a.dim] + [p.flip.size for p in plans])  # of each factor's negations
        zero = np.concatenate([p.zero for p in plans])
        flip = np.concatenate([p.flip + c.start for p, (_, c, _) in zip(plans, blocks)])
        order = np.concatenate([
            np.where(p.order < f.dim, p.order + c.start, p.order - f.dim + k)
            for p, (f, c, _), k in zip(plans, blocks, starts)
        ])
        data = {"factors": [_Json(p.template) for p in plans]}
    elif isinstance(a, SpinFactor):
        zero, flip, order = np.full(a.dim, -0.0), np.zeros(0, np.intp), np.arange(a.dim)
        data = {"x0": _Json("%s"), "xbar": [_Json("%s")] * (a.d - 1)}
    elif isinstance(a, RealSymmetric):
        zero, flip, order = np.zeros(a.dim), np.zeros(0, np.intp), a._layout.full.ravel()
        data = [[_Json("%s")] * a.n] * a.n
    else:
        # Re (i, j) and Re (j, i) are one coordinate; the lower Im (i, j) is
        # the next one, and the upper Im (j, i), in its Im slot in `full`,
        # takes the negation of that coordinate
        lay, d = a._layout, np.arange(a.n)
        upper, diag = d[:, None] < d, d[:, None] == d
        flip = lay.low + 1
        negated = np.zeros(a.dim, dtype=np.intp)
        negated[flip] = a.dim + np.arange(flip.size)
        im = np.where(upper, negated[lay.full], lay.full + 1)
        zero, order = np.full(a.dim, -0.0), np.concatenate([(lay.full - upper).ravel(), im[~diag]])
        data = {
            "re": [[_Json("%s")] * a.n] * a.n,
            "im": [[_Json("0" if i == j else "%s") for j in range(a.n)] for i in range(a.n)],
        }
    template = render_json({"alg": emit_algebra(a), "data": data})
    literals = template.split("%s")
    # positions in texts + literals: literal 0, slot 0, literal 1, ...
    pieces = np.full(2 * len(literals) - 1, flip.size + a.dim)
    pieces[::2] += np.arange(len(literals))
    pieces[1::2] = order
    return _Plan(template, literals, zero, flip, order, operator.itemgetter(*pieces.tolist()))


def _element_texts(a: Algebra, coords) -> list[_Json]:
    """JSON text of each element of `a` with coordinates a row of coords
    [k, dim]: one finiteness check over the numbers of the stack, then
    `_g17` over a chunk of rows at a time, and per row one join of its
    numbers' texts and the template's literal pieces, gathered into
    document order."""
    plan = _plan(a)
    numbers = np.asarray(coords, dtype=float).reshape(-1, a.dim) + plan.zero
    if plan.flip.size:
        numbers = np.hstack([numbers, -numbers[:, plan.flip]])
    if not np.isfinite(numbers).all():
        doc = numbers[:, plan.order]
        bad = doc[~np.isfinite(doc)]  # in document order
        raise NumericError(f"cannot render the non-finite number {float(bad[0])!r} as JSON")
    literals, gather, width = plan.literals, plan.gather, numbers.shape[1]
    step = max(1, _G17_CHUNK // width)
    out = []
    for start in range(0, len(numbers), step):
        texts = _g17(numbers[start : start + step])
        for end in range(width, len(texts) + 1, width):
            row = texts[end - width : end]
            row += literals
            out.append(_Json("".join(gather(row))))
    return out


def _float_rows(rows) -> list[_Json]:
    """JSON text of each row of floats [k, n], the text `_render` writes for
    it: one finiteness check over the stack, then `_g17` over it."""
    rows = np.asarray(rows, dtype=float)
    bad = rows[~np.isfinite(rows)]
    if bad.size:
        raise NumericError(f"cannot render the non-finite number {float(bad[0])!r} as JSON")
    texts, n = _g17(rows), rows.shape[1]
    return [_Json("[" + ", ".join(texts[i * n : i * n + n]) + "]") for i in range(len(rows))]


def emit_element(x: Element) -> dict:
    """The text the CLI prints for x, decoded: "-0" as -0.0, "1" as an int."""
    (text,) = _element_texts(x.algebra, x.coords[None])
    return json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))


# ---------------------------------------------------------------------------
# permutation-invariant sets, paths, certificates


def parse_permset(doc) -> PermSet:
    tag = _need(doc, "set", "permset")
    if tag == "rearr":
        return make_rearrangement_cone(_need_int(doc, "n", "permset"), _need_int(doc, "m", "permset"))
    if tag == "tracenorm":
        return make_trace_norm_cone(_need_int(doc, "n", "permset"))
    if tag == "halfspace-trace":
        return make_trace_halfspace(_need_int(doc, "n", "permset"))
    if tag == "finite":
        points = _need(doc, "points", "permset")
        if not isinstance(points, list) or not points:
            raise ValueError("permset: finite set needs a nonempty point list")
        return make_finite_orbit([parse_numbers(p, "permset point") for p in points])
    raise ValueError(f"permset: unknown builder {tag!r}")


def parse_qpath(doc) -> list[np.ndarray]:
    vertices = _need(doc, "vertices", "qpath")
    if not isinstance(vertices, list) or not vertices:
        raise ValueError("qpath: needs a nonempty vertex list")
    out = [parse_numbers(v, "qpath vertex") for v in vertices]
    if not all(np.isfinite(v).all() for v in out):
        raise ValueError("qpath: vertices must be finite numbers")
    return out


def parse_certificate(doc) -> DecompositionCertificate:
    parts = _need(doc, "parts", "certificate")
    if not isinstance(parts, list) or not all(isinstance(part, list) for part in parts):
        raise ValueError("certificate: parts must be a list, each part a list of element documents")
    return DecompositionCertificate(
        tuple(tuple(parse_element(g) for g in part) for part in parts)
    )


def emit_polyline(path: PathPolyline) -> dict:
    """The `connect` document of a path for the CLI, the only caller: its
    `samples` are element text that only `render_json` writes."""
    return {
        "samples": _element_texts(path.algebra, path.coords),
        "max_step": path.max_step,
        "tolerance": path.tolerance,
    }


# ---------------------------------------------------------------------------
# deterministic rendering


def _render(value, out: list) -> None:
    """Append the JSON text of value to out; a `_Json` text goes in as is."""
    kind = type(value)
    if kind is _Json:
        out.append(value)
    elif kind is list or kind is tuple:
        out.append("[")
        for item in value:
            _render(item, out)
            out.append(", ")
        out[-1] = "]" if value else "[]"  # over the last separator, or the "["
    elif kind is dict:
        out.append("{")
        for k, v in value.items():
            out.append(_string(str(k)) + ": ")
            _render(v, out)
            out.append(", ")
        out[-1] = "}" if value else "{}"
    elif kind is float:
        if not math.isfinite(value):
            raise NumericError(f"cannot render the non-finite number {value!r} as JSON")
        out.append("%.17g" % value)
    elif kind is str:
        out.append(_string(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, (np.ndarray, np.generic)):
        _render(value.tolist(), out)
    else:
        raise TypeError(f"cannot render {kind!r}")


def render_json(value, end: str = "") -> str:
    """Deterministic one-line JSON with round-trip-exact float rendering,
    followed by `end`: the pieces go into one list and are joined once.  A
    non-finite float has no JSON form and raises `NumericError`.  Python
    types only (plus numpy arrays and scalars): a subclass such as an
    `IntEnum` raises `TypeError`."""
    out = []
    _render(value, out)
    out.append(end)
    return "".join(out)
