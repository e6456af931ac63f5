"""JSON documents for elements, algebra descriptors, permutation-invariant
sets, coefficient paths, and certificates, plus a deterministic renderer.

Element payloads are redundant on purpose (full matrices, not packed
coordinates): symmetry and antisymmetry are validated on read within
SYMMETRY_TOL and the parse/emit round trip is value-exact.  An element
document, a product's factor documents included, is read into one
coordinate vector, which becomes one `Element`.  Floats render
with 17 significant digits (`%.17g`), which round-trips IEEE doubles.  The
renderer dispatches on exact Python types and formats a lone float with
`%`.  A stack of floats is formatted by `_g17`, one pass of numpy kernels
that gives the bytes of `%.17g`, one 24-byte NUL-padded row per number,
and leaves to `%` only the numbers whose rounding it cannot be sure of.
Element documents have one emitter, from coordinates: each coordinate is
a distinct number of the document and is formatted once per element of a
coordinate stack, the entries (i, j) and (j, i) of a symmetric pair share
its text, and the upper Im of a Hermitian pair is the lower one's row
with the sign byte flipped.  One cached plan per algebra holds the
literal pieces of the document's template (descriptor text and the text
between the numbers), padded with NUL to 4-byte words, and one word index
over them and a chunk's number rows in document order; per chunk one
gather, one deletion of the NUL bytes and one decode make the text of
its elements, with no Python string per number.  Text already rendered
is a `_Raw`, a list of JSON text pieces that the renderer writes
unchanged.  `render_json` joins a document's pieces once; the CLI writes
them to stdout one by one once the whole document is rendered, so a
stack's text is decoded once and never copied again.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
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
    """An element document as one `Element`.  Its numbers, a product's
    factor documents included, are read in document order into one
    coordinate vector under one `errstate`, with no Element per factor.
    Each simple document is checked in turn, so the first fault in
    document order is the one reported: its shape and symmetry, then its
    finiteness, then, for a factor document, whether its algebra is the
    factor's.  A finite document symmetrizes to finite coordinates, entries
    past MAX / 2 included, so each one emitted parses back."""
    a = parse_algebra(_need(doc, "alg", "element"))
    data = _need(doc, "data", "element")
    coords = np.empty(a.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        _read_element(a, data, coords)
    return Element(a, coords)


def _read_element(a: Algebra, data, out: np.ndarray):
    """Read the data of an element of `a` into `out` [a.dim], or raise the
    first fault in document order."""
    if isinstance(a, ProductAlgebra):
        factor_docs = _need(data, "factors", "element")
        if not isinstance(factor_docs, list) or len(factor_docs) != len(a.factors):
            raise ValueError(
                f"element: product data needs {len(a.factors)} factor documents"
            )
        for fdoc, (f, c, _) in zip(factor_docs, alg._blocks(a)):
            fa = parse_algebra(_need(fdoc, "alg", "element"))
            fdata = _need(fdoc, "data", "element")
            if fa != f:  # read on its own, so its faults come first
                _read_element(fa, fdata, np.empty(fa.dim))
                raise ValueError(f"element: factor document algebra {fa} does not match {f}")
            _read_element(f, fdata, out[c])
        return
    if isinstance(a, SpinFactor):
        x0 = parse_numbers(_need(data, "x0", "element"), "element x0")
        if x0.shape != ():
            raise ValueError("element: x0 must be a number")
        xbar = parse_numbers(_need(data, "xbar", "element"), "element xbar")
        if xbar.shape != (a.d - 1,):
            raise ValueError(f"element: xbar must have length {a.d - 1}")
        out[0], out[1:] = x0, xbar
    else:
        herm = isinstance(a, ComplexHermitian)
        if herm:
            re = _as_matrix(_need(data, "re", "element"), a.n, "element re")
            im = _as_matrix(_need(data, "im", "element"), a.n, "element im")
            flat = np.concatenate([re.ravel(), im.ravel()])
        else:
            flat = _as_matrix(data, a.n, "element").ravel()
        first, second, sign, coord = _entry_pairs(a.n, herm)
        u, v = flat.take(first), sign * flat.take(second)
        faults = ("re part not symmetric", "im part not antisymmetric") if herm else ("matrix is not symmetric",)
        # max |m - m.T|, or max |re - re.T| and max |im + im.T|, read on i >= j
        skews = np.abs(u - v).reshape(len(faults), -1).max(axis=1).tolist()
        for fault, skew in zip(faults, skews):
            if skew > SYMMETRY_TOL:
                raise ValueError(f"element: {fault} (deviation {skew:.3e})")
        np.divide((u + v).take(coord), 2.0, out=out)  # (m + m.T) / 2 at the coordinates
        # a NaN anywhere in im makes its deviation NaN, which passes the
        # check above; on the diagonal of im it is in no coordinate either
        if herm and math.isnan(skews[1]):
            raise ValueError("element: coordinates must be finite numbers")
    if not np.isfinite(out).all():
        if not isinstance(a, SpinFactor):
            # a pair past MAX / 2 overflows u + v; as it passed the symmetry
            # check, u == v, so the sum of their halves is exact
            over = np.flatnonzero(np.isinf(out))
            out[over] = 0.5 * u.take(coord[over]) + 0.5 * v.take(coord[over])
        if not np.isfinite(out).all():
            raise ValueError("element: coordinates must be finite numbers")


@functools.lru_cache(maxsize=64)
def _entry_pairs(n: int, herm: bool):
    """The entry pairs that an n x n element document is read by, as
    positions in its numbers laid out flat (the matrix, or `re` then `im`):
    the entries (i, j) and (j, i), i >= j, of the layout's `lower` and
    `mirror` (see `algebra._make_layout`), the Re pairs before the Im pairs;
    the sign of the second entry, -1 in an Im pair, so that first + sign *
    second is twice the entry of the symmetrized matrix and first - sign *
    second its deviation from (anti)symmetry; and the pair of each packed
    coordinate."""
    lay = alg._make_layout(n, herm)
    first, second, p = lay.lower, lay.mirror, lay.lower.size
    if not herm:
        return first, second, np.ones(p), np.arange(p)
    # the Im pairs sit n * n later; the layout's `keep` interleaves Re and Im
    return (np.concatenate([first, first + n * n]), np.concatenate([second, second + n * n]),
            np.repeat([1.0, -1.0], p), lay.keep % 2 * p + lay.keep // 2)


class _Raw(list):
    """JSON text as consecutive str pieces that `_render` writes unchanged."""


# ---------------------------------------------------------------------------
# %.17g for a stack of floats

_G17_POW = 282  # the tables hold 10^k and 10^(16 - k) for k in [-_G17_POW, _G17_POW]
_G17_FALLBACK = 25 * 17  # the layout of a sign byte alone, for a number left to `%`
_CHUNK = 4096  # coordinates per chunk of `_element_chunks`


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
    with exponent e+dd, e+ddd, e-dd or e-ddd), padded with NUL; a number's
    layout is `form[k + _G17_POW]` = 17 f + 16 less its count of trailing
    zeros."""
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
    layouts = np.full((_G17_FALLBACK + 1, 24), 27, dtype=np.intp)
    for f, x in enumerate([*range(-4, 17), 17, 100, -5, -100]):
        for nd in range(1, 18):
            idx = _g17_layout(x, nd)
            layouts[f * 17 + nd - 1, : len(idx)] = idx
    layouts[_G17_FALLBACK, 0] = 0
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


def _g17(values) -> np.ndarray:
    """The text `'%.17g' % v` of each float of values, as the rows of a
    uint8 array [n, 24]: byte 0 holds "-" or NUL for the sign, and the text
    of |v| follows, padded with NUL.  The `%.17g` text of -v is that of v
    with the other sign, so XOR-ing byte 0 with 0x2D writes -v.  One pass
    of numpy kernels makes the digits (see `_g17_digits`); the numbers
    whose digits are in doubt are written by `%` itself into the same rows
    (its callers pass finite numbers only), and a zero is written as "0"
    or "-0".

    Each number's source row of 28 bytes holds its sign (NUL or "-"), "0",
    ".", its 17 digits, the four digits of |k|, "e", "+", "-" and NUL; one
    gather picks its text by a layout keyed by the notation and exponent
    width and by the count of significant digits."""
    v = np.asarray(values, dtype=float).ravel()
    _, quad, zeros, form, layouts = _g17_tables()
    d, k, fallback = _g17_digits(v)
    upper, lower = _divmod(d, 10**8)
    first, upper = _divmod(upper, 10**8)
    q1, q2 = _divmod(upper, 10**4)
    q3, q4 = _divmod(lower, 10**4)
    rows = np.empty((v.size, 7), dtype="<u4")
    rows[:, 0] = 0x302E3000 + (first << 24) + 0x2D * np.signbit(v)  # "0." and D's first digit
    rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4] = quad[q1], quad[q2], quad[q3], quad[q4]
    rows[:, 5] = quad[np.abs(k - _G17_POW)]
    rows[:, 6] = 0x002D2B65  # "e+-" and NUL
    trailing = zeros[q4] + (q4 == 0) * (zeros[q3] + (q3 == 0) * (zeros[q2] + (q2 == 0) * zeros[q1]))
    key = form[k] - trailing
    key[fallback] = _G17_FALLBACK
    index = layouts.take(key, axis=0)
    index += np.arange(0, 28 * v.size, 28)[:, None]
    out = rows.view(np.uint8).take(index)
    if fallback.size:
        text = "".join([("%.17g" % x).ljust(23, "\0") for x in np.abs(v[fallback]).tolist()])
        out[fallback, 1:] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 23)
    return out


_Template = namedtuple("_Template", "text zero flip order")


@functools.lru_cache(maxsize=64)
def _template(a: Algebra | int) -> _Template:
    """The element documents of `a` as a template over their numbers; for
    an int n, a JSON row of n floats.

    Every coordinate is a distinct number of the document, and the numbers
    of an element are `coords + zero`, where `zero` holds +0.0 on a real
    symmetric coordinate (a stored -0.0 unpacks as +0.0, as in `matrix_of`)
    and -0.0 elsewhere (the sign is kept), followed by their negations at
    `flip`: the lower Im (i, j) of a Hermitian factor, whose negation is
    its upper Im (j, i).  `text` is the document with one `%s` slot per
    number and the literal `0` of each Hermitian diagonal Im, and `order`
    maps each slot to its number.  A product concatenates its factors'
    templates."""
    slot = _Raw(["%s"])
    if isinstance(a, int):
        zero, flip, order = np.full(a, -0.0), np.zeros(0, np.intp), np.arange(a)
        return _Template(render_json([slot] * a), zero, flip, order)
    if isinstance(a, ProductAlgebra):
        blocks = alg._blocks(a)
        parts = [_template(f) for f in a.factors]
        starts = np.cumsum([a.dim] + [p.flip.size for p in parts])  # of each factor's negations
        zero = np.concatenate([p.zero for p in parts])
        flip = np.concatenate([p.flip + c.start for p, (_, c, _) in zip(parts, blocks)])
        order = np.concatenate([
            np.where(p.order < f.dim, p.order + c.start, p.order - f.dim + k)
            for p, (f, c, _), k in zip(parts, blocks, starts)
        ])
        data = {"factors": [_Raw([p.text]) for p in parts]}
    elif isinstance(a, SpinFactor):
        zero, flip, order = np.full(a.dim, -0.0), np.zeros(0, np.intp), np.arange(a.dim)
        data = {"x0": slot, "xbar": [slot] * (a.d - 1)}
    elif isinstance(a, RealSymmetric):
        zero, flip, order = np.zeros(a.dim), np.zeros(0, np.intp), a._layout.full.ravel()
        data = [[slot] * a.n] * a.n
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
            "re": [[slot] * a.n] * a.n,
            "im": [[_Raw(["0"]) if i == j else slot for j in range(a.n)] for i in range(a.n)],
        }
    return _Template(render_json({"alg": emit_algebra(a), "data": data}), zero, flip, order)


_Plan = namedtuple("_Plan", "zero flip order words index")


@functools.lru_cache(maxsize=64)
def _plan(a: Algebra | int) -> _Plan:
    """How the element documents of `a` (see `_template`) are assembled.

    `words` holds the template's distinct literal pieces (the text around
    the slots, the last one ending in a newline), each padded with NUL to
    whole 4-byte words.  A chunk's text is gathered in words from `words`
    followed by the 24-byte rows of its numbers (see `_g17`), by the
    uint32 `index`: its first row picks literal 0, slot 0, literal 1, ...,
    the last literal of the first element, and each next row the same
    pieces of the next element's numbers.  `index` covers the rows of a
    full chunk, `_CHUNK // dim`; a shorter chunk takes a prefix of it."""
    text, zero, flip, order = _template(a)
    literals = text.split("%s")
    literals[-1] += "\n"
    distinct = {piece: i for i, piece in enumerate(dict.fromkeys(literals))}
    pieces = [piece.encode("ascii") for piece in distinct]
    sizes = np.array([(len(piece) + 3) // 4 for piece in pieces])
    words = np.frombuffer(b"".join(p.ljust(4 * n, b"\0") for p, n in zip(pieces, sizes)), "<u4")
    # the pieces of one element in document order, as (first word, words)
    which = np.fromiter(map(distinct.__getitem__, literals), np.intp, len(literals))
    first = np.empty(2 * len(literals) - 1, dtype=np.intp)
    count = np.full(first.size, 6)
    first[::2], count[::2] = (np.cumsum(sizes) - sizes)[which], sizes[which]
    first[1::2] = words.size + 6 * order
    row = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    numbers = np.repeat(np.arange(first.size) % 2, count)  # 1 on the words of a number
    stride = 6 * (zero.size + flip.size)  # words of one element's number rows
    offsets = np.arange(0, max(1, _CHUNK // zero.size) * stride, stride)
    index = (row + offsets[:, None] * numbers).astype(np.uint32).ravel()
    return _Plan(zero, flip, order, words, index)


def _element_chunks(a: Algebra | int, coords):
    """The JSON text of the elements of `a` (see `_plan`) with coordinates
    the rows of coords [k, dim], as ASCII bytes, each element ending in a
    newline, one bytes object per chunk of rows.

    One finiteness check goes over the numbers of the stack.  Then per
    chunk: one `_g17` over its coordinates, the rows of its Hermitian upper
    Im copied from the lower ones with the sign byte flipped, one gather
    of words by the plan's index and one deletion of the NUL padding."""
    plan = _plan(a)
    dim, flip = plan.zero.size, plan.flip
    numbers = np.asarray(coords, dtype=float).reshape(-1, dim) + plan.zero
    if not np.isfinite(numbers).all():
        doc = np.hstack([numbers, -numbers[:, flip]])[:, plan.order]
        bad = doc[~np.isfinite(doc)]  # in document order
        raise NumericError(f"cannot render the non-finite number {float(bad[0])!r} as JSON")
    literals, width = plan.words.view(np.uint8), dim + flip.size
    step = max(1, _CHUNK // dim)
    per_row = plan.index.size // step
    for start in range(0, len(numbers), step):
        chunk = numbers[start : start + step]
        buffer = np.empty(literals.size + 24 * width * len(chunk), dtype=np.uint8)
        buffer[: literals.size] = literals
        rows = buffer[literals.size :].reshape(len(chunk), width, 24)
        rows[:, :dim] = _g17(chunk).reshape(len(chunk), dim, 24)
        if flip.size:
            rows[:, dim:] = rows[:, flip]
            rows[:, dim:, 0] ^= 0x2D
        yield buffer.view("<u4").take(plan.index[: per_row * len(chunk)]).tobytes().translate(None, b"\0")


def _element_texts(a: Algebra | int, coords) -> list[str]:
    """The JSON text of each element of `a` with coordinates a row of
    coords, one str each: per chunk one decode and one split."""
    out = []
    for text in _element_chunks(a, coords):
        out += text.decode("ascii").split("\n")
        out.pop()  # after the last newline
    return out


def _element_array(a: Algebra, coords) -> _Raw:
    """The JSON array of the elements of `a` with coordinates the rows of
    coords: "[", its chunks' texts (newlines made separators) separated by
    ", ", and "]".  No text is joined."""
    out = _Raw(["["])
    for text in _element_chunks(a, coords):
        out += (text[:-1].replace(b"\n", b", ").decode("ascii"), ", ")
    out[-1] = "]" if len(out) > 1 else "[]"  # over the last separator, or the "["
    return out


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


# ---------------------------------------------------------------------------
# deterministic rendering


def _render(value, out: list) -> None:
    """Append the JSON text of value to out, the pieces of a `_Raw` as they are."""
    kind = type(value)
    if kind is _Raw:
        out += value
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


def render_json(value) -> str:
    """Deterministic one-line JSON with round-trip-exact float rendering:
    the pieces go into one list and are joined once.  A non-finite float
    has no JSON form and raises `NumericError`.  Python types only (plus
    numpy arrays and scalars): a subclass such as an `IntEnum` raises
    `TypeError`."""
    out = []
    _render(value, out)
    return "".join(out)
