"""JSON documents for elements, algebra descriptors, permutation-invariant
sets, coefficient paths, and certificates, plus a deterministic renderer.

Element payloads are redundant on purpose (full matrices, not packed
coordinates): symmetry and antisymmetry are validated on read within
SYMMETRY_TOL and the parse/emit round trip is value-exact.  Floats render
with 17 significant digits (`%.17g`), which round-trips IEEE doubles.  The
renderer dispatches on exact Python types.  Element documents have one
emitter, from coordinates: each coordinate is a distinct number of the
document and is formatted once per element of a coordinate stack, the
entries (i, j) and (j, i) of a symmetric pair share its text, and the upper
Im of a Hermitian pair is the lower one's text with its sign flipped.  One
cached plan per algebra gathers those texts into the `%s` slots of the
document's template (descriptor text and one slot per number), and the
renderer writes that text unchanged; `emit_element` is the same text
decoded.
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


_Plan = namedtuple("_Plan", "template row zero flip order gather")


@functools.lru_cache(maxsize=64)
def _plan(a: Algebra) -> _Plan:
    """How the element documents of `a` are written from coordinates.

    Every coordinate is a distinct number of the document: `row` formats
    the dim numbers `coords + zero` with `%.17g`, where `zero` holds +0.0 on
    a real symmetric coordinate (a stored -0.0 unpacks as +0.0, as in
    `matrix_of`) and -0.0 elsewhere (the sign is kept).  `flip` lists the
    coordinates whose text is written again with its sign flipped: the
    lower Im (i, j) of a Hermitian factor, whose upper Im (j, i) is its
    negation.  `template` is the document with one `%s` slot per number
    and the literal `0` of each Hermitian diagonal Im; `order` maps each
    slot to the formatted texts followed by the flipped ones, and `gather`
    is that map as one `itemgetter`.  A product concatenates its factors."""
    if isinstance(a, ProductAlgebra):
        blocks = alg._blocks(a)
        plans = [_plan(f) for f in a.factors]
        starts = np.cumsum([a.dim] + [len(p.flip) for p in plans])  # of each factor's flipped texts
        zero = np.concatenate([p.zero for p in plans])
        flip = tuple(i + c.start for p, (_, c, _) in zip(plans, blocks) for i in p.flip)
        order = np.concatenate([
            np.where(p.order < f.dim, p.order + c.start, p.order - f.dim + k)
            for p, (f, c, _), k in zip(plans, blocks, starts)
        ])
        data = {"factors": [_Json(p.template) for p in plans]}
    elif isinstance(a, SpinFactor):
        zero, flip, order = np.full(a.dim, -0.0), (), np.arange(a.dim)
        data = {"x0": _Json("%s"), "xbar": [_Json("%s")] * (a.d - 1)}
    elif isinstance(a, RealSymmetric):
        zero, flip, order = np.zeros(a.dim), (), a._layout.full.ravel()
        data = [[_Json("%s")] * a.n] * a.n
    else:
        # Re (i, j) and Re (j, i) are one coordinate; the lower Im (i, j) is
        # the next one, and the upper Im (j, i), in its Im slot in `full`,
        # takes the flipped text of that coordinate
        lay, d = a._layout, np.arange(a.n)
        upper, diag = d[:, None] < d, d[:, None] == d
        flip = tuple((lay.low + 1).tolist())
        flipped = np.zeros(a.dim, dtype=np.intp)
        flipped[lay.low + 1] = a.dim + np.arange(lay.low.size)
        im = np.where(upper, flipped[lay.full], lay.full + 1)
        zero, order = np.full(a.dim, -0.0), np.concatenate([(lay.full - upper).ravel(), im[~diag]])
        data = {
            "re": [[_Json("%s")] * a.n] * a.n,
            "im": [[_Json("0" if i == j else "%s") for j in range(a.n)] for i in range(a.n)],
        }
    template = _render({"alg": emit_algebra(a), "data": data})
    return _Plan(template, "\x00".join(["%.17g"] * a.dim), zero, flip, order,
                 operator.itemgetter(*order.tolist()))


def _element_texts(a: Algebra, coords) -> list[_Json]:
    """JSON text of each element of `a` with coordinates a row of coords
    [k, dim]: one finiteness check over the stack, then per row one `%`
    that formats each distinct number once, and one `%` of the algebra's
    template with the texts gathered into document order, so one row's
    numbers are alive at a time."""
    plan = _plan(a)
    numbers = np.asarray(coords, dtype=float).reshape(-1, a.dim) + plan.zero
    if not np.isfinite(numbers).all():
        flipped = -numbers[:, np.array(plan.flip, dtype=np.intp)]
        doc = np.hstack([numbers, flipped])[:, plan.order]
        bad = doc[~np.isfinite(doc)]  # in document order
        raise NumericError(f"cannot render the non-finite number {float(bad[0])!r} as JSON")
    template, row_format, flip, gather = plan.template, plan.row, plan.flip, plan.gather
    out = []
    for row in numbers:
        texts = (row_format % tuple(row.tolist())).split("\x00")
        if flip:  # negating a finite double, 0.0 and -0.0 included, negates its text
            texts += [t[1:] if t[0] == "-" else "-" + t for t in map(texts.__getitem__, flip)]
        out.append(_Json(template % gather(texts)))
    return out


def _float_rows(rows) -> list[_Json]:
    """JSON text of each row of floats [k, n], the text `_render` writes for
    it: one finiteness check over the stack, then one `%.17g` row template."""
    rows = np.asarray(rows, dtype=float)
    bad = rows[~np.isfinite(rows)]
    if bad.size:
        raise NumericError(f"cannot render the non-finite number {float(bad[0])!r} as JSON")
    template = "[" + ", ".join(["%.17g"] * rows.shape[1]) + "]"
    return [_Json(template % tuple(row.tolist())) for row in rows]


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


def _render(value) -> str:
    kind = type(value)
    if kind is list or kind is tuple:
        return "[" + ", ".join(map(_render, value)) + "]"
    if kind is dict:
        return "{" + ", ".join(f"{_string(str(k))}: {_render(v)}" for k, v in value.items()) + "}"
    if kind is _Json:
        return value
    if kind is float:
        if not math.isfinite(value):
            raise NumericError(f"cannot render the non-finite number {value!r} as JSON")
        return "%.17g" % value
    if kind is str:
        return _string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (np.ndarray, np.generic)):
        return _render(value.tolist())
    raise TypeError(f"cannot render {kind!r}")


def render_json(value) -> str:
    """Deterministic one-line JSON with round-trip-exact float rendering;
    a non-finite float has no JSON form and raises `NumericError`.  Python
    types only (plus numpy arrays and scalars): a subclass such as an
    `IntEnum` raises `TypeError`."""
    return _render(value)
