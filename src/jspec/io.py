"""JSON documents for elements, algebra descriptors, permutation-invariant
sets, coefficient paths, and certificates, plus a deterministic renderer.

Element payloads are redundant on purpose (full matrices, not packed
coordinates): symmetry and antisymmetry are validated on read within
SYMMETRY_TOL and the parse/emit round trip is value-exact.  Floats render
with 17 significant digits (`%.17g`), which round-trips IEEE doubles.  The
renderer dispatches on exact Python types.  A list whose items are all
floats (one matrix row), or a list of equal-length lists of floats (one
matrix), is checked for finiteness once and formatted by one `%`
operation, with a template cached per length or per (rows, cols): a frame
of 40x40 matrices costs one call per matrix, not one per float.
"""

from __future__ import annotations

import functools
import itertools
import math
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
        m = (re + re.T) / 2.0 + 1j * (im - im.T) / 2.0
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


def _element_docs(a: Algebra, coords: np.ndarray) -> list[dict]:
    """Element documents of the rows of coords [k, dim], all unpacked by one
    `matrix_of` and converted by one `.tolist()` per part; the documents
    share one algebra descriptor."""
    if isinstance(a, RealSymmetric):
        data = alg.matrix_of(a, coords).tolist()
    elif isinstance(a, ComplexHermitian):
        m = alg.matrix_of(a, coords)
        data = [{"re": re, "im": im} for re, im in zip(m.real.tolist(), m.imag.tolist())]
    elif isinstance(a, SpinFactor):
        x0s, xbars = coords[:, 0].tolist(), coords[:, 1:].tolist()
        data = [{"x0": x0, "xbar": xbar} for x0, xbar in zip(x0s, xbars)]
    else:
        offs = alg._factor_offsets(a)
        parts = [_element_docs(f, coords[:, i:j]) for f, i, j in zip(a.factors, offs, offs[1:])]
        data = [{"factors": list(docs)} for docs in zip(*parts)]
    descriptor = emit_algebra(a)
    return [{"alg": descriptor, "data": d} for d in data]


def emit_element(x: Element) -> dict:
    return _element_docs(x.algebra, x.coords[None])[0]


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
    if not isinstance(parts, list):
        raise ValueError("certificate: parts must be a list")
    return DecompositionCertificate(
        tuple(tuple(parse_element(g) for g in part) for part in parts)
    )


def emit_polyline(path: PathPolyline) -> dict:
    return {
        "samples": _element_docs(path.algebra, path.coords),
        "max_step": path.max_step,
        "tolerance": path.tolerance,
    }


# ---------------------------------------------------------------------------
# deterministic rendering


@functools.lru_cache(maxsize=64)
def _float_row(length: int) -> str:
    return "[" + ", ".join(["%.17g"] * length) + "]"


@functools.lru_cache(maxsize=64)
def _float_matrix(rows: int, cols: int) -> str:
    return "[" + ", ".join([_float_row(cols)] * rows) + "]"


def _finite_floats(values) -> bool:
    return set(map(type, values)) == {float} and all(map(math.isfinite, values))


def _render(value) -> str:
    kind = type(value)
    if kind is list or kind is tuple:
        # one format call per row, or per matrix, of finite floats; anything
        # else, a non-finite float included, is rendered (and named) below
        if value:
            first = type(value[0])
            if first is float and _finite_floats(value):
                return _float_row(len(value)) % tuple(value)
            if first is list and len(set(map(type, value))) == 1 and len(set(map(len, value))) == 1:
                flat = tuple(itertools.chain.from_iterable(value))
                if flat and _finite_floats(flat):
                    return _float_matrix(len(value), len(value[0])) % flat
        return "[" + ", ".join(map(_render, value)) + "]"
    if kind is dict:
        return "{" + ", ".join(f"{_string(str(k))}: {_render(v)}" for k, v in value.items()) + "}"
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
