"""Core Euclidean Jordan algebra arithmetic.

Supported kinds: real symmetric matrices, complex Hermitian matrices, spin
factors, and Cartesian products of those.  Every element is stored as a flat
real coordinate vector against a fixed structural basis, so Hermitian
symmetry can never be violated by construction and no complex numbers leak
into the data model (complex arithmetic appears only inside kernels).

Coordinate layouts:

* real symmetric, rank n:  lower triangle row-major, ``n(n+1)/2`` reals
  ``[a00, a10, a11, a20, a21, a22, ...]``; diagonal entry i sits at
  ``i(i+3)/2`` and strict-lower entry (i, j) at ``i(i+1)/2 + j``
* complex Hermitian, rank n:  lower triangle row-major with interleaved
  real/imaginary off-diagonal parts and real diagonal, ``n^2`` reals
  ``[a00, Re a10, Im a10, a11, Re a20, Im a20, Re a21, Im a21, a22, ...]``;
  diagonal entry i sits at ``i^2 + 2i``, Re (i, j) at ``i^2 + 2j`` and
  Im (i, j) one slot later
* spin factor of ambient dimension d:  ``(x0, xbar)`` with ``xbar`` in
  ``R^(d-1)``, d reals
* product:  concatenation of factor coordinates in factor order

Both matrix kinds are Herm(n, F) over F = R or C and share two kernels
with leading stack axes, `matrix_of` (coordinates [..., dim] to matrices
[..., n, n]) and its inverse `coords_of`; `sym_matrix`, `herm_matrix`,
`element_from_sym` and `element_from_herm` are their one-element cases.
`_make_layout` derives the packed order once: the orbit action and the
element-document reader take their entry pairs from its fields.

All operations are pure functions of immutable values and are safe for
unrestricted concurrent use.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AlgebraMismatchError, NumericError

__all__ = [
    "Algebra",
    "RealSymmetric",
    "ComplexHermitian",
    "SpinFactor",
    "ProductAlgebra",
    "Element",
    "coordinate_algebra",
    "jordan_product",
    "inner_product",
    "norm",
    "distance",
    "trace",
    "unit_element",
    "random_element",
    "matrix_of",
    "coords_of",
    "sym_matrix",
    "element_from_sym",
    "herm_matrix",
    "element_from_herm",
    "spin_parts",
    "element_from_spin",
    "split_product",
    "join_product",
    "scale_element",
    "add_elements",
    "isometric_coords",
]


# ---------------------------------------------------------------------------
# descriptors


class Algebra:
    """Base descriptor.  Concrete kinds define `rank` and `dim`."""

    rank: int
    dim: int

    def is_simple(self) -> bool:
        return not isinstance(self, ProductAlgebra)


@dataclass(frozen=True)
class _MatrixAlgebra(Algebra):
    """Herm(n, F), the n x n Hermitian matrices over F = R or C under
    (XY + YX)/2; both kinds share one packing layout."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"matrix size must be a positive integer, got {self.n!r}")

    @property
    def rank(self) -> int:
        return self.n

    @cached_property
    def _layout(self) -> "_Layout":
        return _make_layout(self.n, isinstance(self, ComplexHermitian))


@dataclass(frozen=True)
class RealSymmetric(_MatrixAlgebra):
    """Algebra of n x n real symmetric matrices under (XY + YX)/2."""

    @property
    def dim(self) -> int:
        return self.n * (self.n + 1) // 2


@dataclass(frozen=True)
class ComplexHermitian(_MatrixAlgebra):
    """Algebra of n x n complex Hermitian matrices under (XY + YX)/2."""

    @property
    def dim(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class SpinFactor(Algebra):
    """Rank-2 spin factor on R^d: x = (x0, xbar), xbar in R^(d-1), d >= 3."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 3:
            raise ValueError(f"spin factor needs ambient dimension >= 3, got {self.d!r}")

    @property
    def rank(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return self.d


@dataclass(frozen=True)
class ProductAlgebra(Algebra):
    """Cartesian product of simple algebras.

    Nested products are flattened at construction, so `factors` always
    holds simple descriptors; restricted orbits and factor blocks are
    defined against this flat list.
    """

    factors: tuple[Algebra, ...]

    def __post_init__(self):
        flat: list[Algebra] = []
        for f in self.factors:
            if isinstance(f, ProductAlgebra):
                flat.extend(f.factors)
            elif isinstance(f, Algebra):
                flat.append(f)
            else:
                raise ValueError(f"not an algebra descriptor: {f!r}")
        if not flat:
            raise ValueError("a product algebra needs at least one factor")
        object.__setattr__(self, "factors", tuple(flat))

    @cached_property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @cached_property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)


def coordinate_algebra(n: int) -> ProductAlgebra:
    """R^n as the n-fold product of scalar (1 x 1 symmetric) factors."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    return ProductAlgebra(tuple(RealSymmetric(1) for _ in range(n)))


@lru_cache(maxsize=None)
def _blocks(a: Algebra) -> tuple[tuple[Algebra, slice, slice], ...]:
    """The factor blocks of `a`: each factor with its slice of the
    coordinates and its slice of the eigenvalues, in factor order; a simple
    algebra is one block."""
    out, dim, rank = [], 0, 0
    for f in a.factors if isinstance(a, ProductAlgebra) else (a,):
        out.append((f, slice(dim, dim + f.dim), slice(rank, rank + f.rank)))
        dim, rank = dim + f.dim, rank + f.rank
    return tuple(out)


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True, eq=False)
class Element:
    """A point of the algebra: descriptor plus structural coordinates, kept
    as a read-only float copy of the given real numbers (integers or floats;
    complex, boolean, string or object data is refused, never coerced)."""

    algebra: Algebra
    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords)
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"coordinates must be real numbers, got {arr.dtype} data")
        arr = arr.astype(float)  # a copy: the caller's array stays its own
        if arr.shape != (self.algebra.dim,):
            raise ValueError(
                f"expected {self.algebra.dim} coordinates for {self.algebra}, "
                f"got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def __repr__(self):
        return f"Element({self.algebra}, coords={np.array2string(self.coords, precision=4)})"


def _require_same_algebra(x: Element, y: Element):
    if x.algebra != y.algebra:
        raise AlgebraMismatchError(f"algebra mismatch: {x.algebra} vs {y.algebra}")


# -- matrix/spin packing ----------------------------------------------------


_Layout = namedtuple("_Layout", "pack diag low full reals lower mirror keep")


@lru_cache(maxsize=None)  # descriptors are built per document; layouts per size
def _make_layout(n: int, herm: bool) -> _Layout:
    """The one derivation of the packed order of the n x n real symmetric or
    (`herm`) Hermitian kind: `pack`, each coordinate's index in the flat
    real view of the matrix ([n, n], or [n, 2n] with Re/Im interleaved),
    which holds `reals` numbers; `diag` and `low`, the packed positions of
    the diagonal and of Re (i, j), i > j; `full`, the packed position of each
    entry, an upper Hermitian (j, i) taking the Im slot of (i, j); `lower`
    and `mirror`, the flat [n, n] positions of (i, j), i >= j, in tril order
    and of (j, i); `keep`, which of their reals, Re and Im interleaved, are
    coordinates: all but each diagonal Im, or all for the real kind."""
    w = 2 if herm else 1  # reals per strict-lower entry
    d = np.arange(n)
    i, j = np.tril_indices(n)
    start = w * d * (d - 1) // 2 + d  # packed position of row i's first slot
    rows = np.repeat(d, w * d + 1)
    pack = rows * (w * n) + np.arange(rows.size) - start[rows]
    r, c = np.maximum.outer(d, d), np.minimum.outer(d, d)
    full = start[r] + w * c + (w - 1) * (r > d[:, None])
    keep = np.flatnonzero(np.column_stack([i >= j, i > j])) if herm else slice(None)
    return _Layout(pack, start + w * d, (start[i] + w * j)[i > j], full, w * n * n, i * n + j, j * n + i, keep)


def matrix_of(a: Algebra, coords) -> np.ndarray:
    """Unpack coordinates [..., dim] of a matrix kind into matrices [..., n, n].

    Both kernels gather along the first axis of the transposed stack: on one
    element that is several times faster than indexing `[..., idx]`."""
    c = np.asarray(coords, dtype=float).T
    lay = a._layout
    if isinstance(a, RealSymmetric):
        values = c + 0.0  # a stored -0.0 unpacks as +0.0
    else:  # Re (i, j) slots hold entry (i, j), the Im slots entry (j, i)
        values = c.astype(complex)
        values.imag[lay.low] = c[lay.low + 1]  # in place, not 1j * c: zeros keep their sign
        values[lay.low + 1] = values[lay.low].conj()
    return np.ascontiguousarray(values[lay.full.T].T)


def coords_of(a: Algebra, m) -> np.ndarray:
    """Pack matrices [..., n, n] of a matrix kind into coordinates [..., dim],
    reading the lower triangle."""
    if isinstance(a, ComplexHermitian):
        m = np.ascontiguousarray(m, dtype=complex).view(float)
    m = np.asarray(m, dtype=float)
    lay = a._layout
    return np.ascontiguousarray(m.reshape(m.shape[:-2] + (lay.reals,)).T[lay.pack].T)


def sym_matrix(x: Element) -> np.ndarray:
    """Unpack a real-symmetric element into a full n x n matrix."""
    return matrix_of(x.algebra, x.coords)


def element_from_sym(a: RealSymmetric, m: np.ndarray) -> Element:
    return Element(a, coords_of(a, m))


def herm_matrix(x: Element) -> np.ndarray:
    """Unpack a complex-Hermitian element into a full n x n complex matrix."""
    return matrix_of(x.algebra, x.coords)


def element_from_herm(a: ComplexHermitian, m: np.ndarray) -> Element:
    return Element(a, coords_of(a, m))


def spin_parts(x: Element) -> tuple[float, np.ndarray]:
    return float(x.coords[0]), x.coords[1:]


def element_from_spin(a: SpinFactor, x0: float, xbar: np.ndarray) -> Element:
    return Element(a, np.concatenate(([x0], np.asarray(xbar, dtype=float))))


def split_product(x: Element) -> list[Element]:
    a = x.algebra
    if not isinstance(a, ProductAlgebra):
        raise AlgebraMismatchError("split_product needs a product-algebra element")
    return [Element(f, x.coords[c]) for f, c, _ in _blocks(a)]


def join_product(a: ProductAlgebra, parts: list[Element]) -> Element:
    if len(parts) != len(a.factors):
        raise AlgebraMismatchError("wrong number of product factors")
    for p, f in zip(parts, a.factors):
        if p.algebra != f:
            raise AlgebraMismatchError(f"factor mismatch: {p.algebra} vs {f}")
    return Element(a, np.concatenate([p.coords for p in parts]))


# ---------------------------------------------------------------------------
# operations


def jordan_product(x: Element, y: Element) -> Element:
    """The commutative product: (XY + YX)/2 for matrices, the spin formula
    (x.y, x0*ybar + y0*xbar) for spin factors, factor-wise for products."""
    _require_same_algebra(x, y)
    a = x.algebra
    if isinstance(a, _MatrixAlgebra):
        mx, my = matrix_of(a, x.coords), matrix_of(a, y.coords)
        return Element(a, coords_of(a, (mx @ my + my @ mx) / 2.0))
    if isinstance(a, SpinFactor):
        x0, xb = spin_parts(x)
        y0, yb = spin_parts(y)
        return element_from_spin(a, x0 * y0 + float(xb @ yb), x0 * yb + y0 * xb)
    parts = [jordan_product(p, q) for p, q in zip(split_product(x), split_product(y))]
    return join_product(a, parts)


@lru_cache(maxsize=None)
def _inner_weights(a: Algebra) -> np.ndarray:
    """Weights w such that <x, y> = sum(w * x.coords * y.coords).

    Diagonal matrix entries weigh 1, off-diagonal (and both their real and
    imaginary parts) weigh 2; the spin trace form is 2 * the Euclidean dot,
    normalized so every primitive idempotent has trace 1.
    """
    if isinstance(a, ProductAlgebra):
        return np.concatenate([_inner_weights(f) for f in a.factors])
    w = np.full(a.dim, 2.0)
    if isinstance(a, _MatrixAlgebra):
        w[a._layout.diag] = 1.0
    return w


def inner_product(x: Element, y: Element) -> float:
    """Trace inner product tr(x o y)."""
    _require_same_algebra(x, y)
    return float(np.dot(_inner_weights(x.algebra) * x.coords, y.coords))


def _exponents(d: np.ndarray) -> np.ndarray:
    """The k of each row of d [..., m] whose largest |entry| is in [2^k, 2^(k + 1)), -1 for a zero row."""
    return np.frexp(np.abs(d).max(axis=-1, initial=0.0))[1] - 1


def _scaled(d: np.ndarray):
    """(d 2^-k, k [..., 1]): each row of d [..., m] divided by the power of two of `_exponents`,
    exactly down to 2^-1074, so its largest |entry| is in [1, 2), and the exponents, which
    broadcast against d.  The one place a power of two is derived; `_scaled_back` scales back."""
    k = _exponents(d)[..., None]
    return np.ldexp(d, -k), k


def _scaled_back(values: np.ndarray, k, what: str) -> np.ndarray:
    """values 2^k, k an int or an array, or `NumericError` if one is past
    the largest double: `ldexp`'s overflow is raised, not warned about."""
    try:
        with np.errstate(over="raise"):
            return np.ldexp(values, k)
    except FloatingPointError:
        raise NumericError(f"{what} is past the largest double") from None


def _lapack(fn, *args, what: str, **kw):
    """fn(*args, **kw) for a `np.linalg` fn, jspec's one LAPACK entry: its LinAlgError (a ValueError,
    else read as an input error) and a non-finite number in any array it returns raise NumericError."""
    try:
        out = fn(*args, **kw)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{what} failed: {exc}") from None
    if not all(np.isfinite(r).all() for r in (out if isinstance(out, tuple) else (out,))):
        raise NumericError(f"{what} returned a non-finite result")
    return out


def _lengths(d: np.ndarray, w=1.0) -> np.ndarray:
    """Lengths sqrt(sum(w * d * d)) along the last axis of d [..., m], one per
    row: the one scale-safe sum of squares.  Summed over the `_scaled` rows,
    the sum neither overflows nor underflows, and the roots scale back: in
    the normal range every length is bit for bit sqrt(np.vecdot(w * d, d)),
    and one past the largest double raises `NumericError` (`_scaled_back`)."""
    return _scaled_back(*_scaled_lengths(d, w), "a length")


def _scaled_lengths(d: np.ndarray, w=1.0):
    """The lengths of `_lengths` as r 2^k: the roots r of the scaled rows
    and the exponents k, for a caller that scales back on its own."""
    d, k = _scaled(d)
    return np.sqrt(np.vecdot(w * d, d)), k[..., 0]


def norm(x: Element) -> float:
    return float(_lengths(x.coords, _inner_weights(x.algebra)))


def distance(x: Element, y: Element) -> float:
    _require_same_algebra(x, y)
    return float(_lengths(x.coords - y.coords, _inner_weights(x.algebra)))


def isometric_coords(x: Element) -> np.ndarray:
    """Coordinates rescaled so the plain dot product equals the trace form."""
    return np.sqrt(_inner_weights(x.algebra)) * x.coords


@lru_cache(maxsize=None)
def _trace_weights(a: Algebra) -> np.ndarray:
    """Weights t with tr(x) = sum(t * x.coords)."""
    return _inner_weights(a) * unit_element(a).coords  # tr(x) = <e, x>


def trace(x: Element) -> float:
    """Sum of eigenvalues."""
    return float(np.dot(_trace_weights(x.algebra), x.coords))


@lru_cache(maxsize=None)
def unit_element(a: Algebra) -> Element:
    """The two-sided identity e; its eigenvalue vector is all ones."""
    if isinstance(a, _MatrixAlgebra):
        return Element(a, coords_of(a, np.eye(a.n)))
    if isinstance(a, SpinFactor):
        return element_from_spin(a, 1.0, np.zeros(a.d - 1))
    return join_product(a, [unit_element(f) for f in a.factors])


def scale_element(t: float, x: Element) -> Element:
    return Element(x.algebra, t * x.coords)


def add_elements(x: Element, y: Element) -> Element:
    _require_same_algebra(x, y)
    return Element(x.algebra, x.coords + y.coords)


def random_element(a: Algebra, seed: int, scale: float = 1.0) -> Element:
    """Deterministic Gaussian element: i.i.d. standard-normal coordinates
    times `scale`, mapped into the structural representation."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    rng = np.random.default_rng(seed)
    return Element(a, rng.standard_normal(a.dim) * scale)
