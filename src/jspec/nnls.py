"""Nonnegative least squares, min ||G w - b|| over w >= 0; a failed solve raises NumericError."""

import numpy as np

from .algebra import _lapack, _scaled, _scaled_back
from .errors import NumericError, check_float_budget

__all__ = ["nnls"]


def _nnls_rows(gmat, rhs):
    """(w[k, p], residuals[k], k_row[k], k_col[p]) for rhs[k, m] over gmat[m, p] by Lawson-Hanson
    (1974, ch. 23) in Bro-De Jong normal-equations form (1997), each column and each row scaled
    by the exact power of two 2^-k of `algebra._scaled` (k_col, k_row), subnormal ones too:
    w solves the scaled problem, and w 2^(k_row - k_col), which may pass the largest double, is
    in input units.  A row ends at KKT: w >= 0, gradient >= -tol off the support, |gradient|,
    Newton decrement <= tol on it.  Its solves and residual norms go through `algebra._lapack`."""
    (m, p), k, (g, k_col), (rhs, k_row) = gmat.shape, len(rhs), _scaled(gmat.T), _scaled(rhs)
    check_float_budget(k * p * p, f"NNLS of {k} rows over {p} generators")  # the Gram stack
    g, k_col, k_row = g.T, k_col[:, 0], k_row[:, 0]
    gtg, w, passive, alpha = g.T @ g, np.zeros((k, p)), np.zeros((k, p), dtype=bool), 1.0
    for _ in range(4 * p + 16):  # finite in exact arithmetic; the cap ends a roundoff cycle
        grad = np.einsum("km,mp->kp", rhs - np.einsum("kp,mp->km", w, g), g)  # -gradient
        tol = 10 * max(m, p) * np.finfo(float).eps * (1.0 + w.sum(axis=1, keepdims=True))
        free = np.where(passive, -np.inf, grad)
        enter = (alpha == 1.0) & (free.max(axis=1, keepdims=True) > tol)  # a full last step
        passive[enter[:, 0], free[enter[:, 0]].argmax(axis=1)] = True
        gram = np.where(passive[:, None] & passive[..., None], gtg, np.eye(p))
        step = _lapack(np.linalg.solve, gram, (grad * passive)[..., None], what="NNLS passive-set solve")[..., 0]
        kkt = (np.where(passive, abs(grad), grad) <= tol).all(axis=1, keepdims=True)
        done = (alpha == 1.0) & kkt & ((step * grad).sum(axis=1, keepdims=True) <= tol**2)
        if done.all():
            residuals = _lapack(np.linalg.norm, w @ g.T - rhs, axis=1, what="NNLS residual norm")
            return w, np.ldexp(residuals, k_row), k_row, k_col
        cut = passive & (w + step < 0.0) & ~done  # stop where the first coefficient reaches 0
        alpha = np.where(cut, w / np.where(cut, -step, 1.0), 1.0).min(axis=1, keepdims=True)
        passive &= (alpha == 1.0) | (w + alpha * step > tol)
        w = (w + alpha * step * ~done) * passive
    raise NumericError("NNLS did not meet its KKT conditions")


def nnls(gmat, b):
    """(w, residual) for one right-hand side b: the one-row `_nnls_rows`, w in input units.  A
    coefficient past the largest double raises NumericError."""
    w, residuals, k_row, k_col = _nnls_rows(np.asarray(gmat, dtype=float), np.atleast_2d(b))
    return _scaled_back(w[0], k_row[0] - k_col, "an NNLS coefficient"), residuals[0]
