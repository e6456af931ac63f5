"""Nonnegative least squares, min ||G w - b|| over w >= 0; a failed solve raises NumericError."""

import numpy as np

from .errors import NumericError, check_float_budget

__all__ = ["nnls"]


def _nnls_rows(gmat, rhs):
    """(w[k, p], residuals[k], scale[k, 1], cols[p]) for rhs[k, m] over gmat[m, p] by Lawson-Hanson
    (1974, ch. 23) in Bro-De Jong normal-equations form (1997), columns and rows scaled to max
    |entry| 1 (`cols`, `scale`): w solves the scaled problem, and w * scale / cols, which may pass
    the largest double, is in input units.  A row ends at KKT: w >= 0, gradient >= -tol off the
    support, |gradient|, Newton decrement <= tol on it."""
    (m, p), k, cols = gmat.shape, len(rhs), abs(gmat).max(axis=0, initial=np.finfo(float).tiny)
    check_float_budget(k * p * p, f"NNLS of {k} rows over {p} generators")  # the Gram stack
    g, scale = gmat / cols, abs(rhs).max(axis=1, keepdims=True, initial=np.finfo(float).tiny)
    gtg, w, passive, alpha = g.T @ g, np.zeros((k, p)), np.zeros((k, p), dtype=bool), 1.0
    for _ in range(4 * p + 16):  # finite in exact arithmetic; the cap ends a roundoff cycle
        grad = np.einsum("km,mp->kp", rhs / scale - np.einsum("kp,mp->km", w, g), g)  # -gradient
        tol = 10 * max(m, p) * np.finfo(float).eps * (1.0 + w.sum(axis=1, keepdims=True))
        free = np.where(passive, -np.inf, grad)
        enter = (alpha == 1.0) & (free.max(axis=1, keepdims=True) > tol)  # a full last step
        passive[enter[:, 0], free[enter[:, 0]].argmax(axis=1)] = True
        gram = np.where(passive[:, None] & passive[..., None], gtg, np.eye(p))
        try:
            step = np.linalg.solve(gram, (grad * passive)[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"NNLS passive-set solve failed: {exc}") from None
        kkt = (np.where(passive, abs(grad), grad) <= tol).all(axis=1, keepdims=True)
        done = (alpha == 1.0) & kkt & ((step * grad).sum(axis=1, keepdims=True) <= tol**2)
        if done.all():
            return w, scale[:, 0] * np.linalg.norm(w @ g.T - rhs / scale, axis=1), scale, cols
        cut = passive & (w + step < 0.0) & ~done  # stop where the first coefficient reaches 0
        alpha = np.where(cut, w / np.where(cut, -step, 1.0), 1.0).min(axis=1, keepdims=True)
        passive &= (alpha == 1.0) | (w + alpha * step > tol)
        w = (w + alpha * step * ~done) * passive
    raise NumericError("NNLS did not meet its KKT conditions")


def nnls(gmat, b):
    """(w, residual) for one right-hand side b: the one-row `_nnls_rows`, w in input units.  A
    coefficient past the largest double raises NumericError."""
    w, residuals, scale, cols = _nnls_rows(np.asarray(gmat, dtype=float), np.atleast_2d(b))
    with np.errstate(over="ignore"):
        w = w[0] * scale[0] / cols
    if not np.isfinite(w).all():
        raise NumericError("an NNLS coefficient is past the largest double")
    return w, residuals[0]
