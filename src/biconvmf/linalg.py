"""Dense linear algebra for the closed-form factor updates.

The half-steps solve many small symmetric positive-definite systems at once:
both functions here take a stack of matrices (``(..., n, n)``) and right-hand
sides (``(..., n)``), and a single 2-d system is a stack of none.  A stacked
Cholesky factorization checks positive definiteness and numpy's stacked LU
solve does the solving, each one call for the whole stack; no iterative
solvers.  The half-steps' systems (``C C^T + lambda I``, lambda > 0) fail the
check only on degenerate input, as one SolveError for the whole stack.
Everything runs in float64.
"""

from __future__ import annotations

import numpy as np


class SolveError(ValueError):
    """The system cannot be solved: it has non-finite entries or is not positive definite."""


def weighted_gram(columns: np.ndarray) -> np.ndarray:
    """Sum of outer products c c^T over each k x n block of column vectors.

    columns is one (k, n) block or a stack (..., k, n); the result is the
    matching (k, k) or (..., k, k).  Each result is exactly symmetric: every
    strict upper-triangle entry is computed once and mirrored below the
    diagonal.  An empty block (n == 0) yields the k x k zero matrix.
    """
    cols = np.asarray(columns, dtype=np.float64)
    if cols.ndim < 2:
        raise ValueError(f"expected a column block of at least 2 dimensions, got shape {cols.shape}")
    gram = cols @ cols.swapaxes(-1, -2)
    lower, upper = np.tril_indices(gram.shape[-1], -1)
    gram[..., lower, upper] = gram[..., upper, lower]
    return gram


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for each symmetric positive-definite A of a stack.

    a has shape (..., n, n) and b the matching (..., n).  Each A must be
    symmetric to within 1e-10 (relative to its own largest entry).  Raises
    SolveError on non-finite entries and when any A is not positive definite.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if b.shape != a.shape[:-1]:
        raise ValueError(f"right-hand side shape {b.shape} does not match matrices of shape {a.shape}")
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise SolveError("non-finite entries in linear system")
    if a.size:
        skew = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
        scale = np.abs(a).max(axis=(-2, -1))
        if (skew > 1e-10 * (1.0 + scale)).any():
            raise ValueError(f"matrix is not symmetric: max |A - A^T| = {skew.max():g}")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SolveError("matrix is not positive definite") from None
    return np.linalg.solve(a, b[..., None])[..., 0]

