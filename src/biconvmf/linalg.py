"""Dense linear algebra for the closed-form factor updates.

The row updates only ever need k x k symmetric positive-definite solves with
k around 50, so one Cholesky factorization per row is the right tool; no
iterative solvers.  Everything runs in float64.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve


class SolveError(ValueError):
    """The system cannot be solved: it has non-finite entries or is not positive definite."""


class SingularMatrixError(SolveError):
    """A supposedly SPD matrix produced a non-positive Cholesky pivot."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite: non-positive pivot at index {pivot}")


def weighted_gram(columns: np.ndarray) -> np.ndarray:
    """Sum of outer products c c^T over a k x n block of column vectors.

    The result is exactly symmetric: each strict upper-triangle entry is
    computed once and mirrored below the diagonal.  An empty block (n == 0)
    yields the k x k zero matrix.
    """
    cols = np.asarray(columns, dtype=np.float64)
    if cols.ndim != 2:
        raise ValueError(f"expected a 2-d column block, got shape {cols.shape}")
    gram = cols @ cols.T
    lower = np.tril_indices_from(gram, -1)
    gram[lower] = gram.T[lower]
    return gram


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A via Cholesky.

    A must be symmetric to within 1e-10 (relative to its largest entry).
    Raises SingularMatrixError naming the first failing pivot when A is not
    positive definite.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"right-hand side shape {b.shape} does not match matrix of size {a.shape[0]}")
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise SolveError("non-finite entries in linear system")
    skew = np.abs(a - a.T).max() if a.size else 0.0
    if skew > 1e-10 * (1.0 + np.abs(a).max()):
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {skew:g}")
    try:
        factor = cho_factor(a, lower=True, check_finite=False)
    except LinAlgError:
        raise SingularMatrixError(_first_bad_pivot(a)) from None
    return cho_solve(factor, b, check_finite=False)


def _first_bad_pivot(a: np.ndarray) -> int:
    # Error path only: redo the factorization slowly to locate the pivot.
    n = a.shape[0]
    chol = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - chol[j, :j] @ chol[j, :j]
        if not np.isfinite(d) or d <= 0.0:
            return j
        chol[j, j] = np.sqrt(d)
        if j + 1 < n:
            chol[j + 1:, j] = (a[j + 1:, j] - chol[j + 1:, :j] @ chol[j, :j]) / chol[j, j]
    return n - 1
