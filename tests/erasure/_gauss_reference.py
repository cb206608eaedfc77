"""Scalar Gauss-Jordan references for :class:`~repro.erasure.matrix.GFMatrix`.

The four element-by-element elimination loops ``GFMatrix`` used before its
methods became views of one vectorised stacked reduction, transcribed as
free functions.  They multiply through :meth:`GaloisField.mul` one
element at a time and share no code with the reduction, so tests that
hold the library's ``invert``, ``rank``, ``independent_rows``,
``solve_right`` and ``solve_right_stack`` to them compare two different
computations.
"""

import numpy as np

from repro.erasure.matrix import GFMatrix
from repro.errors import FieldError, SingularMatrixError


def invert(self: GFMatrix) -> GFMatrix:
    """Inverse via Gauss-Jordan elimination.

    Raises:
        SingularMatrixError: if the matrix is not square or singular.
    """
    if self.rows != self.cols:
        raise SingularMatrixError(f"cannot invert non-square {self.shape}")
    n = self.rows
    f = self.field
    # Work in a wide augmented matrix [A | I].
    aug = np.zeros((n, 2 * n), dtype=np.int64)
    aug[:, :n] = self.data
    aug[:, n:] = np.eye(n, dtype=np.int64)
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if aug[r, col] != 0), None
        )
        if pivot is None:
            raise SingularMatrixError("matrix is singular over the field")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_p = f.inv(int(aug[col, col]))
        for j in range(2 * n):
            aug[col, j] = f.mul(int(aug[col, j]), inv_p)
        for r in range(n):
            if r == col or aug[r, col] == 0:
                continue
            factor = int(aug[r, col])
            for j in range(2 * n):
                aug[r, j] ^= f.mul(factor, int(aug[col, j]))
    return GFMatrix(f, aug[:, n:])


def rank(self: GFMatrix) -> int:
    """Rank over the field (row echelon form)."""
    f = self.field
    work = self.data.astype(np.int64, copy=True)
    rank = 0
    for col in range(self.cols):
        pivot = next(
            (r for r in range(rank, self.rows) if work[r, col] != 0), None
        )
        if pivot is None:
            continue
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        inv_p = f.inv(int(work[rank, col]))
        for j in range(self.cols):
            work[rank, j] = f.mul(int(work[rank, j]), inv_p)
        for r in range(self.rows):
            if r == rank or work[r, col] == 0:
                continue
            factor = int(work[r, col])
            for j in range(self.cols):
                work[r, j] ^= f.mul(factor, int(work[rank, j]))
        rank += 1
        if rank == self.rows:
            break
    return rank


def is_invertible(self: GFMatrix) -> bool:
    """True iff square and full-rank."""
    return self.rows == self.cols and rank(self) == self.rows


def independent_rows(self: GFMatrix) -> list[int]:
    """Indices of a maximal linearly independent subset of rows.

    Greedy: rows are considered in order and kept iff they increase
    the rank — so the returned list is the lexicographically first
    basis, which decode paths use to prefer low-index (data) chunks.
    """
    f = self.field
    work = self.data.astype(np.int64, copy=True)
    kept: list[int] = []
    pivot_cols: list[int] = []
    for r in range(self.rows):
        # Reduce row r by previously chosen pivots.
        row = work[r].copy()
        for prow, pcol in zip(kept, pivot_cols):
            factor = int(row[pcol])
            if factor:
                for j in range(self.cols):
                    row[j] ^= f.mul(factor, int(work[prow, j]))
        nonzero = np.nonzero(row)[0]
        if nonzero.size == 0:
            continue
        pcol = int(nonzero[0])
        inv_p = f.inv(int(row[pcol]))
        for j in range(self.cols):
            row[j] = f.mul(int(row[j]), inv_p)
        work[r] = row
        kept.append(r)
        pivot_cols.append(pcol)
        if len(kept) == self.cols:
            break
    return kept


def solve_right(self: GFMatrix, rhs) -> list[int]:
    """Solve ``x @ self == rhs`` for a row vector ``x``.

    Raises:
        SingularMatrixError: if ``rhs`` is not in the row span.
    """
    if len(rhs) != self.cols:
        raise FieldError(
            f"rhs length {len(rhs)} does not match cols {self.cols}"
        )
    f = self.field
    # Gaussian elimination on the transposed system:
    # self^T (cols x rows) @ x^T = rhs^T.
    a = self.data.T.astype(np.int64)  # (cols, rows)
    aug = np.zeros((self.cols, self.rows + 1), dtype=np.int64)
    aug[:, : self.rows] = a
    aug[:, self.rows] = [f.check(int(v)) for v in rhs]
    n_rows, n_cols = self.cols, self.rows
    pivots: list[tuple[int, int]] = []
    row_idx = 0
    for col in range(n_cols):
        pivot = next(
            (r for r in range(row_idx, n_rows) if aug[r, col] != 0), None
        )
        if pivot is None:
            continue
        if pivot != row_idx:
            aug[[row_idx, pivot]] = aug[[pivot, row_idx]]
        inv_p = f.inv(int(aug[row_idx, col]))
        for j in range(n_cols + 1):
            aug[row_idx, j] = f.mul(int(aug[row_idx, j]), inv_p)
        for r in range(n_rows):
            if r == row_idx or aug[r, col] == 0:
                continue
            factor = int(aug[r, col])
            for j in range(n_cols + 1):
                aug[r, j] ^= f.mul(factor, int(aug[row_idx, j]))
        pivots.append((row_idx, col))
        row_idx += 1
        if row_idx == n_rows:
            break
    # Inconsistency check: a zero row with nonzero rhs.
    for r in range(row_idx, n_rows):
        if aug[r, n_cols] != 0 and not aug[r, :n_cols].any():
            raise SingularMatrixError(
                "target row is not in the span of the helper rows"
            )
    x = [0] * n_cols
    for r, c in pivots:
        x[c] = int(aug[r, n_cols])
    # Verify (also catches inconsistent systems with free variables).
    if self.field is not None:
        check = GFMatrix(self.field, [x]) @ self
        if [int(v) for v in check.data[0]] != [
            f.check(int(v)) for v in rhs
        ]:
            raise SingularMatrixError(
                "target row is not in the span of the helper rows"
            )
    return x
