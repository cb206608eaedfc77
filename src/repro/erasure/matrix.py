"""Dense matrix algebra over GF(2^w).

Matrices are stored as 2-D numpy arrays of the field's element dtype and
wrapped in :class:`GFMatrix`, which provides multiplication, Gauss-Jordan
inversion, rank, and the classical erasure-coding constructors
(Vandermonde, Cauchy, and their systematic reductions), and
:func:`solve_right_stack`, which solves a stack of systems at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.errors import CodingError, FieldError, SingularMatrixError
from repro.gf.field import GaloisField, gf

__all__ = ["GFMatrix", "solve_right_stack"]


class GFMatrix:
    """An ``r x c`` matrix with entries in GF(2^w).

    The underlying numpy array is owned by the instance; constructors
    copy their input.  All arithmetic stays within the field.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: GaloisField, data: np.ndarray | Sequence[Sequence[int]]) -> None:
        arr = np.array(data, dtype=field.tables.dtype, copy=True)
        if arr.ndim != 2:
            raise FieldError(f"matrix data must be 2-D, got shape {arr.shape}")
        if arr.size and int(arr.max()) >= field.order:
            raise FieldError(
                f"matrix contains values outside GF(2^{field.w})"
            )
        self.field = field
        self.data = arr

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, field: GaloisField, rows: int, cols: int) -> "GFMatrix":
        """The ``rows x cols`` all-zero matrix."""
        return cls(field, np.zeros((rows, cols), dtype=field.tables.dtype))

    @classmethod
    def identity(cls, field: GaloisField, n: int) -> "GFMatrix":
        """The ``n x n`` identity matrix."""
        return cls(field, np.eye(n, dtype=field.tables.dtype))

    @classmethod
    def vandermonde(cls, field: GaloisField, rows: int, cols: int) -> "GFMatrix":
        """Vandermonde matrix ``V[i, j] = (i)^j`` over the field.

        Rows are indexed by the field elements ``0, 1, 2, ...`` (with the
        convention ``0^0 = 1``).  Any ``cols`` rows of this matrix are
        linearly independent when the row indices are distinct elements,
        which is what makes it an MDS generator.
        """
        if rows > field.order:
            raise CodingError(
                f"a {rows}-row Vandermonde matrix needs {rows} distinct "
                f"elements but GF(2^{field.w}) has only {field.order}"
            )
        out = np.zeros((rows, cols), dtype=field.tables.dtype)
        for i in range(rows):
            acc = 1
            for j in range(cols):
                out[i, j] = acc
                acc = field.mul(acc, i)
        return cls(field, out)

    @classmethod
    def cauchy(
        cls, field: GaloisField, xs: Sequence[int], ys: Sequence[int]
    ) -> "GFMatrix":
        """Cauchy matrix ``C[i, j] = 1 / (xs[i] + ys[j])``.

        Requires all ``xs[i] + ys[j]`` nonzero and the xs (resp. ys)
        pairwise distinct; every square submatrix is then invertible.
        """
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise CodingError("Cauchy construction requires distinct xs and ys")
        out = np.zeros((len(xs), len(ys)), dtype=field.tables.dtype)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                s = field.add(x, y)
                if s == 0:
                    raise CodingError(
                        f"Cauchy construction: xs[{i}] + ys[{j}] == 0"
                    )
                out[i, j] = field.inv(s)
        return cls(field, out)

    # -- shape / access ---------------------------------------------------

    @property
    def rows(self) -> int:
        """Number of rows."""
        return int(self.data.shape[0])

    @property
    def cols(self) -> int:
        """Number of columns."""
        return int(self.data.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, cols)``."""
        return (self.rows, self.cols)

    def __getitem__(self, idx: tuple[int, int]) -> int:
        return int(self.data[idx])

    def row(self, i: int) -> np.ndarray:
        """Copy of row ``i``."""
        return self.data[i, :].copy()

    def take_rows(self, indices: Sequence[int]) -> "GFMatrix":
        """New matrix consisting of the given rows, in order."""
        return GFMatrix(self.field, self.data[list(indices), :])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GFMatrix)
            and other.field == self.field
            and other.data.shape == self.data.shape
            and bool(np.array_equal(other.data, self.data))
        )

    def __hash__(self) -> int:  # pragma: no cover - matrices are rarely hashed
        return hash((self.field, self.data.tobytes(), self.shape))

    def __repr__(self) -> str:
        return f"GFMatrix(GF(2^{self.field.w}), shape={self.shape})"

    def copy(self) -> "GFMatrix":
        """Deep copy."""
        return GFMatrix(self.field, self.data)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "GFMatrix") -> "GFMatrix":
        self._check_compat(other)
        if other.shape != self.shape:
            raise FieldError(f"shape mismatch: {self.shape} vs {other.shape}")
        return GFMatrix(self.field, np.bitwise_xor(self.data, other.data))

    def _check_compat(self, other: "GFMatrix") -> None:
        if other.field != self.field:
            raise FieldError("matrices are over different fields")

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        self._check_compat(other)
        if self.cols != other.rows:
            raise FieldError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        products = _mul(
            self.field,
            self.data.astype(np.int64)[:, :, None],
            other.data.astype(np.int64)[None, :, :],
        )
        return GFMatrix(self.field, np.bitwise_xor.reduce(products, axis=1))

    def mul_vector(self, vec: Sequence[int]) -> list[int]:
        """Matrix-vector product over the field."""
        if len(vec) != self.cols:
            raise FieldError(f"vector length {len(vec)} != cols {self.cols}")
        column = GFMatrix(self.field, [[v] for v in vec])
        return (self @ column).data[:, 0].tolist()

    def transpose(self) -> "GFMatrix":
        """Matrix transpose."""
        return GFMatrix(self.field, self.data.T)

    # -- elimination ------------------------------------------------------

    def invert(self) -> "GFMatrix":
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

    def rank(self) -> int:
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

    def is_invertible(self) -> bool:
        """True iff square and full-rank."""
        return self.rows == self.cols and self.rank() == self.rows

    # -- linear solving -----------------------------------------------------

    def independent_rows(self) -> list[int]:
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

    def solve_right(self, rhs: Sequence[int]) -> list[int]:
        """Solve ``x @ self == rhs`` for a row vector ``x``.

        Used to express one generator row (``rhs``) as a combination of
        helper rows (``self``) — the general repair-vector computation
        for non-MDS codes, where fewer than ``cols`` helpers may
        suffice.

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

    # -- systematic reduction ----------------------------------------------

    def to_systematic(self) -> "GFMatrix":
        """Reduce a ``(k+m) x k`` generator so its top ``k`` rows are I.

        Column operations (equivalently, right-multiplication by the
        inverse of the top square block) preserve the MDS property while
        making the code systematic.  This is the standard Vandermonde →
        systematic-RS transformation.

        Raises:
            SingularMatrixError: if the top ``k x k`` block is singular.
        """
        k = self.cols
        if self.rows < k:
            raise SingularMatrixError(
                f"generator must have at least cols={k} rows, got {self.rows}"
            )
        top = GFMatrix(self.field, self.data[:k, :])
        return self @ top.invert()


@lru_cache(maxsize=None)
def _product_table(w: int) -> np.ndarray:
    """``T[a << w | b] = a * b`` over the whole of GF(2^w), w <= 8."""
    a, b = np.divmod(np.arange(1 << 2 * w), 1 << w)
    return _mul_logs(gf(w).tables, a, b)


def _mul_logs(t, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` through the log/exp tables, zero operands masked."""
    zero = (a == 0) | (b == 0)
    out = t.exp[np.where(zero, 0, t.log[a] + t.log[b])].astype(np.int64)
    out[zero] = 0
    return out


def _mul(field: GaloisField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of two broadcastable int64 element arrays."""
    if field.w <= 8:
        return _product_table(field.w)[(a << field.w) | b]
    return _mul_logs(field.tables, a, b)


def solve_right_stack(
    field: GaloisField, matrices: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """``(S, k)`` int64 ``y`` with ``y[s] @ matrices[s] == rhs[s]``, for
    ``(S, k, k)`` matrices and ``(S, k)`` right-hand sides.

    One Gauss-Jordan pass reduces the ``(S, k, k + 1)`` stack of
    augmented blocks ``[matrices[s]^T | rhs[s]]`` column by column, each
    system on its own pivot, so the cost is ``k`` steps of numpy work
    whatever ``S`` is.  Raises :class:`SingularMatrixError` naming the
    first singular system.
    """
    stack, k = matrices.shape[:2]
    aug = np.concatenate(
        (np.swapaxes(matrices, 1, 2), rhs[:, :, None]), axis=2
    ).astype(np.int64)
    systems = np.arange(stack)
    singular = np.zeros(stack, dtype=bool)
    for col in range(k):
        nonzero = aug[:, col:, col] != 0
        singular |= ~nonzero.any(axis=1)
        pivot = col + nonzero.argmax(axis=1)
        row = aug[systems, pivot]
        aug[systems, pivot] = aug[:, col]
        # A singular system's pivot is 0, whose table inverse is 0: its
        # rows go to zero and it is reported below.
        inverse = field.tables.inv[row[:, col : col + 1]].astype(np.int64)
        aug[:, col] = _mul(field, inverse, row)
        factors = aug[:, :, col : col + 1].copy()
        factors[:, col] = 0
        aug[:, :, col:] ^= _mul(field, factors, aug[:, None, col, col:])
    if singular.any():
        raise SingularMatrixError(
            f"system {int(singular.argmax())} is singular over the field"
        )
    return aug[:, :, k]
