"""Dense matrix algebra over GF(2^w).

Matrices are stored as 2-D numpy arrays of the field's element dtype and
wrapped in :class:`GFMatrix`, which provides multiplication and the
classical erasure-coding constructors (Vandermonde, Cauchy, and their
systematic reductions).

There is one elimination: a Gauss-Jordan reduction over an ``(S, R, C)``
stack of systems, each pivoting on its own rows, in whole-stack numpy
steps with products gathered from the field's product table.  ``invert``
reduces ``[A | I]``, ``rank`` counts pivots, ``independent_rows`` reads
the pivot columns of ``A^T``, and :func:`solve_right_stack` reduces
``[M^T | rhs]`` for a whole stack of systems at once, of which
``solve_right`` is the one-system case.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import CodingError, FieldError, SingularMatrixError
from repro.gf.field import GaloisField
from repro.gf.vector import _product_table

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
        products = _mul(self.field, self.data[:, :, None], other.data[None, :, :])
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
        """Inverse: ``[A | I]`` reduced to ``[I | A^-1]``.

        Raises:
            SingularMatrixError: if the matrix is not square or singular.
        """
        if self.rows != self.cols:
            raise SingularMatrixError(f"cannot invert non-square {self.shape}")
        n = self.rows
        aug = np.concatenate((self.data, np.eye(n, dtype=self.data.dtype)), axis=1)
        pivots = _eliminate(self.field, aug[None], n)
        if not pivots.all():
            raise SingularMatrixError("matrix is singular over the field")
        return GFMatrix(self.field, aug[:, n:])

    def rank(self) -> int:
        """Rank over the field: the pivot count of its reduction."""
        return int(_eliminate(self.field, self.data[None].copy(), self.cols).sum())

    def is_invertible(self) -> bool:
        """True iff square and full-rank."""
        return self.rows == self.cols and self.rank() == self.rows

    # -- linear solving -----------------------------------------------------

    def independent_rows(self) -> list[int]:
        """Indices of a maximal linearly independent subset of rows.

        Greedy: rows are considered in order and kept iff they increase
        the rank — so the returned list is the lexicographically first
        basis, which decode paths use to prefer low-index (data) chunks.
        Those are the pivot columns of the transpose's reduction.
        """
        pivots = _eliminate(self.field, self.data.T[None].copy(), self.rows)
        return np.flatnonzero(pivots[0]).tolist()

    def solve_right(self, rhs: Sequence[int]) -> list[int]:
        """Solve ``x @ self == rhs`` for a row vector ``x``: the one-system
        reduction behind :func:`solve_right_stack`, free unknowns set to 0.

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
        target = GFMatrix(self.field, [[self.field.check(int(v)) for v in rhs]])
        x, pivots = _solve(self.field, self.data[None], target.data)
        # The right-hand column pivots iff rhs is outside the row span;
        # the product re-checks the solution.
        if pivots[0, -1] or GFMatrix(self.field, x) @ self != target:
            raise SingularMatrixError(
                "target row is not in the span of the helper rows"
            )
        return x[0].tolist()

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


def _mul(field: GaloisField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of two broadcastable element arrays: one
    gather from the field's product table (:mod:`repro.gf.vector`,
    ``T[a << w | b] = a * b``) for w <= 8, log/exp otherwise."""
    if field.w <= 8:
        return _product_table(field)[np.left_shift(a, field.w, dtype=np.intp) | b]
    t = field.tables
    zero = (a == 0) | (b == 0)
    return np.where(zero, 0, t.exp[np.where(zero, 0, t.log[a] + t.log[b])])


def _eliminate(field: GaloisField, aug: np.ndarray, width: int) -> np.ndarray:
    """Gauss-Jordan over an ``(S, R, C)`` stack, in place.

    Each system pivots on its own next row within the first ``width``
    columns: the first nonzero entry at or below it is swapped up,
    scaled to 1 and cleared from every other row.  A system without a
    pivot in a column is carried through the same whole-stack update
    with a zero factor and an inverse of 1, so no step copies a subset.
    Returns the ``(S, width)`` pivot mask; system ``s``'s first
    ``mask[s].sum()`` rows are then its reduced pivot rows, in column
    order, and the rest are zero within those columns.
    """
    stack, rows, _ = aug.shape
    systems, row_ids = np.arange(stack), np.arange(rows)
    rank = np.zeros(stack, dtype=np.intp)
    pivots = np.zeros((stack, width), dtype=bool)
    for col in range(width):
        if (rank == rows).all():
            break
        nonzero = (aug[:, :, col] != 0) & (row_ids >= rank[:, None])
        found = nonzero.any(axis=1)
        target = np.minimum(rank, rows - 1)
        pivot = np.where(found, nonzero.argmax(axis=1), target)
        row = aug[systems, pivot]
        aug[systems, pivot] = aug[systems, target]
        inverse = np.where(found, field.tables.inv[row[:, col]], 1)
        row = _mul(field, inverse[:, None], row[:, col:])
        aug[systems, target, col:] = row
        factors = np.where(found[:, None], aug[:, :, col], 0)
        factors[systems, target] = 0
        aug[:, :, col:] ^= _mul(field, factors[:, :, None], row[:, None, :])
        pivots[:, col] = found
        rank += found
    return pivots


def _solve(
    field: GaloisField, matrices: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``[matrices[s]^T | rhs[s]]`` reduced, for ``(S, h, c)`` matrices
    and ``(S, c)`` right-hand sides.

    Returns ``y``, ``(S, h)`` with every free unknown 0, and the
    ``(S, h + 1)`` pivot mask: ``y[s] @ matrices[s] == rhs[s]`` iff
    ``mask[s, h]`` is clear (the right-hand column pivots exactly when
    ``rhs[s]`` is outside the row span), and the solution is unique iff
    also ``mask[s, :h]`` is all set.
    """
    stack, h, _ = matrices.shape
    aug = np.concatenate((np.swapaxes(matrices, 1, 2), rhs[:, :, None]), axis=2)
    pivots = _eliminate(field, aug, h + 1)
    y = np.zeros((stack, h), dtype=np.int64)
    # Row r of a system holds the unknown of its r-th pivot column.
    ranks = pivots[:, :h].sum(axis=1)
    y[pivots[:, :h]] = aug[:, :, h][np.arange(aug.shape[1]) < ranks[:, None]]
    return y, pivots


def solve_right_stack(
    field: GaloisField, matrices: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """``(S, k)`` ``y`` with ``y[s] @ matrices[s] == rhs[s]``, for
    ``(S, k, k)`` matrices and ``(S, k)`` right-hand sides.

    One stacked reduction of the augmented blocks ``[matrices[s]^T |
    rhs[s]]``, each system on its own pivots, so the cost is ``k``
    steps of numpy work whatever ``S`` is.  Raises
    :class:`SingularMatrixError` naming the first singular system.
    """
    y, pivots = _solve(field, matrices, rhs)
    singular = ~pivots[:, :-1].all(axis=1)
    if singular.any():
        raise SingularMatrixError(
            f"system {int(singular.argmax())} is singular over the field"
        )
    return y
