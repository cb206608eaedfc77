"""Abstract interface for erasure codes used by the recovery layer.

The recovery algorithms in :mod:`repro.recovery` only need three things
from a code: its parameters ``(k, m)``, the ability to encode/decode, and
— crucially for CAR — a *repair vector*: the coefficients ``y`` such that
a lost chunk equals ``sum_i y_i * H'_i`` over the chosen ``k`` helpers
(Equation 6 of the paper).  Any linear MDS code can provide this.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence

import numpy as np

__all__ = ["ErasureCode"]


class ErasureCode(abc.ABC):
    """A systematic ``(k, m)`` linear erasure code over GF(2^w).

    Chunk indices run ``0 .. k+m-1``: indices ``< k`` are data chunks,
    the rest are parity chunks.  Chunks are 1-D numpy buffers of the
    field's element dtype, all the same length within a stripe.
    """

    #: Number of data chunks per stripe.
    k: int
    #: Number of parity chunks per stripe.
    m: int
    #: Field width in bits.
    w: int

    @property
    def n(self) -> int:
        """Total chunks per stripe (``k + m``)."""
        return self.k + self.m

    @abc.abstractmethod
    def encode(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Compute the ``m`` parity chunks from the ``k`` data chunks."""

    def encode_into(self, stripe: np.ndarray) -> None:
        """Fill rows ``k ..`` of an ``(n, L)`` stripe with the parity of
        its first ``k`` rows, in place."""
        stripe[self.k :] = self.encode(list(stripe[: self.k]))

    @abc.abstractmethod
    def decode(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Reconstruct all ``k`` data chunks from any ``k`` available chunks.

        Args:
            available: chunk index -> buffer; at least ``k`` entries.

        Returns:
            The ``k`` data chunks in index order.
        """

    @abc.abstractmethod
    def repair_vector(
        self, lost_index: int, helper_indices: Sequence[int]
    ) -> list[int]:
        """Coefficients ``y`` with ``H_lost = sum_i y[i] * H'_{helpers[i]}``.

        Args:
            lost_index: index of the chunk to reconstruct.
            helper_indices: exactly ``k`` distinct surviving chunk indices
                (must not contain ``lost_index``).
        """

    def repair_vectors(
        self, lost_indices: np.ndarray, helper_indices: np.ndarray
    ) -> np.ndarray:
        """:meth:`repair_vector` of ``(S,)`` lost chunks over ``(S, h)``
        helper rows, as ``(S, h)`` coefficients: row by row, unless a
        code solves the batch at once."""
        lost, helpers = np.asarray(lost_indices), np.asarray(helper_indices)
        out = [self.repair_vector(*row) for row in zip(lost.tolist(), helpers.tolist())]
        return np.array(out, dtype=np.int64).reshape(helpers.shape)

    def reconstruct(
        self, lost_index: int, helpers: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Rebuild one lost chunk from exactly ``k`` helper chunks.

        Default implementation combines :meth:`repair_vector` with a
        field linear combination; concrete codes may override.
        """
        from repro.gf.field import gf
        from repro.gf.vector import dot_rows

        indices = sorted(helpers)
        y = self.repair_vector(lost_index, indices)
        return dot_rows(gf(self.w), y, [helpers[i] for i in indices])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, m={self.m}, w={self.w})"
