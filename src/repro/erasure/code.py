"""Erasure-code interface for the recovery layer, and the one linear code.

The recovery algorithms in :mod:`repro.recovery` only need three things
from a code: its parameters ``(k, m)``, the ability to encode/decode, and
— crucially for CAR — a *repair vector*: the coefficients ``y`` such that
a lost chunk equals ``sum_i y_i * H'_i`` over the chosen helpers
(Equation 6 of the paper).  :class:`ErasureCode` is that interface.

:class:`LinearCode` implements all of it once from an ``n x k``
generator matrix: encode applies its parity rows, decode inverts the
generator rows of a spanning basis of the survivors (Equation 4), and a
repair vector solves ``y · G[helpers] = G[lost]`` through the stacked
reduction of :mod:`repro.erasure.matrix`.  Reed-Solomon and LRC differ
only in their generators and in which helper sets they accept.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cache import BoundedCache
from repro.errors import CodingError, InsufficientChunksError
from repro.erasure.matrix import GFMatrix, _solve
from repro.gf.field import GaloisField, gf
from repro.gf.vector import batch_dot, buffer_dtype, dot_rows, matrix_apply

__all__ = ["ErasureCode", "LinearCode"]


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

    def encode_into(self, stripes: np.ndarray) -> None:
        """Fill rows ``k ..`` of every stripe of a ``(B, n, L)`` block
        with the parity of its first ``k`` rows, in place."""
        for stripe in stripes:
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
        indices = sorted(helpers)
        y = self.repair_vector(lost_index, indices)
        return dot_rows(gf(self.w), y, [helpers[i] for i in indices])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, m={self.m}, w={self.w})"


class LinearCode(ErasureCode):
    """A systematic linear code given by its ``n x k`` generator matrix.

    Row ``i`` of ``generator`` maps the ``k`` data chunks to chunk ``i``;
    the first ``k`` rows are the identity.  Decode inverses are cached
    per available-index tuple (as ``<name>.decode_matrix``) and repair
    vectors per ``(lost, helpers)`` row (as ``<name>.repair_vector``).
    """

    def __init__(self, generator: GFMatrix, k: int, name: str) -> None:
        self.field: GaloisField = generator.field
        self.generator = generator
        self.k = k
        self.m = generator.rows - k
        self.w = self.field.w
        self._inverse_cache = BoundedCache(maxsize=512, name=f"{name}.decode_matrix")
        self._repair_cache = BoundedCache(maxsize=2048, name=f"{name}.repair_vector")

    # -- encode / decode ---------------------------------------------------

    def _check_chunks(self, chunks: Sequence[np.ndarray]) -> None:
        sizes = {c.shape for c in chunks}
        if len(sizes) > 1:
            raise CodingError(f"chunks have differing shapes: {sizes}")
        dtype = buffer_dtype(self.field)
        for c in chunks:
            if c.dtype != dtype:
                raise CodingError(
                    f"chunk dtype {c.dtype} does not match field dtype {dtype}"
                )

    def _check_indices(self, indices: Sequence[int]) -> None:
        for i in indices:
            if not 0 <= i < self.n:
                raise CodingError(f"chunk index {i} out of range for n={self.n}")

    def encode(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Compute the ``m`` parity chunks from the ``k`` data chunks."""
        if len(data_chunks) != self.k:
            raise CodingError(
                f"encode expects exactly k={self.k} data chunks, got {len(data_chunks)}"
            )
        self._check_chunks(data_chunks)
        return matrix_apply(self.field, self.generator.data[self.k :], list(data_chunks))

    def encode_stripe(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Return the full stripe: the data chunks followed by parity."""
        return list(data_chunks) + self.encode(data_chunks)

    def encode_into(self, stripes: np.ndarray) -> None:
        """Parity of a ``(B, n, L)`` block of stripes in one kernel call.

        The block's data rows, laid side by side as ``k`` rows of
        ``B * L`` elements, times the parity rows; the ``m`` product rows
        are cut back into each stripe's last ``m`` rows.  A block of one
        stripe is encoded straight into its rows.
        """
        parity = self.generator.data[self.k :]
        if len(stripes) == 1:
            stripe = stripes[0]
            batch_dot(self.field, parity, stripe[: self.k], out=stripe[self.k :])
            return
        count, _, size = stripes.shape
        data = stripes[:, : self.k].transpose(1, 0, 2).reshape(self.k, -1)
        out = batch_dot(self.field, parity, data)
        stripes[:, self.k :] = out.reshape(self.m, count, size).transpose(1, 0, 2)

    def _decode_basis(self, indices: tuple[int, ...]) -> tuple[list[int], GFMatrix]:
        """The lowest-index basis of the available rows (greedy, so the
        first ``k`` of an MDS code) and its generator rows' inverse."""
        basis = self.generator.take_rows(indices).independent_rows()
        if len(basis) < self.k:
            raise InsufficientChunksError(
                f"available chunks {list(indices)} do not span the data space "
                f"(rank {len(basis)} < k={self.k})"
            )
        chosen = [indices[b] for b in basis]
        return chosen, self.generator.take_rows(chosen).invert()

    def decode(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Reconstruct all ``k`` data chunks from any spanning available set.

        Raises:
            InsufficientChunksError: if the available rows do not span
                the data space.
        """
        indices = tuple(sorted(available))
        self._check_indices(indices)
        chosen, inverse = self._inverse_cache.get_or_build(
            indices, lambda: self._decode_basis(indices)
        )
        bufs = [available[i] for i in chosen]
        self._check_chunks(bufs)
        return matrix_apply(self.field, inverse.data, bufs)

    def decode_all(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Reconstruct the *entire* stripe (data + parity chunks)."""
        return self.encode_stripe(self.decode(available))

    # -- single-failure repair ---------------------------------------------

    def _check_helpers(self, count: int) -> None:
        """Reject a helper count this code can never repair from.  Any
        count may span a lost row of a general linear code; the solve
        finds the sets that do not."""

    def _check_repair(self, lost_index: int, helpers: Sequence[int]) -> None:
        """Raise the error a bad ``(lost, helpers)`` row deserves."""
        if not 0 <= lost_index < self.n:
            raise CodingError(f"lost index {lost_index} out of range")
        for h in helpers:
            if not 0 <= h < self.n:
                raise CodingError(f"helper index {h} out of range")
        if lost_index in helpers:
            raise CodingError("helper set must not contain the lost chunk")
        if len(set(helpers)) != len(helpers):
            raise CodingError("helper indices must be distinct")

    def repair_vectors(
        self, lost_indices: np.ndarray, helper_indices: np.ndarray
    ) -> np.ndarray:
        """Every row's ``y`` with ``y · G[helpers[s]] = G[lost[s]]``, all
        rows in one stacked reduction; an unknown that dependent helpers
        leave free is 0.  A bad row raises what :meth:`repair_vector`
        raises for it.

        Raises:
            InsufficientChunksError: naming the first row whose helpers
                do not span its lost row.
        """
        lost = np.asarray(lost_indices, dtype=np.int64)
        helpers = np.asarray(helper_indices, dtype=np.int64)
        self._check_helpers(helpers.shape[1])
        ordered = np.sort(helpers, axis=1)
        bad = (
            (lost < 0) | (lost >= self.n)
            | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            | ((helpers < 0) | (helpers >= self.n)).any(axis=1)
            | (helpers == lost[:, None]).any(axis=1)
        )
        if bad.any():
            s = int(bad.argmax())
            self._check_repair(int(lost[s]), helpers[s].tolist())
        g = self.generator.data
        y, pivots = _solve(self.field, g[helpers], g[lost])
        # The right-hand column pivots iff G[lost] is outside the span.
        unsolved = pivots[:, -1]
        if unsolved.any():
            s = int(unsolved.argmax())
            raise InsufficientChunksError(
                f"chunk {int(lost[s])} cannot be repaired from helpers "
                f"{tuple(helpers[s].tolist())}"
            )
        return y

    def repair_vector(
        self, lost_index: int, helper_indices: Sequence[int]
    ) -> list[int]:
        """Coefficients ``y = g_lost · X`` over the chosen helpers, ordered
        to match ``helper_indices``: the one-row case of
        :meth:`repair_vectors`, cached per ``(lost_index, helpers)``."""
        helpers = tuple(helper_indices)
        return list(
            self._repair_cache.get_or_build(
                (lost_index, helpers),
                lambda: tuple(self.repair_vectors([lost_index], [helpers])[0].tolist()),
            )
        )

    def reconstruct(
        self, lost_index: int, helpers: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Rebuild one chunk from a helper set :meth:`repair_vector` accepts."""
        indices = sorted(helpers)
        y = self.repair_vector(lost_index, indices)
        bufs = [helpers[i] for i in indices]
        self._check_chunks(bufs)
        return dot_rows(self.field, y, bufs)
