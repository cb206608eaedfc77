"""Systematic Reed-Solomon codes over GF(2^w).

Two classical constructions are provided, selected by ``construction``:

- ``"vandermonde"`` (default): start from the ``(k+m) x k`` Vandermonde
  matrix over distinct field elements and right-multiply by the inverse
  of its top square block so the first ``k`` rows become the identity.
  Column operations preserve the any-k-rows-invertible (MDS) property.
- ``"cauchy"``: stack the identity on an ``m x k`` Cauchy matrix with
  disjoint coordinate sets; every square submatrix of a Cauchy matrix is
  invertible, so the code is MDS by construction.

Decoding any erasure pattern reduces to inverting the ``k x k`` submatrix
of the generator formed by the surviving rows (Equation 4 of the paper);
single-chunk repair uses the *repair vector* ``y = g_lost · X``
(Equation 6), which is also the quantity CAR splits per rack for partial
decoding.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.cache import BoundedCache
from repro.errors import (
    CodingError,
    InsufficientChunksError,
    InvalidCodeParametersError,
)
from repro.erasure.code import ErasureCode
from repro.erasure.matrix import GFMatrix, solve_right_stack
from repro.gf.field import GaloisField, gf
from repro.gf.vector import batch_dot, buffer_dtype, dot_rows, matrix_apply

__all__ = ["RSCode", "default_width_for"]

_CONSTRUCTIONS = ("vandermonde", "cauchy")


def default_width_for(k: int, m: int) -> int:
    """Smallest supported field width that fits a ``(k, m)`` code.

    A ``(k, m)`` RS code needs ``k + m`` distinct evaluation points for
    the Vandermonde construction (and ``k + m`` disjoint coordinates for
    Cauchy), so we need ``2^w >= k + m`` with a little headroom for the
    Cauchy coordinate split.  Widths below 8 are never chosen by default
    because chunk buffers carry whole bytes (GF(2^4) is available
    explicitly for algebra-level work, not byte-buffer coding).
    """
    for w in (8, 16):
        if (1 << w) >= k + m + 1:
            return w
    raise InvalidCodeParametersError(f"no supported field fits k+m={k + m}")


class RSCode(ErasureCode):
    """A systematic MDS ``(k, m)`` Reed-Solomon code.

    Args:
        k: number of data chunks per stripe (``>= 1``).
        m: number of parity chunks per stripe (``>= 1``).
        w: field width; defaults to the smallest width that fits.
        construction: ``"vandermonde"`` or ``"cauchy"``.

    Raises:
        InvalidCodeParametersError: if the parameters cannot form an MDS
            code in the chosen field.
    """

    def __init__(
        self,
        k: int,
        m: int,
        w: int | None = None,
        construction: str = "vandermonde",
    ) -> None:
        if k < 1 or m < 1:
            raise InvalidCodeParametersError(f"k and m must be >= 1, got ({k}, {m})")
        if construction not in _CONSTRUCTIONS:
            raise InvalidCodeParametersError(
                f"unknown construction {construction!r}; choose from {_CONSTRUCTIONS}"
            )
        if w is None:
            w = default_width_for(k, m)
        field = gf(w)
        if k + m + 1 > field.order:
            raise InvalidCodeParametersError(
                f"(k={k}, m={m}) does not fit in GF(2^{w})"
            )
        self.k = k
        self.m = m
        self.w = w
        self.construction = construction
        self.field: GaloisField = field
        self.generator: GFMatrix = self._build_generator()
        # Cache decode matrices keyed by the surviving-row tuple and
        # one-row repair vectors keyed by (lost, helpers).
        self._inverse_cache = BoundedCache(maxsize=512, name="rs.decode_matrix")
        self._repair_cache = BoundedCache(maxsize=2048, name="rs.repair_vector")

    def __reduce__(self):
        # Rebuild from parameters: the generator is deterministic and the
        # caches warm back up — keeps cluster states cheap to ship to
        # process-pool experiment workers.
        return (RSCode, (self.k, self.m, self.w, self.construction))

    # -- construction -----------------------------------------------------

    def _build_generator(self) -> GFMatrix:
        if self.construction == "vandermonde":
            vand = GFMatrix.vandermonde(self.field, self.k + self.m, self.k)
            return vand.to_systematic()
        # Cauchy: xs are the parity coordinates, ys the data coordinates.
        ys = list(range(self.k))
        xs = list(range(self.k, self.k + self.m))
        cauchy = GFMatrix.cauchy(self.field, xs, ys)
        ident = GFMatrix.identity(self.field, self.k)
        stacked = np.vstack([ident.data, cauchy.data])
        return GFMatrix(self.field, stacked)

    @property
    def parity_rows(self) -> np.ndarray:
        """The ``m x k`` parity part of the generator matrix."""
        return self.generator.data[self.k :, :]

    # -- encode / decode -----------------------------------------------------

    def _check_chunks(self, chunks: Sequence[np.ndarray]) -> int:
        sizes = {c.shape for c in chunks}
        if len(sizes) > 1:
            raise CodingError(f"chunks have differing shapes: {sizes}")
        dtype = buffer_dtype(self.field)
        for c in chunks:
            if c.dtype != dtype:
                raise CodingError(
                    f"chunk dtype {c.dtype} does not match field dtype {dtype}"
                )
        return len(chunks)

    def encode(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Compute the ``m`` parity chunks from the ``k`` data chunks."""
        if len(data_chunks) != self.k:
            raise CodingError(
                f"encode expects exactly k={self.k} data chunks, got {len(data_chunks)}"
            )
        self._check_chunks(data_chunks)
        return matrix_apply(self.field, self.parity_rows, list(data_chunks))

    def encode_stripe(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Return the full stripe: the data chunks followed by parity."""
        return list(data_chunks) + self.encode(data_chunks)

    def encode_into(self, stripe: np.ndarray) -> None:
        """Parity of an ``(n, L)`` stripe's first ``k`` rows, encoded
        straight into its last ``m`` rows."""
        batch_dot(
            self.field, self.parity_rows, stripe[: self.k], out=stripe[self.k :]
        )

    def _invert_rows(self, rows: tuple[int, ...]) -> GFMatrix:
        """Inverse of the generator's submatrix for the given row indices."""
        return self._inverse_cache.get_or_build(
            rows, lambda: self.generator.take_rows(list(rows)).invert()
        )

    def decode(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Reconstruct all ``k`` data chunks from any ``k`` available chunks."""
        if len(available) < self.k:
            raise InsufficientChunksError(
                f"need at least k={self.k} chunks, got {len(available)}"
            )
        indices = sorted(available)[: self.k]
        for i in indices:
            if not 0 <= i < self.n:
                raise CodingError(f"chunk index {i} out of range for n={self.n}")
        bufs = [available[i] for i in indices]
        self._check_chunks(bufs)
        inverse = self._invert_rows(tuple(indices))
        return matrix_apply(self.field, inverse.data, bufs)

    def decode_all(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Reconstruct the *entire* stripe (data + parity chunks)."""
        data = self.decode(available)
        return self.encode_stripe(data)

    # -- single-failure repair ------------------------------------------------

    def _check_repair(self, lost_index: int, helpers: Sequence[int]) -> None:
        """Raise the error a bad ``(lost, helpers)`` row deserves."""
        if not 0 <= lost_index < self.n:
            raise CodingError(f"lost index {lost_index} out of range")
        if len(helpers) != self.k:
            raise InsufficientChunksError(
                f"repair needs exactly k={self.k} helpers, got {len(helpers)}"
            )
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
        """Every row's ``y = g_lost · X``, solving ``y · G[helpers[s]] =
        G[lost[s]]`` for all rows in one
        :func:`~repro.erasure.matrix.solve_right_stack` call.  A bad row
        raises what :meth:`repair_vector` raises for it."""
        lost = np.asarray(lost_indices, dtype=np.int64)
        helpers = np.asarray(helper_indices, dtype=np.int64)
        ordered = np.sort(helpers, axis=1)
        bad = (
            (helpers.shape[1] != self.k) | (lost < 0) | (lost >= self.n)
            | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            | ((helpers < 0) | (helpers >= self.n)).any(axis=1)
            | (helpers == lost[:, None]).any(axis=1)
        )
        if bad.any():
            s = int(bad.argmax())
            self._check_repair(int(lost[s]), helpers[s].tolist())
        g = self.generator.data
        return solve_right_stack(self.field, g[helpers], g[lost])

    def repair_vector(
        self, lost_index: int, helper_indices: Sequence[int]
    ) -> list[int]:
        """Coefficients ``y = g_lost · X`` over the chosen helpers.

        ``X`` is the inverse of the generator submatrix for the helper
        rows; the returned list is ordered to match ``helper_indices``.
        The one-row case of :meth:`repair_vectors`, cached per
        ``(lost_index, helpers)``.
        """
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
        """Rebuild one chunk from exactly ``k`` helper chunks."""
        indices = sorted(helpers)
        y = self.repair_vector(lost_index, indices)
        bufs = [helpers[i] for i in indices]
        self._check_chunks(bufs)
        return dot_rows(self.field, y, bufs)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RSCode)
            and (other.k, other.m, other.w, other.construction)
            == (self.k, self.m, self.w, self.construction)
        )

    def __hash__(self) -> int:
        return hash((self.k, self.m, self.w, self.construction))

    def __repr__(self) -> str:
        return (
            f"RSCode(k={self.k}, m={self.m}, w={self.w}, "
            f"construction={self.construction!r})"
        )
