"""Local Reconstruction Codes (LRC) — Huang et al., USENIX ATC 2012.

The paper's related work (Section II-B) cites LRC as the other main
answer to expensive single-failure repair: trade a little extra storage
for *locality*.  An ``LRC(k, l, g)`` code stores

- ``k`` data chunks, split into ``l`` equal local groups,
- ``l`` local parity chunks (one XOR parity per group), and
- ``g`` global parity chunks (Reed-Solomon-style rows),

so a lost data chunk is rebuilt from its ``k/l`` group mates plus the
group's local parity instead of ``k`` chunks.  The code is linear but
*not* MDS: decode succeeds for any erasure pattern whose surviving
generator rows span the data space (which covers all patterns of up to
``g + 1`` erasures with the construction below, the "Maximally
Recoverable" regime Azure targets for its (12, 2, 2) code).

Chunk index layout: ``0..k-1`` data, ``k..k+l-1`` local parities (group
order), ``k+l..k+l+g-1`` global parities.

The CFS angle (and why this lives in a CAR reproduction): aligning each
local group with one rack makes a data-chunk repair *zero* cross-rack
traffic — the storage-vs-bandwidth trade-off the ablation bench
contrasts with CAR-over-RS.

Reached by ``benchmarks/test_bench_lrc.py`` and
``examples/repair_landscape.py``: the LRC row of EXPERIMENTS.md "Repair
landscape" (DESIGN.md section 5, "LRC vs CAR").
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.cache import BoundedCache
from repro.errors import (
    CodingError,
    InsufficientChunksError,
    InvalidCodeParametersError,
    SingularMatrixError,
)
from repro.erasure.code import ErasureCode
from repro.erasure.matrix import GFMatrix
from repro.gf.field import GaloisField, gf
from repro.gf.vector import batch_dot, buffer_dtype, dot_rows, matrix_apply

__all__ = ["LRCCode"]


class LRCCode(ErasureCode):
    """A systematic ``LRC(k, l, g)`` code over GF(2^w).

    Args:
        k: data chunks per stripe (must be divisible by ``l``).
        l: number of local groups / local parity chunks.
        g: number of global parity chunks.
        w: field width (default: smallest that fits ``k + l + g``).

    Attributes:
        m: total parity count ``l + g`` (the :class:`ErasureCode` view).
    """

    def __init__(self, k: int, l: int, g: int, w: int | None = None) -> None:
        if k < 1 or l < 1 or g < 0:
            raise InvalidCodeParametersError(
                f"invalid LRC parameters (k={k}, l={l}, g={g})"
            )
        if k % l != 0:
            raise InvalidCodeParametersError(
                f"k={k} must be divisible by the group count l={l}"
            )
        if w is None:
            w = 8 if (1 << 8) >= k + l + g + 1 else 16
        field = gf(w)
        if k + l + g + 1 > field.order:
            raise InvalidCodeParametersError(
                f"LRC(k={k}, l={l}, g={g}) does not fit GF(2^{w})"
            )
        self.k = k
        self.l = l
        self.g = g
        self.m = l + g
        self.w = w
        self.field: GaloisField = field
        self.group_size = k // l
        self.generator: GFMatrix = self._build_generator()
        self._repair_cache = BoundedCache(maxsize=1024, name="lrc.repair_vector")

    def __reduce__(self):
        # Rebuild from parameters (generator is deterministic; the repair
        # cache warms back up) so the code pickles for process pools.
        return (LRCCode, (self.k, self.l, self.g, self.w))

    # -- construction ----------------------------------------------------

    def _build_generator(self) -> GFMatrix:
        f = self.field
        rows = np.zeros((self.n, self.k), dtype=f.tables.dtype)
        rows[: self.k, : self.k] = np.eye(self.k, dtype=f.tables.dtype)
        # Local parity rows: XOR of the group's data chunks.
        for group in range(self.l):
            row = self.k + group
            for j in self.group_members(group):
                rows[row, j] = 1
        # Global parity rows: Vandermonde over distinct nonzero points,
        # offset past 0/1 so they are independent of the local rows for
        # the recoverable patterns.
        for i in range(self.g):
            alpha = 2 + i
            acc = 1
            for j in range(self.k):
                rows[self.k + self.l + i, j] = acc
                acc = f.mul(acc, alpha)
        return GFMatrix(f, rows)

    # -- structure queries ---------------------------------------------------

    @property
    def n(self) -> int:
        """Total chunks per stripe: ``k + l + g``."""
        return self.k + self.l + self.g

    def group_of(self, index: int) -> int | None:
        """Local group of a chunk; None for global parities."""
        if 0 <= index < self.k:
            return index // self.group_size
        if self.k <= index < self.k + self.l:
            return index - self.k
        if index < self.n:
            return None
        raise CodingError(f"chunk index {index} out of range for n={self.n}")

    def group_members(self, group: int) -> tuple[int, ...]:
        """Data chunk indices of one local group."""
        if not 0 <= group < self.l:
            raise CodingError(f"group {group} out of range (l={self.l})")
        start = group * self.group_size
        return tuple(range(start, start + self.group_size))

    def local_parity_index(self, group: int) -> int:
        """Chunk index of a group's local parity."""
        if not 0 <= group < self.l:
            raise CodingError(f"group {group} out of range (l={self.l})")
        return self.k + group

    def is_global_parity(self, index: int) -> bool:
        """True iff ``index`` is one of the ``g`` global parities."""
        return self.k + self.l <= index < self.n

    def minimal_repair_helpers(self, lost_index: int) -> tuple[int, ...]:
        """The locality-optimal helper set for a single lost chunk.

        Data chunk or local parity -> the rest of its local group
        (``k/l`` chunks).  Global parity -> all ``k`` data chunks.
        """
        group = self.group_of(lost_index)
        if group is None:
            return tuple(range(self.k))
        members = set(self.group_members(group)) | {
            self.local_parity_index(group)
        }
        members.discard(lost_index)
        return tuple(sorted(members))

    def storage_overhead(self) -> float:
        """Raw-to-useful storage ratio ``n / k`` (non-MDS premium)."""
        return self.n / self.k

    # -- encode / decode -------------------------------------------------------

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

    def encode(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Compute the ``l + g`` parity chunks."""
        if len(data_chunks) != self.k:
            raise CodingError(
                f"encode expects k={self.k} data chunks, got {len(data_chunks)}"
            )
        self._check_chunks(data_chunks)
        return matrix_apply(
            self.field, self.generator.data[self.k :, :], list(data_chunks)
        )

    def encode_stripe(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The full stripe: data chunks followed by local then global parity."""
        return list(data_chunks) + self.encode(data_chunks)

    def encode_into(self, stripe: np.ndarray) -> None:
        """Parity of an ``(n, L)`` stripe's first ``k`` rows, encoded
        straight into its last ``l + g`` rows."""
        batch_dot(
            self.field, self.generator.data[self.k :, :], stripe[: self.k],
            out=stripe[self.k :],
        )

    def is_recoverable(self, available: Sequence[int]) -> bool:
        """True iff the available chunks span the data space."""
        rows = self.generator.take_rows(sorted(set(available)))
        return rows.rank() == self.k

    def decode(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Reconstruct all data chunks from any spanning available set.

        Raises:
            InsufficientChunksError: if the surviving rows do not span
                the data space (the pattern is unrecoverable).
        """
        indices = sorted(available)
        for i in indices:
            if not 0 <= i < self.n:
                raise CodingError(f"chunk index {i} out of range for n={self.n}")
        sub = self.generator.take_rows(indices)
        basis = sub.independent_rows()
        if len(basis) < self.k:
            raise InsufficientChunksError(
                f"available chunks {indices} do not span the data space "
                f"(rank {len(basis)} < k={self.k})"
            )
        chosen = [indices[b] for b in basis[: self.k]]
        square = self.generator.take_rows(chosen)
        inverse = square.invert()
        bufs = [available[i] for i in chosen]
        self._check_chunks(bufs)
        return matrix_apply(self.field, inverse.data, bufs)

    # -- repair ----------------------------------------------------------------

    def _repair_vector_cached(
        self, lost_index: int, helpers: tuple[int, ...]
    ) -> tuple[int, ...]:
        sub = self.generator.take_rows(list(helpers))
        target = [int(v) for v in self.generator.row(lost_index)]
        try:
            return tuple(sub.solve_right(target))
        except SingularMatrixError as exc:
            raise InsufficientChunksError(
                f"chunk {lost_index} cannot be repaired from helpers {helpers}"
            ) from exc

    def repair_vector(
        self, lost_index: int, helper_indices: Sequence[int]
    ) -> list[int]:
        """Coefficients over an arbitrary-size helper set.

        Unlike MDS RS codes, the helper set may be *smaller* than ``k``
        (local repair) — it only needs to span the lost row.
        """
        if not 0 <= lost_index < self.n:
            raise CodingError(f"lost index {lost_index} out of range")
        helpers = tuple(helper_indices)
        if lost_index in helpers:
            raise CodingError("helper set must not contain the lost chunk")
        if len(set(helpers)) != len(helpers):
            raise CodingError("helper indices must be distinct")
        return list(
            self._repair_cache.get_or_build(
                (lost_index, helpers),
                lambda: self._repair_vector_cached(lost_index, helpers),
            )
        )

    def reconstruct(
        self, lost_index: int, helpers: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Rebuild one chunk from any spanning helper set."""
        indices = sorted(helpers)
        y = self.repair_vector(lost_index, indices)
        bufs = [helpers[i] for i in indices]
        self._check_chunks(bufs)
        return dot_rows(self.field, y, bufs)

    def __repr__(self) -> str:
        return f"LRCCode(k={self.k}, l={self.l}, g={self.g}, w={self.w})"
