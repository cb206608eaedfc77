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
Recoverable" regime Azure targets for its (12, 2, 2) code).  Encode,
decode and repair are :class:`~repro.erasure.code.LinearCode`'s: a
repair may take any helper set whose rows span the lost row.

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

from collections.abc import Sequence

import numpy as np

from repro.errors import CodingError, InvalidCodeParametersError
from repro.erasure.code import LinearCode
from repro.erasure.matrix import GFMatrix
from repro.gf.field import GaloisField, gf

__all__ = ["LRCCode"]


class LRCCode(LinearCode):
    """A systematic ``LRC(k, l, g)`` code over GF(2^w).

    Args:
        k: data chunks per stripe (must be divisible by ``l``).
        l: number of local groups / local parity chunks.
        g: number of global parity chunks.
        w: field width (default: smallest that fits ``k + l + g``).

    Attributes:
        m: total parity count ``l + g`` (the :class:`LinearCode` view).
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
        self.l = l
        self.g = g
        self.group_size = k // l
        super().__init__(self._build_generator(field, k), k, "lrc")

    def __reduce__(self):
        # Rebuild from parameters, as RSCode does: a clone starts with
        # empty caches and its own decode table.
        return (LRCCode, (self.k, self.l, self.g, self.w))

    # -- construction ----------------------------------------------------

    def _build_generator(self, f: GaloisField, k: int) -> GFMatrix:
        rows = np.zeros((k + self.l + self.g, k), dtype=f.tables.dtype)
        rows[:k, :k] = np.eye(k, dtype=f.tables.dtype)
        # Local parity rows: XOR of the group's data chunks.
        for group in range(self.l):
            row = k + group
            for j in self.group_members(group):
                rows[row, j] = 1
        # Global parity rows: Vandermonde over distinct nonzero points,
        # offset past 0/1 so they are independent of the local rows for
        # the recoverable patterns.
        for i in range(self.g):
            alpha = 2 + i
            acc = 1
            for j in range(k):
                rows[k + self.l + i, j] = acc
                acc = f.mul(acc, alpha)
        return GFMatrix(f, rows)

    # -- structure queries ---------------------------------------------------

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

    def is_recoverable(self, available: Sequence[int]) -> bool:
        """True iff the available chunks span the data space."""
        indices = sorted(set(available))
        self._check_indices(indices)
        return self.generator.take_rows(indices).rank() == self.k

    def __repr__(self) -> str:
        return f"LRCCode(k={self.k}, l={self.l}, g={self.g}, w={self.w})"
