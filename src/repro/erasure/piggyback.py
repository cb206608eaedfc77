"""Piggybacked RS codes — Rashmi et al.'s bandwidth-saving construction.

The Facebook warehouse-cluster study (Rashmi et al., arXiv:1309.0186)
measures RS repair dominating cluster network traffic and proposes new
codes built on the *piggybacking framework*: take two instances of an
``(k + m, k)`` RS code — substripes ``a`` and ``b``, each chunk split
into two halves — and embed XOR functions of substripe ``a`` into the
``b``-side parities:

- data node ``i`` stores ``(a_i, b_i)``;
- parity ``0`` stores clean ``(f_0(a), f_0(b))``;
- parity ``t >= 1`` stores ``(f_t(a), f_t(b) + g_t(a))`` where
  ``g_t(a)`` XORs the ``a``-halves of data group ``G_t`` (the ``k``
  data indices are partitioned into ``m - 1`` balanced groups).

**Data repair** of node ``i`` in group ``G_t`` downloads only
half-chunks: the ``b``-halves of the other ``k - 1`` data nodes and of
parity ``0`` decode substripe ``b``; recomputing ``f_t(b)`` and
subtracting it from parity ``t``'s stored half exposes ``g_t(a)``, and
XOR-ing out the ``a``-halves of the other group members leaves ``a_i``.
Total download ``(k + |G_t|) / 2`` chunk units versus RS's ``k`` —
the ~25-45 % saving the paper measures, with plain MDS storage
overhead (parities repair as ordinary RS at cost ``k``).

Everything operates on real numpy half-chunk buffers, so repair
correctness is byte-checked, and the parity functions ride the batched
GF kernels through :class:`~repro.erasure.rs.RSCode`.

Reached by ``repro-car regen``: EXPERIMENTS.md "Regenerating codes vs CAR".
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.erasure.rs import RSCode
from repro.errors import (
    CodingError,
    InsufficientChunksError,
    InvalidCodeParametersError,
)
from repro.gf.vector import dot_rows, xor_into

__all__ = ["PiggybackRSCode", "balanced_groups"]


def balanced_groups(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Partition data indices ``0..k-1`` into ``m - 1`` balanced groups.

    The first ``k % (m - 1)`` groups take the extra element, mirroring
    the paper's near-equal group sizes (smaller groups repair cheaper).
    """
    if m < 2:
        raise InvalidCodeParametersError(
            f"piggybacking needs m >= 2 parities, got m={m}"
        )
    num_groups = m - 1
    if k < num_groups:
        raise InvalidCodeParametersError(
            f"cannot split k={k} data chunks into {num_groups} groups"
        )
    base, extra = divmod(k, num_groups)
    groups: list[tuple[int, ...]] = []
    start = 0
    for g in range(num_groups):
        size = base + (1 if g < extra else 0)
        groups.append(tuple(range(start, start + size)))
        start += size
    return tuple(groups)


class PiggybackRSCode:
    """An ``(k + m, k)`` RS code over two substripes with XOR piggybacks.

    Args:
        k: data chunks per stripe.
        m: parity chunks (``m >= 2``: one clean parity plus at least one
            piggybacked parity).
        w: GF(2^w) width.

    Attributes:
        n: stripe width ``k + m``.
        groups: the balanced data-index partition ``G_1 .. G_{m-1}``.
    """

    #: Half-chunk labels: substripe a, substripe b (parity t >= 1 stores
    #: its piggybacked sum in the "b" slot).
    HALVES = ("a", "b")

    def __init__(self, k: int, m: int, w: int | None = None) -> None:
        self.groups = balanced_groups(k, m)
        self.rs = RSCode(k, m, w)
        self.k = k
        self.m = m
        self.n = k + m
        self.w = self.rs.w

    # -- structure ----------------------------------------------------------

    def group_of(self, data_index: int) -> int:
        """Which group ``G_t`` (0-based) a data index belongs to."""
        if not 0 <= data_index < self.k:
            raise CodingError(
                f"data index {data_index} out of range for k={self.k}"
            )
        for g, members in enumerate(self.groups):
            if data_index in members:
                return g
        raise CodingError(f"data index {data_index} is in no group")

    def piggy_parity_index(self, group: int) -> int:
        """Stripe index of the parity carrying group ``group``'s piggyback."""
        if not 0 <= group < len(self.groups):
            raise CodingError(f"group {group} out of range")
        return self.k + 1 + group

    def is_data(self, index: int) -> bool:
        """True iff ``index`` is a data chunk."""
        return 0 <= index < self.k

    # -- encode ------------------------------------------------------------

    def _parity_halves(
        self, a: Sequence[np.ndarray], b: Sequence[np.ndarray]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        pa = self.rs.encode(list(a))
        pb = self.rs.encode(list(b))
        parities: list[tuple[np.ndarray, np.ndarray]] = [(pa[0], pb[0])]
        for t in range(1, self.m):
            piggy = pb[t].copy()
            for i in self.groups[t - 1]:
                xor_into(piggy, a[i])
            parities.append((pa[t], piggy))
        return parities

    def encode(
        self, a: Sequence[np.ndarray], b: Sequence[np.ndarray]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Encode the two half-substripes into ``n`` node contents.

        Args:
            a / b: the ``k`` data half-chunks of each substripe.

        Returns:
            ``n`` pairs ``(a-half, b-half)``; entry ``i < k`` is the
            data node, entries ``k ..`` the parities (piggybacked in the
            ``b`` slot for parity index ``>= k + 1``).
        """
        if len(a) != self.k or len(b) != self.k:
            raise CodingError(
                f"encode expects k={self.k} half-chunks per substripe, "
                f"got {len(a)}/{len(b)}"
            )
        shapes = {buf.shape for buf in (*a, *b)}
        if len(shapes) > 1:
            raise CodingError(f"half-chunks have differing shapes: {shapes}")
        return [(a[i], b[i]) for i in range(self.k)] + self._parity_halves(a, b)

    # -- repair ------------------------------------------------------------

    def data_repair_sources(
        self, data_index: int
    ) -> tuple[tuple[int, str], ...]:
        """The half-chunks a data repair downloads: ``(node, half)`` pairs.

        ``k - 1`` data ``b``-halves + parity 0's ``b``-half decode
        substripe ``b``; the group parity's ``b``-half and the group
        peers' ``a``-halves then release ``a_i``.
        """
        group = self.group_of(data_index)
        sources: list[tuple[int, str]] = [
            (i, "b") for i in range(self.k) if i != data_index
        ]
        sources.append((self.k, "b"))
        sources.append((self.piggy_parity_index(group), "b"))
        sources.extend(
            (i, "a") for i in self.groups[group] if i != data_index
        )
        return tuple(sources)

    def data_repair_cost(self, data_index: int) -> float:
        """Download per data-node repair, in full-chunk units:
        ``(k + |G_t|) / 2``."""
        group = self.group_of(data_index)
        return (self.k + len(self.groups[group])) / 2.0

    def average_data_repair_cost(self) -> float:
        """Mean repair download over all data nodes, in chunk units."""
        return sum(
            self.data_repair_cost(i) for i in range(self.k)
        ) / self.k

    def repair_data(
        self,
        data_index: int,
        halves: Mapping[tuple[int, str], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rebuild data node ``data_index`` from the downloaded halves.

        Args:
            halves: ``(node, half) -> buffer`` covering (at least) every
                pair from :meth:`data_repair_sources`.

        Returns:
            ``(a_i, b_i)``, byte-identical to the encoded content.
        """
        needed = self.data_repair_sources(data_index)
        missing = [src for src in needed if src not in halves]
        if missing:
            raise InsufficientChunksError(
                f"data repair of {data_index} is missing halves {missing}"
            )
        group = self.group_of(data_index)
        b_available = {
            i: halves[(i, "b")] for i in range(self.k) if i != data_index
        }
        b_available[self.k] = halves[(self.k, "b")]
        b_data = self.rs.decode(b_available)
        b_i = b_data[data_index]
        # f_t(b) is recomputed locally (CPU only, no download).
        t = group + 1
        f_t_b = dot_rows(
            self.rs.field,
            [int(v) for v in self.rs.parity_rows[t]],
            b_data,
        )
        piggy = halves[(self.piggy_parity_index(group), "b")].copy()
        xor_into(piggy, f_t_b)
        for i in self.groups[group]:
            if i != data_index:
                xor_into(piggy, halves[(i, "a")])
        return piggy, b_i

    def parity_repair_sources(self) -> tuple[tuple[int, str], ...]:
        """A parity repair falls back to full RS: both halves of every
        data node (``k`` chunk units — no piggyback saving)."""
        return tuple(
            (i, half) for i in range(self.k) for half in self.HALVES
        )

    def repair_parity(
        self,
        parity_index: int,
        halves: Mapping[tuple[int, str], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rebuild a parity node from the full data halves.

        Args:
            parity_index: stripe index in ``k .. n-1``.
            halves: must cover :meth:`parity_repair_sources`.
        """
        if not self.k <= parity_index < self.n:
            raise CodingError(
                f"parity index {parity_index} out of range for n={self.n}"
            )
        missing = [
            src for src in self.parity_repair_sources() if src not in halves
        ]
        if missing:
            raise InsufficientChunksError(
                f"parity repair of {parity_index} is missing halves {missing}"
            )
        a = [halves[(i, "a")] for i in range(self.k)]
        b = [halves[(i, "b")] for i in range(self.k)]
        return self._parity_halves(a, b)[parity_index - self.k]

    def __reduce__(self):
        return (self.__class__, (self.k, self.m, self.w))

    def __repr__(self) -> str:
        return (
            f"PiggybackRSCode(k={self.k}, m={self.m}, w={self.w}, "
            f"groups={[len(g) for g in self.groups]})"
        )
