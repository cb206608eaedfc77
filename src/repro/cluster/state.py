"""Mutable cluster state: placed stripes, chunk data, and failures.

:class:`ClusterState` ties together a topology, an erasure code, and a
:class:`~repro.cluster.placement.Placement`, tracks which nodes are
failed, and answers the layout queries the CAR selector needs (the
``c_{i,j}`` and ``c'_{f,j}`` counters of Section IV-B).

:class:`DataStore` optionally materialises real chunk bytes so recovery
plans can be *executed* and verified byte-for-byte, not just counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import (
    NoFailureError,
    PlacementError,
    UnknownChunkError,
    UnknownNodeError,
)
from repro.cluster.placement import ChunkKey, Placement
from repro.cluster.topology import ClusterTopology
from repro.erasure.code import ErasureCode
from repro.gf.field import gf
from repro.gf.vector import buffer_dtype

__all__ = [
    "DataStore",
    "FailureEvent",
    "StripeView",
    "FailureColumns",
    "ClusterState",
]


class DataStore:
    """Holds the actual bytes of every chunk of every stripe.

    The bytes are one ``(stripes, n, elements)`` array: chunk ``c`` of
    stripe ``s`` is ``array[s, c]``, and row ``s * n + c`` of
    :meth:`rows`.  Data chunks are filled from a seeded RNG
    (deterministic per stripe), parity chunks are encoded with the
    stripe's code straight into the array — so any reconstruction can be
    checked against ground truth.

    Readers get read-only views (:meth:`chunk`, :meth:`rows`); only
    :meth:`overwrite`, :meth:`corrupt` and :meth:`add_stripe` write.
    """

    def __init__(
        self, code: ErasureCode, num_stripes: int, chunk_size: int, seed: int = 0
    ) -> None:
        self.code = code
        self.chunk_size = chunk_size
        dtype = buffer_dtype(gf(code.w))
        elements = chunk_size // dtype.itemsize
        self._hold(np.empty((num_stripes, code.n, elements), dtype), num_stripes)
        rng = np.random.default_rng(seed)
        # A full-range uint8/uint16 draw splits each 32-bit draw into
        # its low bytes first, so drawing the words and reading them
        # little-endian gives the same bytes, faster.
        words = -(-elements * dtype.itemsize // 4)
        little = dtype.newbyteorder("<")
        for stripe in self._array:
            for chunk in stripe[: code.k]:
                drawn = rng.integers(0, 2**32, words, dtype=np.uint32)
                chunk[:] = drawn.astype("<u4", copy=False).view(little)[:elements]
            code.encode_into(stripe)

    @classmethod
    def empty(cls, code: ErasureCode, chunk_size: int) -> "DataStore":
        """A store with no stripes yet (filled via :meth:`add_stripe`)."""
        return cls(code, num_stripes=0, chunk_size=chunk_size)

    @classmethod
    def over(cls, code: ErasureCode, array: np.ndarray) -> "DataStore":
        """A store over an existing ``(stripes, n, elements)`` array.

        The array is not copied, and a read-only array makes a read-only
        store (how a pickled store is rebuilt, see ``__reduce__``).
        """
        store = cls.empty(code, array.shape[2] * array.itemsize)
        store._hold(array, len(array))
        return store

    def _hold(self, array: np.ndarray, num_stripes: int) -> None:
        self._array = array
        self._view = array.view()
        self._view.setflags(write=False)
        self.num_stripes = num_stripes

    def __reduce__(self):
        # The array once, not the array and its read-only view apart.
        return DataStore.over, (self.code, self._array[: self.num_stripes])

    def add_stripe(self, stripe_id: int, chunks: list[np.ndarray]) -> None:
        """Register the full chunk set of a new stripe (copied in).

        The array grows by doubling, so ``S`` stripes cost ``O(S)``
        copying in all.

        Raises:
            UnknownChunkError: if the stripe id is not the next dense id
                or the chunk set is malformed.
        """
        if stripe_id != self.num_stripes:
            raise UnknownChunkError(
                f"stripe ids must be dense; expected {self.num_stripes}, "
                f"got {stripe_id}"
            )
        _, n, elements = self._array.shape
        if len(chunks) != n:
            raise UnknownChunkError(f"stripe needs {n} chunks, got {len(chunks)}")
        for buf in chunks:
            if buf.shape != (elements,) or buf.dtype != self._array.dtype:
                raise UnknownChunkError(
                    f"chunk is {buf.nbytes} bytes of {buf.dtype}, store uses "
                    f"{self.chunk_size} of {self._array.dtype}"
                )
        if self.num_stripes == len(self._array):
            grown = np.empty(
                (max(1, 2 * self.num_stripes), n, elements), self._array.dtype
            )
            grown[: self.num_stripes] = self._array
            self._hold(grown, self.num_stripes)
        for row, buf in zip(self._array[stripe_id], chunks):
            row[:] = buf
        self.num_stripes += 1

    def chunk(self, stripe_id: int, chunk_index: int) -> np.ndarray:
        """The stored buffer for one chunk: a read-only view, never a copy.

        Raises:
            UnknownChunkError: if the chunk does not exist.
        """
        if not (
            0 <= stripe_id < self.num_stripes
            and 0 <= chunk_index < self._array.shape[1]
        ):
            raise UnknownChunkError((stripe_id, chunk_index))
        return self._view[stripe_id, chunk_index]

    def rows(self) -> np.ndarray:
        """Every chunk as one read-only ``(stripes * n, elements)`` matrix.

        Row ``s * n + c`` is chunk ``c`` of stripe ``s`` (:meth:`row_ids`).
        """
        return self._view[: self.num_stripes].reshape(-1, self._view.shape[2])

    def row_ids(self, stripe_ids, chunk_indices) -> np.ndarray:
        """The :meth:`rows` index of every (stripe, chunk) pair.

        Raises:
            UnknownChunkError: naming the first pair that does not exist.
        """
        stripes = np.asarray(stripe_ids, dtype=np.intp)
        chunks = np.asarray(chunk_indices, dtype=np.intp)
        n = self._array.shape[1]
        bad = (stripes < 0) | (stripes >= self.num_stripes)
        bad |= (chunks < 0) | (chunks >= n)
        if bad.any():
            first = int(bad.argmax())
            raise UnknownChunkError((int(stripes[first]), int(chunks[first])))
        return stripes * n + chunks

    def matches(self, stripe_id: int, chunk_index: int, buf: np.ndarray) -> bool:
        """True iff ``buf`` equals the ground-truth chunk byte-for-byte."""
        return bool(np.array_equal(self.chunk(stripe_id, chunk_index), buf))

    def overwrite(self, stripe_id: int, chunk_index: int, buf: np.ndarray) -> None:
        """Replace one stored chunk's bytes (used by scrubbing repair).

        Raises:
            UnknownChunkError: if the chunk does not exist.
        """
        current = self.chunk(stripe_id, chunk_index)
        if buf.shape != current.shape or buf.dtype != current.dtype:
            raise UnknownChunkError(
                f"replacement buffer mismatch for stripe {stripe_id} "
                f"chunk {chunk_index}"
            )
        self._array[stripe_id, chunk_index] = buf

    def corrupt(
        self, stripe_id: int, chunk_index: int, seed: int = 0
    ) -> np.ndarray:
        """Flip one element of one chunk in place (silent-corruption
        injection): a view taken before the call sees the flip.

        Returns a copy of the pristine original, so tests can compare.
        """
        original = self.chunk(stripe_id, chunk_index).copy()
        rng = np.random.default_rng(seed)
        pos = int(rng.integers(0, original.size))
        # XOR with a nonzero mask guarantees the value changes.
        mask = original.dtype.type(int(rng.integers(1, 255)))
        self._array[stripe_id, chunk_index, pos] ^= mask
        return original


@dataclass(frozen=True)
class FailureEvent:
    """A single node failure and the chunks it destroyed.

    Attributes:
        failed_node: id of the failed node.
        failed_rack: the paper's ``A_f``.
        lost_chunks: the (stripe, chunk) keys stored on the node, in
            stripe order; each stripe appears at most once (single
            failure implies one lost chunk per stripe).
        replacement_node: where reconstructed chunks are written; the
            paper's methodology reuses the failed node's slot.
    """

    failed_node: int
    failed_rack: int
    lost_chunks: tuple[ChunkKey, ...]
    replacement_node: int

    @property
    def stripes(self) -> tuple[int, ...]:
        """Affected stripe ids (the paper's ``s`` stripes)."""
        return tuple(s for s, _ in self.lost_chunks)

    @property
    def num_stripes(self) -> int:
        """Number of stripes needing repair."""
        return len(self.lost_chunks)


@dataclass(frozen=True)
class StripeView:
    """One affected stripe as an object, a row of :class:`FailureColumns`.

    Kept for ``benchmarks/e2e/probes.py`` until the benchmark re-cut;
    every solve in the package reads :meth:`ClusterState.failure_columns`.

    Attributes:
        stripe_id: which stripe.
        lost_chunk: index of the lost chunk within the stripe.
        surviving: chunk_index -> node_id for every surviving chunk.
        rack_counts: surviving-chunk count per rack — ``c'_{f,j}`` at the
            failed rack and ``c_{i,j}`` elsewhere (Equation 1).
        failed_rack: the paper's ``A_f``.
    """

    stripe_id: int
    lost_chunk: int
    surviving: dict[int, int]
    rack_counts: tuple[int, ...]
    failed_rack: int


@dataclass(frozen=True, eq=False)
class FailureColumns:
    """The stripes a failure touched, as integer columns.

    Row ``i`` is one affected stripe, in stripe order; a chunk column is
    one of the stripe's ``k + m`` chunks and a rack column one of the
    ``r`` racks.  This is what Theorem 1 and Algorithm 2 count over
    (:mod:`repro.recovery.selector`, :mod:`repro.recovery.balancer`).

    Attributes:
        stripe_id / lost_chunk: ``(S,)``.
        chunk_rack: ``(S, n)`` the rack of every chunk (-1 where unknown
            and not alive).
        alive: ``(S, n)`` the chunk can be read: it is not the lost one
            and is on no dead node.
        counts: ``(S, r)`` alive chunks per rack — ``c'_{f,j}`` at the
            failed rack and ``c_{i,j}`` elsewhere (Equation 1).
        failed_rack: the paper's ``A_f``.
    """

    stripe_id: np.ndarray
    lost_chunk: np.ndarray
    chunk_rack: np.ndarray
    alive: np.ndarray
    counts: np.ndarray
    failed_rack: int

    def __len__(self) -> int:
        return len(self.stripe_id)

    @property
    def num_racks(self) -> int:
        """The paper's ``r``."""
        return self.counts.shape[1]

    def rows(self, index) -> "FailureColumns":
        """The columns of the rows ``index`` (a slice, mask or indices)."""
        return FailureColumns(
            stripe_id=self.stripe_id[index],
            lost_chunk=self.lost_chunk[index],
            chunk_rack=self.chunk_rack[index],
            alive=self.alive[index],
            counts=self.counts[index],
            failed_rack=self.failed_rack,
        )

    @classmethod
    def from_views(
        cls, views, topology: ClusterTopology | None = None
    ) -> "FailureColumns":
        """The columns of explicit :class:`StripeView` s, in their order.

        The counts are the views' own ``rack_counts``; the racks of their
        surviving chunks come from ``topology`` (left -1 without one,
        which is enough for Theorem 1's counting).  Kept for
        ``benchmarks/e2e/probes.py`` (through
        :meth:`~repro.recovery.selector.CarSelector.initial_solution` and
        :meth:`~repro.recovery.balancer.GreedyLoadBalancer.balance`) until
        the benchmark re-cut.

        Raises:
            PlacementError: if the views disagree on the failed rack or
                on the number of racks.
        """
        views = list(views)
        failed = {v.failed_rack for v in views}
        widths = {len(v.rack_counts) for v in views}
        if len(failed) > 1 or len(widths) > 1:
            raise PlacementError(
                f"views disagree on the failed rack or the rack count: "
                f"{failed}, {widths}"
            )
        width = 1 + max(
            (max([v.lost_chunk, *v.surviving]) for v in views), default=-1
        )
        chunk_rack = np.full((len(views), width), -1, dtype=np.intp)
        alive = np.zeros((len(views), width), dtype=bool)
        for i, v in enumerate(views):
            chunks = list(v.surviving)
            if topology is not None:
                chunk_rack[i, chunks] = [
                    topology.rack_of(v.surviving[c]) for c in chunks
                ]
            alive[i, chunks] = True
        return cls(
            stripe_id=np.array([v.stripe_id for v in views], dtype=np.intp),
            lost_chunk=np.array([v.lost_chunk for v in views], dtype=np.intp),
            chunk_rack=chunk_rack,
            alive=alive,
            counts=np.array(
                [v.rack_counts for v in views], dtype=np.intp
            ).reshape(len(views), widths.pop() if widths else 0),
            failed_rack=failed.pop() if failed else 0,
        )


class ClusterState:
    """A CFS with placed stripes, optional data, and at most one failure.

    The paper's recovery problem is *single* failure: each stripe loses
    at most one chunk.  ``fail_node`` enforces that by allowing one
    failed node at a time; :meth:`heal` clears it.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        code: ErasureCode,
        placement: Placement,
        data: DataStore | None = None,
    ) -> None:
        if placement.topology is not topology:
            raise PlacementError("placement was built for a different topology")
        if (placement.k, placement.m) != (code.k, code.m):
            raise PlacementError(
                f"placement is for (k={placement.k}, m={placement.m}) but the "
                f"code is (k={code.k}, m={code.m})"
            )
        if data is not None and data.num_stripes < placement.num_stripes:
            raise PlacementError(
                "data store has fewer stripes than the placement"
            )
        self.topology = topology
        self.code = code
        self.placement = placement
        self.data = data
        self.failed_node: int | None = None

    # -- failure handling ----------------------------------------------------

    def fail_node(self, node_id: int) -> FailureEvent:
        """Mark ``node_id`` failed and return the resulting event.

        Raises:
            UnknownNodeError: if the node does not exist.
            NoFailureError: if another node is already failed (the model
                is single-failure; heal first).
        """
        self.topology.node(node_id)  # validates
        if self.failed_node is not None and self.failed_node != node_id:
            raise NoFailureError(
                f"node {self.failed_node} is already failed; heal() first"
            )
        self.failed_node = node_id
        lost = self.placement.chunks_on_node(node_id)
        return FailureEvent(
            failed_node=node_id,
            failed_rack=self.topology.rack_of(node_id),
            lost_chunks=tuple(sorted(lost)),
            replacement_node=node_id,
        )

    def heal(self) -> None:
        """Clear the failure (the node is repaired/replaced in place)."""
        self.failed_node = None

    # -- layout queries --------------------------------------------------------

    def stripe_view(self, stripe_id: int) -> StripeView:
        """One affected stripe as a :class:`StripeView`.

        Kept for ``benchmarks/e2e/probes.py`` until the benchmark re-cut;
        a solve reads :meth:`failure_columns`.

        Raises:
            NoFailureError: if no node is failed.
            UnknownChunkError: if the stripe lost no chunk (it does not
                need recovery).
        """
        if self.failed_node is None:
            raise NoFailureError("no failed node")
        layout = self.placement.stripe_layout(stripe_id)
        lost = [c for c, nid in layout.items() if nid == self.failed_node]
        if not lost:
            raise UnknownChunkError(
                f"stripe {stripe_id} has no chunk on node {self.failed_node}"
            )
        lost_chunk = lost[0]
        surviving = {c: nid for c, nid in layout.items() if c != lost_chunk}
        counts = [0] * self.topology.num_racks
        for nid in surviving.values():
            counts[self.topology.rack_of(nid)] += 1
        return StripeView(
            stripe_id=stripe_id,
            lost_chunk=lost_chunk,
            surviving=surviving,
            rack_counts=tuple(counts),
            failed_rack=self.topology.rack_of(self.failed_node),
        )

    def failure_columns(
        self, dead_nodes=(), stripes=None
    ) -> FailureColumns:
        """The failure's :class:`FailureColumns`, from the node table.

        Args:
            dead_nodes: helper nodes lost since the failure; their chunks
                are not alive (a re-plan's view of the cluster).
            stripes: restrict to these affected stripes (default: every
                stripe that lost a chunk).  A one-row failure is one
                degraded read's solve; only its rows of the node table
                are read.

        Raises:
            NoFailureError: if no node is failed.
            UnknownChunkError: if a requested stripe is not placed, is
                requested twice, or lost no chunk.
        """
        if self.failed_node is None:
            raise NoFailureError("no failed node")
        table = self.placement.node_table()
        if stripes is None:
            stripe_id = np.flatnonzero((table == self.failed_node).any(axis=1))
        else:
            stripe_id = np.array(sorted(stripes), dtype=np.intp)
            bad = (stripe_id < 0) | (stripe_id >= len(table))
            if bad.any():
                raise UnknownChunkError(
                    f"no placement for stripe {int(stripe_id[bad.argmax()])}"
                )
            twice = stripe_id[1:] == stripe_id[:-1]
            if twice.any():
                raise UnknownChunkError(
                    f"stripe {int(stripe_id[1:][twice.argmax()])} "
                    f"requested twice"
                )
        nodes = table[stripe_id]
        hit = nodes == self.failed_node
        missed = ~hit.any(axis=1)
        if missed.any():
            raise UnknownChunkError(
                f"stripe {int(stripe_id[missed.argmax()])} has no chunk on "
                f"node {self.failed_node}"
            )
        lost_chunk = hit.argmax(axis=1)
        rows = np.arange(len(stripe_id))
        alive = np.ones(nodes.shape, dtype=bool)
        alive[rows, lost_chunk] = False
        if dead_nodes:
            alive &= ~np.isin(nodes, list(dead_nodes))
        chunk_rack = self.topology.rack_array()[nodes]
        num_racks = self.topology.num_racks
        counts = np.bincount(
            (rows[:, None] * num_racks + chunk_rack)[alive],
            minlength=len(rows) * num_racks,
        ).reshape(len(rows), num_racks)
        return FailureColumns(
            stripe_id=stripe_id,
            lost_chunk=lost_chunk,
            chunk_rack=chunk_rack,
            alive=alive,
            counts=counts,
            failed_rack=self.topology.rack_of(self.failed_node),
        )

    def affected_stripes(self) -> tuple[int, ...]:
        """Stripes that lost a chunk to the current failure."""
        if self.failed_node is None:
            raise NoFailureError("no failed node")
        return tuple(
            sorted({s for s, _ in self.placement.chunks_on_node(self.failed_node)})
        )

    def views(self) -> list[StripeView]:
        """StripeView for every affected stripe, in stripe order (kept for
        ``benchmarks/e2e/probes.py`` until the benchmark re-cut)."""
        return [self.stripe_view(s) for s in self.affected_stripes()]
