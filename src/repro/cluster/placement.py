"""Chunk placement policies with rack-level fault tolerance.

The paper requires (Section IV-B) that placement keep at most ``m``
chunks of any stripe inside one rack (``c_{i,j} <= m``) so that a whole
rack can fail and the stripe still has ``k`` survivors elsewhere — and,
trivially, at most one chunk of a stripe per node.

:class:`Placement` is the immutable result: a ``(stripes, k + m)`` node
table whose row ``j`` maps stripe ``j``'s chunk indices to nodes, from
which every query — including the per-rack chunk counters ``c_{i,j}``
the CAR selector consumes — is answered.  Policies:

- :class:`RandomPlacementPolicy` — the paper's methodology ("randomly
  distribute the data and parity chunks ... while ensuring single-rack
  fault tolerance").
- :class:`RackAlignedPlacementPolicy` — the same chunk -> rack map for
  every stripe, the layout rack-aware regenerating codes assume.
- :class:`GroupAlignedPlacementPolicy` — each LRC repair group inside
  one rack, so a local repair crosses no rack.

A fixed or deliberately non-fault-tolerant layout needs no policy:
write its table and hand it to :class:`Placement`.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, PlacementError, UnknownChunkError
from repro.cluster.topology import ClusterTopology

__all__ = [
    "ChunkKey",
    "Placement",
    "PlacementPolicy",
    "RandomPlacementPolicy",
    "GroupAlignedPlacementPolicy",
    "RackAlignedPlacementPolicy",
]

#: Identifies one chunk: (stripe_id, chunk_index within the stripe).
ChunkKey = tuple[int, int]


class Placement:
    """An immutable assignment of stripe chunks to nodes.

    Args:
        topology: the cluster the chunks live in.
        k: data chunks per stripe.
        m: parity chunks per stripe.
        table: integer array-like of shape ``(stripes, k + m)``; entry
            ``[j, c]`` is the node holding chunk ``c`` of stripe ``j``.
            It is copied.

    Attributes:
        topology / k / m: as given.
        num_stripes: how many stripes were placed.

    Raises:
        PlacementError: if the table is not integer, is not ``k + m``
            wide, names a node outside the topology, or puts two chunks
            of one stripe on one node.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        k: int,
        m: int,
        table: np.ndarray | Sequence[Sequence[int]],
    ) -> None:
        self.topology = topology
        self.k = k
        self.m = m
        table = np.asarray(table)
        if table.dtype.kind not in "iu":
            raise PlacementError(
                f"a node table holds integers, not {table.dtype}"
            )
        if table.ndim != 2 or table.shape[1] != k + m:
            raise PlacementError(
                f"a node table is (stripes, {k + m}), not {table.shape}"
            )
        outside = (table < 0) | (table >= topology.num_nodes)
        if outside.any():
            stripe, chunk = np.argwhere(outside)[0]
            raise PlacementError(
                f"stripe {stripe} chunk {chunk} is on node "
                f"{table[stripe, chunk]}, outside 0..{topology.num_nodes - 1}"
            )
        ordered = np.sort(table, axis=1)
        shared = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if shared.any():
            raise PlacementError(
                f"stripe {shared.argmax()} places multiple chunks on one node"
            )
        self._table = table.astype(np.int32)
        self._table.setflags(write=False)
        self.num_stripes = len(self._table)

    # -- queries ----------------------------------------------------------

    def node_of(self, stripe_id: int, chunk_index: int) -> int:
        """Node storing the given chunk."""
        if not (
            0 <= stripe_id < self.num_stripes
            and 0 <= chunk_index < self.k + self.m
        ):
            raise PlacementError(
                f"no placement for stripe {stripe_id} chunk {chunk_index}"
            )
        return int(self._table[stripe_id, chunk_index])

    def node_table(self) -> np.ndarray:
        """``(stripes, k + m)`` read-only array: the node of every chunk,
        so a planner looks up a whole window of holders in one indexing
        operation."""
        return self._table

    def rack_of_chunk(self, stripe_id: int, chunk_index: int) -> int:
        """Rack storing the given chunk."""
        return self.topology.rack_of(self.node_of(stripe_id, chunk_index))

    def chunks_on_node(self, node_id: int) -> tuple[ChunkKey, ...]:
        """All chunks stored on ``node_id`` (may span many stripes), in
        ``(stripe_id, chunk_index)`` order."""
        stripes, chunks = np.nonzero(self._table == node_id)
        return tuple(zip(stripes.tolist(), chunks.tolist()))

    def stripe_layout(self, stripe_id: int) -> dict[int, int]:
        """chunk_index -> node_id for one stripe.

        Raises:
            UnknownChunkError: if the placement holds no such stripe.
        """
        if not 0 <= stripe_id < self.num_stripes:
            raise UnknownChunkError(f"no placement for stripe {stripe_id}")
        return dict(enumerate(self._table[stripe_id].tolist()))

    def rack_chunk_count(self, rack_id: int, stripe_id: int) -> int:
        """The paper's ``c_{i,j}``: chunks of stripe ``j`` in rack ``i``."""
        return int((self._racks_of(stripe_id) == rack_id).sum())

    def rack_counts(self, stripe_id: int) -> list[int]:
        """``c_{i,j}`` for every rack ``i`` of one stripe."""
        return np.bincount(
            self._racks_of(stripe_id), minlength=self.topology.num_racks
        ).tolist()

    def _racks_of(self, stripe_id: int) -> np.ndarray:
        if not 0 <= stripe_id < self.num_stripes:
            raise PlacementError(f"no placement for stripe {stripe_id}")
        return self.topology.rack_array()[self._table[stripe_id]]

    def iter_chunks(self) -> Iterator[tuple[ChunkKey, int]]:
        """Iterate ``((stripe_id, chunk_index), node_id)`` pairs in
        ``(stripe_id, chunk_index)`` order."""
        return (
            ((stripe, chunk), node)
            for stripe, row in enumerate(self._table.tolist())
            for chunk, node in enumerate(row)
        )

    def max_rack_colocation(self) -> int:
        """Largest ``c_{i,j}`` over all racks and stripes."""
        racks = self.topology.rack_array()[self._table]
        stripe = np.arange(self.num_stripes)[:, None]
        cell = stripe * self.topology.num_racks + racks
        return int(np.bincount(cell.ravel()).max())

    def is_rack_fault_tolerant(self) -> bool:
        """True iff every stripe survives any single rack failure."""
        return self.max_rack_colocation() <= self.m

    def __repr__(self) -> str:
        return (
            f"Placement(stripes={self.num_stripes}, k={self.k}, m={self.m}, "
            f"racks={self.topology.num_racks})"
        )


def _placement(
    topology: ClusterTopology, k: int, m: int, rows: list[list[int]]
) -> Placement:
    """The :class:`Placement` whose table rows are ``rows``."""
    table = np.array(rows, dtype=np.int32).reshape(len(rows), k + m)
    return Placement(topology, k, m, table)


class PlacementPolicy(abc.ABC):
    """Strategy object that places stripes onto a topology."""

    @abc.abstractmethod
    def place(
        self, topology: ClusterTopology, num_stripes: int, k: int, m: int
    ) -> Placement:
        """Place ``num_stripes`` stripes of a ``(k, m)`` code."""

    @staticmethod
    def _check_fits(topology: ClusterTopology, k: int, m: int) -> None:
        if k + m > topology.num_nodes:
            raise PlacementError(
                f"stripe width k+m={k + m} exceeds {topology.num_nodes} nodes"
            )


class RandomPlacementPolicy(PlacementPolicy):
    """Uniform random placement under the rack fault-tolerance constraint.

    Args:
        rng: source of randomness (seed it for reproducible layouts).
        rack_tolerance: how many simultaneous rack failures placement
            must survive; the per-rack cap is ``floor(m / rack_tolerance)``.
            The paper's setting is 1 (cap ``m``).
        max_attempts: rejection-sampling retries per stripe before
            falling back to a constructive assignment.
    """

    def __init__(
        self,
        rng: random.Random | int | None = None,
        rack_tolerance: int = 1,
        max_attempts: int = 200,
    ) -> None:
        if isinstance(rng, int):
            rng = random.Random(rng)
        self.rng = rng or random.Random()
        if rack_tolerance < 1:
            raise ConfigurationError("rack_tolerance must be >= 1")
        self.rack_tolerance = rack_tolerance
        self.max_attempts = max_attempts

    def _per_rack_cap(self, m: int) -> int:
        cap = m // self.rack_tolerance
        if cap < 1:
            raise PlacementError(
                f"cannot tolerate {self.rack_tolerance} rack failures with m={m}"
            )
        return cap

    def place(
        self, topology: ClusterTopology, num_stripes: int, k: int, m: int
    ) -> Placement:
        self._check_fits(topology, k, m)
        cap = self._per_rack_cap(m)
        n = k + m
        fewest_racks = -(-n // cap)  # ceil
        if fewest_racks > topology.num_racks:
            raise PlacementError(
                f"k+m={n} with per-rack cap {cap} needs at least "
                f"{fewest_racks} racks, topology has {topology.num_racks}"
            )
        rack_of = topology.rack_array().tolist()
        rows = [
            self._place_one_stripe(topology, rack_of, n, cap)
            for _ in range(num_stripes)
        ]
        return _placement(topology, k, m, rows)

    def _place_one_stripe(
        self,
        topology: ClusterTopology,
        rack_of: list[int],
        n: int,
        cap: int,
    ) -> list[int]:
        for _ in range(self.max_attempts):
            sample = self.rng.sample(range(len(rack_of)), n)
            per_rack: dict[int, int] = {}
            ok = True
            for nid in sample:
                rid = rack_of[nid]
                per_rack[rid] = per_rack.get(rid, 0) + 1
                if per_rack[rid] > cap:
                    ok = False
                    break
            if ok:
                return sample
        # Constructive fallback: shuffle racks, take up to `cap` random
        # nodes from each until n chunks are placed.  Always succeeds
        # given the feasibility check in place().
        racks = list(topology.racks)
        self.rng.shuffle(racks)
        chosen: list[int] = []
        for rack in racks:
            take = min(cap, rack.size, n - len(chosen))
            chosen.extend(self.rng.sample(list(rack.node_ids), take))
            if len(chosen) == n:
                self.rng.shuffle(chosen)
                return chosen
        raise PlacementError(
            f"unable to place a stripe of width {n} with per-rack cap {cap}"
        )


class RackAlignedPlacementPolicy(PlacementPolicy):
    """Rack-aligned placement for rack-aware regenerating codes.

    The chunk -> rack map is *identical for every stripe*: chunks are
    dealt round-robin over the racks (skipping racks whose per-stripe
    capacity ``min(rack size, m)`` is exhausted), so chunk ``c`` always
    lives in the same rack.  This is the geometry the striped rack-aware
    MSR construction assumes — each rack plays the role of one code
    node, and co-located chunks of a stripe are that node's ``alpha``
    packets — and it lets a repair strategy pick helper *racks* knowing
    exactly which chunk indices they hold.

    Node choice inside each rack is randomised per stripe, so failures
    still hit varied chunk positions across the stripe population.

    The round-robin deal never puts more than ``m`` chunks of a stripe
    in one rack, preserving single-rack fault tolerance whenever the
    capacity check passes.

    Args:
        rng: source of randomness for the per-stripe node choice.
    """

    def __init__(self, rng: random.Random | int | None = None) -> None:
        if isinstance(rng, int):
            rng = random.Random(rng)
        self.rng = rng or random.Random()

    def chunk_rack_map(
        self, topology: ClusterTopology, k: int, m: int
    ) -> tuple[int, ...]:
        """The shared chunk -> rack assignment for a ``(k, m)`` stripe."""
        n = k + m
        racks = sorted(topology.racks, key=lambda r: r.rack_id)
        cap = {r.rack_id: min(r.size, m) for r in racks}
        if sum(cap.values()) < n:
            raise PlacementError(
                f"racks hold at most {sum(cap.values())} chunks per stripe "
                f"(cap m={m}), need {n}"
            )
        fill = {r.rack_id: 0 for r in racks}
        order = [r.rack_id for r in racks]
        out: list[int] = []
        cursor = 0
        while len(out) < n:
            rid = order[cursor % len(order)]
            cursor += 1
            if fill[rid] < cap[rid]:
                out.append(rid)
                fill[rid] += 1
        return tuple(out)

    def place(
        self, topology: ClusterTopology, num_stripes: int, k: int, m: int
    ) -> Placement:
        self._check_fits(topology, k, m)
        rack_map = self.chunk_rack_map(topology, k, m)
        per_rack_chunks: dict[int, list[int]] = {}
        for c, rid in enumerate(rack_map):
            per_rack_chunks.setdefault(rid, []).append(c)
        rack_by_id = {r.rack_id: r for r in topology.racks}
        rows = []
        for _ in range(num_stripes):
            row = [0] * (k + m)
            for rid, chunks in per_rack_chunks.items():
                nodes = self.rng.sample(
                    list(rack_by_id[rid].node_ids), len(chunks)
                )
                for c, nid in zip(chunks, nodes):
                    row[c] = nid
            rows.append(row)
        return _placement(topology, k, m, rows)


class GroupAlignedPlacementPolicy(PlacementPolicy):
    """Locality-aligned placement for codes with repair groups (LRC).

    Every *group* of chunk indices (e.g. an LRC local group plus its
    local parity) is placed entirely inside one rack, so a single
    failure inside the group is repaired with **zero** cross-rack
    traffic.  Chunks outside any group (e.g. global parities) are
    scattered over the remaining racks, at most one per rack where
    possible.

    The trade-off is deliberate and measurable: concentrating a group
    in one rack can sacrifice rack-level fault tolerance (losing that
    rack may erase more chunks than the code can rebuild) — the
    LRC-vs-CAR ablation bench quantifies both sides.

    Args:
        groups: disjoint chunk-index groups to co-locate; indices are
            stripe-local (``0 .. k+m-1``).
        rng: randomness for rack and node choice.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[int]],
        rng: random.Random | int | None = None,
    ) -> None:
        if isinstance(rng, int):
            rng = random.Random(rng)
        self.rng = rng or random.Random()
        self.groups = [tuple(g) for g in groups]
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise ConfigurationError("placement groups must be non-empty")
            for c in group:
                if c in seen:
                    raise ConfigurationError(
                        f"chunk {c} appears in more than one group"
                    )
                seen.add(c)

    def place(
        self, topology: ClusterTopology, num_stripes: int, k: int, m: int
    ) -> Placement:
        self._check_fits(topology, k, m)
        n = k + m
        grouped = {c for g in self.groups for c in g}
        if grouped - set(range(n)):
            raise PlacementError(
                f"groups reference chunks outside 0..{n - 1}"
            )
        if max((len(g) for g in self.groups), default=0) > max(
            r.size for r in topology.racks
        ):
            raise PlacementError(
                "a group is larger than the largest rack"
            )
        rows = []
        for _ in range(num_stripes):
            chunk_to_node = self._place_stripe(topology, n)
            rows.append([chunk_to_node[c] for c in range(n)])
        return _placement(topology, k, m, rows)

    def _place_stripe(
        self, topology: ClusterTopology, n: int
    ) -> dict[int, int]:
        used_nodes: set[int] = set()
        chunk_to_node: dict[int, int] = {}
        racks = list(topology.racks)
        self.rng.shuffle(racks)
        # Groups first, each into its own rack, largest group first so
        # big groups get big racks.
        rack_pool = sorted(racks, key=lambda r: -r.size)
        group_racks: set[int] = set()
        for group in sorted(self.groups, key=len, reverse=True):
            rack = next(
                (
                    r
                    for r in rack_pool
                    if r.rack_id not in group_racks and r.size >= len(group)
                ),
                None,
            )
            if rack is None:
                raise PlacementError(
                    f"no free rack can hold a group of {len(group)} chunks"
                )
            group_racks.add(rack.rack_id)
            nodes = self.rng.sample(list(rack.node_ids), len(group))
            for chunk, node in zip(group, nodes):
                chunk_to_node[chunk] = node
                used_nodes.add(node)
        # Loose chunks (global parities): prefer racks not used by any
        # group, then any node not already used.
        loose = [c for c in range(n) if c not in chunk_to_node]
        preferred = [
            nid
            for r in racks
            if r.rack_id not in group_racks
            for nid in r.node_ids
        ]
        fallback = [
            node.node_id
            for node in topology.nodes
            if node.node_id not in used_nodes
        ]
        candidates = [nid for nid in preferred if nid not in used_nodes]
        self.rng.shuffle(candidates)
        for chunk in loose:
            if not candidates:
                candidates = [
                    nid for nid in fallback if nid not in used_nodes
                ]
                self.rng.shuffle(candidates)
            if not candidates:
                raise PlacementError("not enough nodes for loose chunks")
            node = candidates.pop()
            chunk_to_node[chunk] = node
            used_nodes.add(node)
        return chunk_to_node
