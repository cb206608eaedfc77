"""Storage rebalancing after cluster expansion.

When operators add a node, existing chunks must migrate onto it or the
new capacity sits idle and the old nodes stay hot.  The
:class:`Rebalancer` computes a migration plan that evens out per-node
chunk counts while honouring the same constraints as placement:

- at most one chunk of a stripe per node;
- at most ``m`` chunks of a stripe per rack (rack fault tolerance);
- **intra-rack moves preferred** — the CAR theme again: a migration
  inside a rack costs cheap ToR bandwidth, a cross-rack migration
  crosses the over-subscribed core, so the planner exhausts same-rack
  donor/receiver pairs before reaching across racks.

Each move strictly shrinks the donor-receiver load gap, so the greedy
loop terminates; :meth:`Rebalancer.apply` materialises the resulting
:class:`~repro.cluster.placement.Placement` (re-validated from
scratch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.placement import Placement
from repro.cluster.topology import ClusterTopology
from repro.errors import ClusterError

__all__ = ["Migration", "MigrationPlan", "Rebalancer"]


@dataclass(frozen=True)
class Migration:
    """One chunk move.

    Attributes:
        stripe_id / chunk_index: the chunk being moved.
        src_node / dst_node: endpoints.
        cross_rack: whether the move crosses the core.
    """

    stripe_id: int
    chunk_index: int
    src_node: int
    dst_node: int
    cross_rack: bool


@dataclass
class MigrationPlan:
    """An ordered list of migrations plus summary counters."""

    moves: list[Migration] = field(default_factory=list)

    @property
    def total_moves(self) -> int:
        """Chunks migrated."""
        return len(self.moves)

    @property
    def cross_rack_moves(self) -> int:
        """Migrations crossing the over-subscribed core."""
        return sum(1 for m in self.moves if m.cross_rack)

    @property
    def intra_rack_moves(self) -> int:
        """Migrations staying behind one ToR."""
        return self.total_moves - self.cross_rack_moves


class Rebalancer:
    """Plans storage rebalancing over a (possibly just-grown) topology.

    Args:
        topology: the cluster *after* any expansion.
        tolerance: permitted max-min load spread after rebalancing
            (1 means as even as integers allow).
    """

    def __init__(self, topology: ClusterTopology, tolerance: int = 1) -> None:
        if tolerance < 1:
            raise ClusterError("tolerance must be >= 1")
        self.topology = topology
        self.tolerance = tolerance

    def plan(self, placement: Placement) -> MigrationPlan:
        """Compute migrations that even out per-node chunk counts.

        The placement may be keyed on a smaller topology (before an
        expansion) as long as all its node ids exist here.
        """
        table = placement.node_table().copy()
        load = np.bincount(
            table.ravel(), minlength=self.topology.num_nodes
        ).tolist()
        nodes = range(len(load))
        plan = MigrationPlan()
        for _ in range(table.size + 1):
            donor = max(nodes, key=lambda n: (load[n], n))
            receiver = min(nodes, key=lambda n: (load[n], n))
            if load[donor] - load[receiver] <= self.tolerance:
                break
            move = self._find_move(table, load, placement.m)
            if move is None:
                break
            plan.moves.append(move)
            table[move.stripe_id, move.chunk_index] = move.dst_node
            load[move.src_node] -= 1
            load[move.dst_node] += 1
        return plan

    def _find_move(self, table, load, m):
        topo = self.topology
        mean = sum(load) / len(load)
        donors = sorted(
            (n for n in range(len(load)) if load[n] > mean),
            key=lambda n: (-load[n], n),
        )
        receivers = sorted(
            (n for n in range(len(load)) if load[n] < mean),
            key=lambda n: (load[n], n),
        )
        # Two passes: same-rack pairs first, then cross-rack.
        for cross in (False, True):
            for donor in donors:
                for receiver in receivers:
                    if load[donor] - load[receiver] <= self.tolerance:
                        continue
                    is_cross = topo.rack_of(donor) != topo.rack_of(receiver)
                    if is_cross != cross:
                        continue
                    chunk = self._movable_chunk(
                        table, donor, receiver, is_cross, m
                    )
                    if chunk is not None:
                        stripe, idx = chunk
                        return Migration(
                            stripe_id=stripe,
                            chunk_index=idx,
                            src_node=donor,
                            dst_node=receiver,
                            cross_rack=is_cross,
                        )
        return None

    def _movable_chunk(self, table, donor, receiver, is_cross, m):
        """The first chunk on ``donor``, in ``(stripe, chunk)`` order,
        that may move to ``receiver``."""
        racks = self.topology.rack_array()
        for stripe, chunk in zip(*np.nonzero(table == donor)):
            row = table[stripe]
            if receiver in row:
                continue  # one chunk per node per stripe
            if is_cross and (racks[row] == racks[receiver]).sum() >= m:
                continue  # would break rack fault tolerance
            return int(stripe), int(chunk)
        return None

    def apply(self, placement: Placement, plan: MigrationPlan) -> Placement:
        """The placement after executing ``plan`` (fully re-validated)."""
        table = placement.node_table().copy()
        for move in plan.moves:
            key = (move.stripe_id, move.chunk_index)
            placement.node_of(*key)  # refuses a chunk that was never placed
            if table[key] != move.src_node:
                raise ClusterError(
                    f"plan is stale: chunk {key} is not on node {move.src_node}"
                )
            table[key] = move.dst_node
        return Placement(self.topology, placement.k, placement.m, table)
