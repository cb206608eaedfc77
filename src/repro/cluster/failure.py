"""Failure injection helpers.

The paper's methodology: "we randomly select a node to erase its stored
chunks ... use the same node as the replacement node, and trigger the
recovery operation."  :class:`FailureInjector` reproduces that, plus a
rack-failure drill used by the fault-tolerance tests.

A *secondary* failure during repair or a degraded read is not an event
here: it is a dead-node mask on
:meth:`~repro.cluster.state.ClusterState.failure_columns`, so the re-plan
is Theorem-1 minimal over the surviving racks only.
"""

from __future__ import annotations

import random

from repro.errors import NoFailureError
from repro.cluster.state import ClusterState, FailureEvent

__all__ = ["FailureInjector"]


class FailureInjector:
    """Randomised failure scenarios over a :class:`ClusterState`."""

    def __init__(self, rng: random.Random | int | None = None) -> None:
        if isinstance(rng, int):
            rng = random.Random(rng)
        self.rng = rng or random.Random()

    def candidate_nodes(self, state: ClusterState) -> list[int]:
        """Nodes that actually store at least one chunk."""
        return [
            node.node_id
            for node in state.topology.nodes
            if state.placement.chunks_on_node(node.node_id)
        ]

    def fail_random_node(self, state: ClusterState) -> FailureEvent:
        """Fail a uniformly random non-empty node (paper methodology).

        Raises:
            NoFailureError: if no node stores any chunk.
        """
        candidates = self.candidate_nodes(state)
        if not candidates:
            raise NoFailureError("no node stores any chunk; nothing to fail")
        return state.fail_node(self.rng.choice(candidates))

    def fail_node(self, state: ClusterState, node_id: int) -> FailureEvent:
        """Fail a specific node."""
        return state.fail_node(node_id)

    def simulate_rack_loss(self, state: ClusterState, rack_id: int) -> bool:
        """Check (without mutating) that every stripe survives losing a rack.

        Returns True iff each stripe retains at least ``k`` chunks
        outside ``rack_id`` — the rack-level fault-tolerance property
        the placement constraint ``c_{i,j} <= m`` guarantees.
        """
        k = state.code.k
        n = state.code.k + state.code.m
        for stripe in range(state.placement.num_stripes):
            inside = state.placement.rack_chunk_count(rack_id, stripe)
            if n - inside < k:
                return False
        return True
