"""Failure injection helpers.

The paper's methodology: "we randomly select a node to erase its stored
chunks ... use the same node as the replacement node, and trigger the
recovery operation."  :class:`FailureInjector` reproduces that, plus a
rack-failure drill used by the fault-tolerance tests.

:func:`degraded_view` supports *secondary* failures during repair (the
:mod:`repro.faults` subsystem): it re-derives a stripe's solver view
after additional helper nodes have died, so the selector can re-plan
with Theorem-1 minimality over the surviving racks only.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from repro.errors import NoFailureError
from repro.cluster.state import ClusterState, FailureEvent, StripeView
from repro.cluster.topology import ClusterTopology

__all__ = ["FailureInjector", "degraded_view"]


def degraded_view(
    view: StripeView,
    dead_nodes: Iterable[int],
    topology: ClusterTopology,
) -> StripeView:
    """A copy of ``view`` with chunks on ``dead_nodes`` removed.

    The returned view's ``surviving`` map and ``rack_counts`` reflect
    only chunks on still-alive nodes, so every Theorem-1 quantity
    (``c_{i,j}``, ``c'_{f,j}``, ``d_j``) is computed over the surviving
    cluster.  The primary failure (``lost_chunk`` / ``failed_rack``) is
    unchanged.
    """
    dead = set(dead_nodes)
    surviving = {c: n for c, n in view.surviving.items() if n not in dead}
    counts = [0] * topology.num_racks
    for nid in surviving.values():
        counts[topology.rack_of(nid)] += 1
    return StripeView(
        stripe_id=view.stripe_id,
        lost_chunk=view.lost_chunk,
        surviving=surviving,
        rack_counts=tuple(counts),
        failed_rack=view.failed_rack,
    )


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
