"""Replacement-node selection policies.

The paper's methodology reuses the failed node as the replacement
("we use the same node as the replacement node").  In production the
operator has a choice, and the choice interacts with cross-rack
traffic: every reconstructed chunk must *land* on the replacement, so a
replacement outside the failed rack turns the failed rack's intra-rack
retrievals into cross-rack flows — and vice versa.

A replacement node is *eligible* only if it stores no chunk of any
affected stripe (a node may hold at most one chunk per stripe); the
failed node itself is always eligible.  Policies fall back to the
failed node when no other candidate qualifies — which is the common
case at realistic stripe counts, and exactly why the paper's setting is
the sensible default.

Traffic for a non-default replacement must be read from the *plan's
rows* (:meth:`RecoveryPlan.cross_rack_chunks`, or a window's
:meth:`~repro.recovery.planner.WindowPlan.ledger`), whose ``crossing``
mask counts flows by their actual endpoints; solution-level counters
assume the paper's setting.
"""

from __future__ import annotations

import abc
import random

from repro.cluster.state import ClusterState, FailureEvent
from repro.errors import RecoveryError

__all__ = [
    "ReplacementPolicy",
    "SameNodeReplacementPolicy",
    "SameRackReplacementPolicy",
    "LeastLoadedReplacementPolicy",
    "eligible_replacements",
    "with_replacement",
]


def eligible_replacements(state: ClusterState, event: FailureEvent) -> list[int]:
    """Nodes that may host every reconstructed chunk of this failure.

    A node qualifies iff it holds no chunk of any affected stripe.  The
    failed node always qualifies (its chunks are the ones being
    rebuilt).
    """
    affected = set(event.stripes)
    out = [event.failed_node]
    for node in state.topology.nodes:
        if node.node_id == event.failed_node:
            continue
        held = {
            s for (s, _) in state.placement.chunks_on_node(node.node_id)
        }
        if not held & affected:
            out.append(node.node_id)
    return out


def with_replacement(event: FailureEvent, replacement: int) -> FailureEvent:
    """A copy of ``event`` targeting a different replacement node."""
    return FailureEvent(
        failed_node=event.failed_node,
        failed_rack=event.failed_rack,
        lost_chunks=event.lost_chunks,
        replacement_node=replacement,
    )


class ReplacementPolicy(abc.ABC):
    """Chooses where reconstructed chunks are written."""

    @abc.abstractmethod
    def choose(self, state: ClusterState, event: FailureEvent) -> int:
        """Return the replacement node id for this failure."""

    def apply(self, state: ClusterState, event: FailureEvent) -> FailureEvent:
        """Event with this policy's replacement filled in.

        Raises:
            RecoveryError: if the chosen node is not eligible.
        """
        choice = self.choose(state, event)
        if choice not in eligible_replacements(state, event):
            raise RecoveryError(
                f"node {choice} holds chunks of affected stripes and "
                f"cannot be the replacement"
            )
        return with_replacement(event, choice)


class SameNodeReplacementPolicy(ReplacementPolicy):
    """The paper's setting: rebuild in place on the failed node."""

    def choose(self, state: ClusterState, event: FailureEvent) -> int:
        return event.failed_node


class SameRackReplacementPolicy(ReplacementPolicy):
    """Prefer an eligible peer in the failed rack (hot spare in-rack).

    Keeps the failed rack's survivor retrievals intra-rack — the
    traffic-preserving alternative when the failed machine is truly
    dead.  Falls back to the failed node when no peer qualifies.
    """

    def __init__(self, rng: random.Random | int | None = None) -> None:
        if isinstance(rng, int):
            rng = random.Random(rng)
        self.rng = rng or random.Random()

    def choose(self, state: ClusterState, event: FailureEvent) -> int:
        candidates = [
            n
            for n in eligible_replacements(state, event)
            if n != event.failed_node
            and state.topology.rack_of(n) == event.failed_rack
        ]
        if not candidates:
            return event.failed_node
        return self.rng.choice(candidates)


class LeastLoadedReplacementPolicy(ReplacementPolicy):
    """Pick the eligible node storing the fewest chunks, any rack.

    Balances *storage* after recovery, at the price of potentially
    turning the failed rack's retrievals into cross-rack flows — the
    trade the replacement-policy bench quantifies.
    """

    def choose(self, state: ClusterState, event: FailureEvent) -> int:
        candidates = eligible_replacements(state, event)
        return min(
            candidates,
            key=lambda n: (len(state.placement.chunks_on_node(n)), n),
        )
