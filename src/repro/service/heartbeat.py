"""Heartbeat bookkeeping and timeout-based failure detection.

Pure state machine, no I/O: the coordinator feeds it ``beat()`` calls
as heartbeat frames arrive and polls ``check()`` on its detector loop.
Each *node* (not each chunkserver — one chunkserver daemon may host
several modelled nodes, like a host with several disks) holds a lease:

.. code-block:: text

    UNKNOWN --register--> ALIVE --no beat > suspect_after--> SUSPECT
       ^                    ^                                   |
       |                    +------------- beat ----------------+
       |                                                        |
       +-- re-register (new incarnation) -- DEAD <-- no beat > dead_after

``SUSPECT`` is a grace state: a late heartbeat fully restores the
lease.  ``DEAD`` is sticky — a dead node's chunkserver must
re-``register()`` (a new incarnation) to serve again, which keeps the
repair planner's view stable while it is re-planning around the loss.

Silence is measured against the caller's clock, so a caller that was
itself paused says so with :meth:`FailureDetector.excuse` before it
polls again.

Transitions come out of :meth:`FailureDetector.check` as
:class:`LeaseTransition` records, which the coordinator turns into
trace events, repair triggers, and re-plan signals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError, ServiceError

__all__ = ["NodeHealth", "LeaseTransition", "FailureDetector"]


class NodeHealth(str, enum.Enum):
    """Lease state of one modelled node."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass(frozen=True)
class LeaseTransition:
    """One observed health change.

    Attributes:
        node_id: the modelled node.
        server_id: the chunkserver daemon hosting it.
        old: previous health (None for first registration).
        new: new health.
        at: modelled time of the transition.
    """

    node_id: int
    server_id: str
    old: NodeHealth | None
    new: NodeHealth
    at: float


@dataclass
class _Lease:
    server_id: str
    health: NodeHealth
    last_beat: float


class FailureDetector:
    """Per-node heartbeat leases with SUSPECT/DEAD timeouts.

    Args:
        suspect_after: modelled seconds without a beat before ALIVE
            degrades to SUSPECT.
        dead_after: modelled seconds without a beat before a node is
            declared DEAD (must exceed ``suspect_after``).
    """

    def __init__(self, suspect_after: float, dead_after: float) -> None:
        if suspect_after <= 0 or dead_after <= suspect_after:
            raise ConfigurationError(
                "need 0 < suspect_after < dead_after, got "
                f"suspect_after={suspect_after}, dead_after={dead_after}"
            )
        self.suspect_after = float(suspect_after)
        self.dead_after = float(dead_after)
        self._leases: dict[int, _Lease] = {}

    # -- feeding ---------------------------------------------------------

    def register(
        self, server_id: str, nodes, now: float
    ) -> list[LeaseTransition]:
        """(Re-)register a chunkserver's nodes; all become ALIVE."""
        out = []
        for node_id in nodes:
            old = self._leases.get(node_id)
            if old is not None and old.server_id != server_id and (
                old.health is not NodeHealth.DEAD
            ):
                raise ServiceError(
                    f"node {node_id} is already registered to "
                    f"{old.server_id!r} (state {old.health.value})"
                )
            self._leases[int(node_id)] = _Lease(
                server_id, NodeHealth.ALIVE, now
            )
            if old is None or old.health is not NodeHealth.ALIVE:
                out.append(
                    LeaseTransition(
                        int(node_id), server_id,
                        None if old is None else old.health,
                        NodeHealth.ALIVE, now,
                    )
                )
        return out

    def beat(
        self, server_id: str, nodes, now: float
    ) -> list[LeaseTransition]:
        """Record a heartbeat covering ``nodes``.

        A beat refreshes ALIVE leases, recovers SUSPECT ones, and is
        *ignored* for DEAD ones (sticky until re-registration).  Nodes
        the chunkserver hosts but omits from the beat simply do not get
        refreshed — that is how a single node's death is simulated on a
        live host.
        """
        out = []
        for node_id in nodes:
            lease = self._leases.get(int(node_id))
            if lease is None or lease.server_id != server_id:
                continue
            if lease.health is NodeHealth.DEAD:
                continue
            if lease.health is NodeHealth.SUSPECT:
                out.append(
                    LeaseTransition(
                        int(node_id), server_id,
                        NodeHealth.SUSPECT, NodeHealth.ALIVE, now,
                    )
                )
                lease.health = NodeHealth.ALIVE
            lease.last_beat = now
        return out

    def excuse(self, seconds: float) -> None:
        """The observer itself was away for ``seconds``; nobody was silent.

        Moves every lease's last beat forward by the gap, so the next
        :meth:`check` sees the silence it would have seen had the
        observer not paused: a node that was quiet before the pause is
        still exactly that quiet after it.
        """
        for lease in self._leases.values():
            lease.last_beat += seconds

    # -- polling ---------------------------------------------------------

    def check(self, now: float) -> list[LeaseTransition]:
        """Expire leases; return every transition this poll produced."""
        out = []
        for node_id, lease in sorted(self._leases.items()):
            silent = now - lease.last_beat
            if lease.health is NodeHealth.ALIVE and silent > self.suspect_after:
                lease.health = NodeHealth.SUSPECT
                out.append(
                    LeaseTransition(
                        node_id, lease.server_id,
                        NodeHealth.ALIVE, NodeHealth.SUSPECT, now,
                    )
                )
            if lease.health is NodeHealth.SUSPECT and silent > self.dead_after:
                lease.health = NodeHealth.DEAD
                out.append(
                    LeaseTransition(
                        node_id, lease.server_id,
                        NodeHealth.SUSPECT, NodeHealth.DEAD, now,
                    )
                )
        return out

    # -- queries ---------------------------------------------------------

    def health(self, node_id: int) -> NodeHealth | None:
        """Current health of one node (None = never registered)."""
        lease = self._leases.get(node_id)
        return lease.health if lease is not None else None

    def server_of(self, node_id: int) -> str | None:
        """The chunkserver hosting ``node_id``."""
        lease = self._leases.get(node_id)
        return lease.server_id if lease is not None else None

    def dead_nodes(self) -> frozenset[int]:
        """All nodes currently DEAD."""
        return frozenset(
            n for n, l in self._leases.items() if l.health is NodeHealth.DEAD
        )

    def alive_nodes(self) -> frozenset[int]:
        """All nodes currently ALIVE (SUSPECT excluded)."""
        return frozenset(
            n for n, l in self._leases.items() if l.health is NodeHealth.ALIVE
        )

    def snapshot(self) -> dict[int, str]:
        """node_id -> health value, for status replies."""
        return {n: l.health.value for n, l in sorted(self._leases.items())}
