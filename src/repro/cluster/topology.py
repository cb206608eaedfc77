"""CFS topology model: nodes grouped into racks with bandwidth diversity.

Mirrors the architecture of Figure 1 of the paper: every node connects
to its rack's top-of-rack (ToR) switch; ToR switches connect to a
network core.  The defining property is *bandwidth diversity*: the
intra-rack path (node -> ToR -> node) is fast, while each rack's uplink
into the core is over-subscribed and therefore scarce.

:class:`BandwidthProfile` captures the link speeds; the
:class:`ClusterTopology` is a static, immutable description that the
placement, recovery, and simulation layers all share.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, UnknownNodeError

__all__ = ["BandwidthProfile", "Node", "Rack", "ClusterTopology"]


@dataclass(frozen=True)
class BandwidthProfile:
    """Link capacities of the CFS fabric, in gigabits per second.

    Attributes:
        node_nic_gbps: capacity of each node's NIC (paper testbed: 1 GbE).
        rack_uplink_gbps: capacity of one rack's uplink into the core.
            Over-subscription is expressed here: with ``n`` nodes per
            rack and uplink == NIC speed, the rack is ``n:1``
            over-subscribed, which matches a single-switch-port uplink
            like the paper's TP-LINK setup.
        core_gbps: aggregate switching capacity of the network core;
            ``float('inf')`` models a non-blocking core.
        per_rack_uplink_gbps: optional per-rack uplink overrides (mixed
            switch generations); entry ``i`` replaces
            ``rack_uplink_gbps`` for rack ``i``.  Must match the rack
            count of the topology it is used with
            (:class:`ClusterTopology` checks).
    """

    node_nic_gbps: float = 1.0
    rack_uplink_gbps: float = 1.0
    core_gbps: float = float("inf")
    per_rack_uplink_gbps: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("node_nic_gbps", "rack_uplink_gbps", "core_gbps"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.per_rack_uplink_gbps is not None:
            if isinstance(self.per_rack_uplink_gbps, list):
                object.__setattr__(
                    self,
                    "per_rack_uplink_gbps",
                    tuple(self.per_rack_uplink_gbps),
                )
            if any(v <= 0 for v in self.per_rack_uplink_gbps):
                raise ConfigurationError(
                    "per_rack_uplink_gbps entries must be positive"
                )

    def uplink_for(self, rack_id: int) -> float:
        """The uplink capacity of one rack (override or default)."""
        if self.per_rack_uplink_gbps is not None:
            return self.per_rack_uplink_gbps[rack_id]
        return self.rack_uplink_gbps

    @property
    def oversubscription(self) -> float:
        """NIC-to-uplink speed ratio (per node sharing the uplink)."""
        return self.node_nic_gbps / self.rack_uplink_gbps


@dataclass(frozen=True)
class Node:
    """A storage node.

    Attributes:
        node_id: globally unique id, dense from 0.
        rack_id: id of the rack the node lives in.
        index_in_rack: position within the rack (0-based).
    """

    node_id: int
    rack_id: int
    index_in_rack: int

    @property
    def name(self) -> str:
        """Human-readable label, e.g. ``"A1.n0"`` (racks are 1-based A_i)."""
        return f"A{self.rack_id + 1}.n{self.index_in_rack}"


@dataclass(frozen=True)
class Rack:
    """A rack: an ordered collection of nodes behind one ToR switch."""

    rack_id: int
    node_ids: tuple[int, ...] = field(default_factory=tuple)

    @property
    def name(self) -> str:
        """Paper-style label ``A1, A2, ...``."""
        return f"A{self.rack_id + 1}"

    @property
    def size(self) -> int:
        """Number of nodes in the rack."""
        return len(self.node_ids)


class ClusterTopology:
    """Immutable description of a CFS: racks, nodes, and link speeds.

    Build one with :meth:`from_rack_sizes`, e.g. the paper's CFS1 is
    ``ClusterTopology.from_rack_sizes([4, 3, 3])``.
    """

    def __init__(
        self,
        racks: Sequence[Rack],
        nodes: Sequence[Node],
        bandwidth: BandwidthProfile | None = None,
    ) -> None:
        if not racks:
            raise ConfigurationError("a topology needs at least one rack")
        self._racks = tuple(racks)
        self._nodes = tuple(nodes)
        self.bandwidth = bandwidth or BandwidthProfile()
        per_rack = self.bandwidth.per_rack_uplink_gbps
        if per_rack is not None and len(per_rack) != len(racks):
            raise ConfigurationError(
                f"per_rack_uplink_gbps has {len(per_rack)} entries "
                f"for {len(racks)} racks"
            )
        self._rack_of = {n.node_id: n.rack_id for n in nodes}
        if len(self._rack_of) != len(nodes):
            raise ConfigurationError("duplicate node ids in topology")
        for rack in racks:
            for nid in rack.node_ids:
                if self._rack_of.get(nid) != rack.rack_id:
                    raise ConfigurationError(
                        f"node {nid} rack assignment is inconsistent"
                    )

    @classmethod
    def from_rack_sizes(
        cls,
        rack_sizes: Iterable[int],
        bandwidth: BandwidthProfile | None = None,
    ) -> "ClusterTopology":
        """Build a topology with the given number of nodes per rack."""
        sizes = list(rack_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ConfigurationError(
                f"rack sizes must be positive, got {sizes}"
            )
        nodes: list[Node] = []
        racks: list[Rack] = []
        next_id = 0
        for rack_id, size in enumerate(sizes):
            ids = []
            for idx in range(size):
                nodes.append(
                    Node(node_id=next_id, rack_id=rack_id, index_in_rack=idx)
                )
                ids.append(next_id)
                next_id += 1
            racks.append(Rack(rack_id=rack_id, node_ids=tuple(ids)))
        return cls(racks=racks, nodes=nodes, bandwidth=bandwidth)

    # -- queries ----------------------------------------------------------

    @property
    def racks(self) -> tuple[Rack, ...]:
        """All racks, ordered by id."""
        return self._racks

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes, ordered by id."""
        return self._nodes

    @property
    def num_racks(self) -> int:
        """Number of racks (the paper's ``r``)."""
        return len(self._racks)

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return len(self._nodes)

    def rack_of(self, node_id: int) -> int:
        """Rack id of ``node_id``.

        Raises:
            UnknownNodeError: if the node does not exist.
        """
        try:
            return self._rack_of[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def node(self, node_id: int) -> Node:
        """The :class:`Node` with the given id."""
        if not 0 <= node_id < len(self._nodes):
            raise UnknownNodeError(node_id)
        return self._nodes[node_id]

    def rack(self, rack_id: int) -> Rack:
        """The :class:`Rack` with the given id."""
        if not 0 <= rack_id < len(self._racks):
            raise UnknownNodeError(rack_id)
        return self._racks[rack_id]

    def nodes_in_rack(self, rack_id: int) -> tuple[int, ...]:
        """Node ids in rack ``rack_id``."""
        return self.rack(rack_id).node_ids

    def peers_in_rack(self, node_id: int) -> tuple[int, ...]:
        """Other node ids sharing ``node_id``'s rack."""
        rid = self.rack_of(node_id)
        return tuple(n for n in self.nodes_in_rack(rid) if n != node_id)

    def rack_sizes(self) -> tuple[int, ...]:
        """Per-rack node counts, ordered by rack id."""
        return tuple(r.size for r in self._racks)

    def with_extra_node(self, rack_id: int) -> "ClusterTopology":
        """A copy of this topology with one new node appended to a rack.

        The new node receives the next dense id (``num_nodes``), so all
        existing node ids — and any placement keyed on them — remain
        valid in the new topology.
        """
        target = self.rack(rack_id)
        new_node = Node(
            node_id=self.num_nodes,
            rack_id=rack_id,
            index_in_rack=target.size,
        )
        racks = [
            Rack(
                rack_id=r.rack_id,
                node_ids=r.node_ids + ((new_node.node_id,) if r.rack_id == rack_id else ()),
            )
            for r in self._racks
        ]
        return ClusterTopology(
            racks=racks,
            nodes=list(self._nodes) + [new_node],
            bandwidth=self.bandwidth,
        )

    def __repr__(self) -> str:
        return (
            f"ClusterTopology(racks={self.rack_sizes()}, "
            f"nodes={self.num_nodes})"
        )
