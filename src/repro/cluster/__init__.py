"""Clustered-file-system substrate: topology, placement, state, failures."""

from repro.cluster.failure import FailureInjector
from repro.cluster.filestore import FileInfo, FileStore
from repro.cluster.placement import (
    ChunkKey,
    GroupAlignedPlacementPolicy,
    Placement,
    PlacementPolicy,
    RandomPlacementPolicy,
)
from repro.cluster.rebalance import Migration, MigrationPlan, Rebalancer
from repro.cluster.scrub import ScrubFinding, ScrubReport, Scrubber
from repro.cluster.transition import (
    RackAwareTransition,
    RandomTransition,
    ReplicatedBlock,
    ReplicatedStore,
    TransitionPlan,
)
from repro.cluster.state import ClusterState, DataStore, FailureEvent
from repro.cluster.topology import BandwidthProfile, ClusterTopology, Node, Rack

__all__ = [
    "BandwidthProfile",
    "ClusterTopology",
    "Node",
    "Rack",
    "ChunkKey",
    "Placement",
    "PlacementPolicy",
    "RandomPlacementPolicy",
    "GroupAlignedPlacementPolicy",
    "ClusterState",
    "DataStore",
    "FailureEvent",
    "FailureInjector",
    "FileStore",
    "FileInfo",
    "Scrubber",
    "ScrubReport",
    "ScrubFinding",
    "Rebalancer",
    "MigrationPlan",
    "Migration",
    "ReplicatedStore",
    "ReplicatedBlock",
    "TransitionPlan",
    "RackAwareTransition",
    "RandomTransition",
]
