"""Evaluation configurations: the paper's Tables II and III.

Table II defines three CFS settings (rack layouts + RS parameters);
Table III gives the per-rack hardware.  :func:`build_state` constructs a
ready-to-fail :class:`~repro.cluster.state.ClusterState` for a config,
mirroring the paper's methodology (100 stripes, random placement with
single-rack fault tolerance).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.placement import (
    RackAlignedPlacementPolicy,
    RandomPlacementPolicy,
)
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.erasure.rs import RSCode
from repro.errors import ConfigurationError

__all__ = [
    "MB",
    "CFSConfig",
    "CFS1",
    "CFS2",
    "CFS3",
    "ALL_CFS",
    "config_by_name",
    "PAPER_CHUNK_SIZES",
    "build_state",
]

#: One mebibyte — chunk sizes in the paper are 4/8/16 MB.
MB = 1 << 20

#: The chunk sizes every traffic/time figure sweeps.
PAPER_CHUNK_SIZES: tuple[int, ...] = (4 * MB, 8 * MB, 16 * MB)


@dataclass(frozen=True)
class CFSConfig:
    """One row of Table II.

    Attributes:
        name: config label ("CFS1"...).
        rack_sizes: nodes per rack (Table II's A1..A5 columns).
        k / m: RS code parameters.
        bandwidth: fabric speeds; the default models the paper's GbE
            testbed (1 Gb/s NICs, one shared 1 Gb/s uplink per rack).
        num_stripes: stripes per experiment (paper: 100).
    """

    name: str
    rack_sizes: tuple[int, ...]
    k: int
    m: int
    bandwidth: BandwidthProfile = field(default_factory=BandwidthProfile)
    num_stripes: int = 100

    def __post_init__(self) -> None:
        if self.k + self.m > sum(self.rack_sizes):
            raise ConfigurationError(
                f"{self.name}: stripe width {self.k + self.m} exceeds "
                f"{sum(self.rack_sizes)} nodes"
            )

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return sum(self.rack_sizes)

    @property
    def num_racks(self) -> int:
        """Rack count (the paper's ``r``)."""
        return len(self.rack_sizes)

    def topology(self) -> ClusterTopology:
        """Fresh topology for this config."""
        return ClusterTopology.from_rack_sizes(
            self.rack_sizes, bandwidth=self.bandwidth
        )

    def code(self) -> RSCode:
        """The config's RS code."""
        return RSCode(self.k, self.m)


#: Table II row 1: 3 racks (4/3/3 nodes), (k=4, m=3).
CFS1 = CFSConfig(name="CFS1", rack_sizes=(4, 3, 3), k=4, m=3)
#: Table II row 2: 4 racks (4/3/3/3), (k=6, m=3) — Google Colossus' code.
CFS2 = CFSConfig(name="CFS2", rack_sizes=(4, 3, 3, 3), k=6, m=3)
#: Table II row 3: 5 racks (6/4/5/3/2), (k=10, m=4) — Facebook HDFS-RAID.
CFS3 = CFSConfig(name="CFS3", rack_sizes=(6, 4, 5, 3, 2), k=10, m=4)

#: All three settings, evaluation order.
ALL_CFS: tuple[CFSConfig, ...] = (CFS1, CFS2, CFS3)


def config_by_name(config: str | CFSConfig) -> CFSConfig:
    """The Table II setting called ``config`` (a config passes through).

    Raises:
        ConfigurationError: no setting has that name.
    """
    if isinstance(config, CFSConfig):
        return config
    for known in ALL_CFS:
        if known.name == config:
            return known
    raise ConfigurationError(
        f"unknown config {config!r} "
        f"(expected one of {[c.name for c in ALL_CFS]})"
    )


def build_state(
    config: CFSConfig,
    seed: int,
    with_data: bool = False,
    chunk_size: int = 4096,
    num_stripes: int | None = None,
    placement_policy: str = "random",
) -> ClusterState:
    """Construct a cluster state per the paper's methodology.

    Args:
        config: which CFS setting.
        seed: placement RNG seed (one seed per experiment run).
        with_data: materialise real chunk bytes (needed only when the
            experiment executes and verifies reconstructions).
        chunk_size: byte size for the data store when ``with_data``.
        num_stripes: override the config's stripe count.
        placement_policy: ``"random"`` (the paper's methodology) or
            ``"rack_aligned"`` (the deterministic chunk -> rack layout
            rack-aware regenerating strategies assume).
    """
    stripes = num_stripes if num_stripes is not None else config.num_stripes
    topology = config.topology()
    code = config.code()
    if placement_policy == "random":
        policy = RandomPlacementPolicy(rng=random.Random(seed))
    elif placement_policy == "rack_aligned":
        policy = RackAlignedPlacementPolicy(rng=random.Random(seed))
    else:
        raise ConfigurationError(
            f"unknown placement policy {placement_policy!r} "
            f"(expected 'random' or 'rack_aligned')"
        )
    placement = policy.place(topology, stripes, config.k, config.m)
    data = (
        DataStore(code, stripes, chunk_size=chunk_size, seed=seed)
        if with_data
        else None
    )
    return ClusterState(topology, code, placement, data)
