"""Tests for per-rack uplink overrides in the fabric."""

import pytest

from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.errors import ConfigurationError
from repro.network.links import FabricModel, gbps_to_bytes_per_s


class TestProfileOverrides:
    def test_uplink_for_default(self):
        bw = BandwidthProfile(rack_uplink_gbps=2.0)
        assert bw.uplink_for(0) == 2.0
        assert bw.uplink_for(7) == 2.0

    def test_uplink_for_override(self):
        bw = BandwidthProfile(
            rack_uplink_gbps=1.0, per_rack_uplink_gbps=(1.0, 0.25, 1.0)
        )
        assert bw.uplink_for(1) == 0.25
        assert bw.uplink_for(2) == 1.0

    def test_nonpositive_override_rejected(self):
        with pytest.raises(ConfigurationError):
            BandwidthProfile(per_rack_uplink_gbps=(1.0, 0.0))

    def test_list_coerced_to_tuple(self):
        bw = BandwidthProfile(per_rack_uplink_gbps=[2.0, 3.0])
        assert bw.per_rack_uplink_gbps == (2.0, 3.0)


class TestFabricHeterogeneity:
    def test_fabric_uses_overrides(self):
        topo = ClusterTopology.from_rack_sizes(
            [2, 2, 2],
            bandwidth=BandwidthProfile(
                node_nic_gbps=1.0,
                rack_uplink_gbps=1.0,
                per_rack_uplink_gbps=(1.0, 0.25, 0.5),
            ),
        )
        fabric = FabricModel(topo)
        assert fabric.rack_uplink(0).capacity == gbps_to_bytes_per_s(1.0)
        assert fabric.rack_uplink(1).capacity == gbps_to_bytes_per_s(0.25)
        assert fabric.rack_uplink(2).capacity == gbps_to_bytes_per_s(0.5)

    def test_slow_uplink_slows_cross_rack_flow(self):
        from repro.network.flow import flow_task
        from repro.network.simulator import FluidNetworkSimulator

        topo = ClusterTopology.from_rack_sizes(
            [2, 2],
            bandwidth=BandwidthProfile(
                node_nic_gbps=1.0, per_rack_uplink_gbps=(0.25, 1.0)
            ),
        )
        fabric = FabricModel(topo)
        sim = FluidNetworkSimulator(fabric)
        nic = gbps_to_bytes_per_s(1.0)
        # Out of the slow rack: bottleneck is the 0.25 Gb/s uplink.
        out_slow = sim.run([flow_task("a", fabric.path(0, 2), nic)])
        assert out_slow.makespan == pytest.approx(4.0)
        # Into the slow rack: its downlink is also 0.25 Gb/s.
        into_slow = sim.run([flow_task("b", fabric.path(2, 0), nic)])
        assert into_slow.makespan == pytest.approx(4.0)
