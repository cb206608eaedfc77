"""Tests for JSON serialization of experiment artefacts."""

import json

import pytest

from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.errors import ConfigurationError, PlacementError
from repro.io import (
    load_json,
    placement_from_dict,
    placement_to_dict,
    save_json,
    topology_from_dict,
    topology_to_dict,
    trace_from_dict,
    trace_to_dict,
    traffic_report_to_dict,
)
from repro.workloads.traces import FailureTraceGenerator


class TestTopology:
    def test_roundtrip_default_bandwidth(self):
        topo = ClusterTopology.from_rack_sizes([4, 3, 3])
        back = topology_from_dict(topology_to_dict(topo))
        assert back.rack_sizes() == topo.rack_sizes()
        assert back.bandwidth == topo.bandwidth

    def test_roundtrip_finite_core(self):
        topo = ClusterTopology.from_rack_sizes(
            [2, 2],
            bandwidth=BandwidthProfile(
                node_nic_gbps=10, rack_uplink_gbps=2.5, core_gbps=40
            ),
        )
        back = topology_from_dict(topology_to_dict(topo))
        assert back.bandwidth.core_gbps == 40

    def test_infinite_core_round_trips_as_null(self):
        topo = ClusterTopology.from_rack_sizes([2, 2])
        data = topology_to_dict(topo)
        assert data["bandwidth"]["core_gbps"] is None
        assert topology_from_dict(data).bandwidth.core_gbps == float("inf")

    def test_per_rack_uplinks_round_trip(self):
        topo = ClusterTopology.from_rack_sizes(
            [2, 2, 2],
            bandwidth=BandwidthProfile(per_rack_uplink_gbps=(1.0, 0.5, 2.0)),
        )
        back = topology_from_dict(json.loads(json.dumps(topology_to_dict(topo))))
        assert back.bandwidth.per_rack_uplink_gbps == (1.0, 0.5, 2.0)
        assert back.bandwidth == topo.bandwidth

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            topology_from_dict({"kind": "placement"})

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError):
            topology_from_dict({"kind": "topology", "rack_sizes": [2]})


class TestPlacement:
    def test_roundtrip(self):
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=5).place(topo, 6, 6, 3)
        back = placement_from_dict(placement_to_dict(placement))
        assert dict(back.iter_chunks()) == dict(placement.iter_chunks())
        assert (back.k, back.m) == (6, 3)
        assert back.is_rack_fault_tolerant()

    def test_json_serializable(self, tmp_path):
        topo = ClusterTopology.from_rack_sizes([3, 3, 3])
        placement = RandomPlacementPolicy(rng=1).place(topo, 2, 3, 2)
        text = json.dumps(placement_to_dict(placement))
        back = placement_from_dict(json.loads(text))
        assert dict(back.iter_chunks()) == dict(placement.iter_chunks())

    def test_tampered_assignment_revalidated(self):
        topo = ClusterTopology.from_rack_sizes([3, 3, 3])
        placement = RandomPlacementPolicy(rng=1).place(topo, 1, 3, 2)
        data = placement_to_dict(placement)
        data["assignment"] = data["assignment"][:-1]  # drop a chunk
        with pytest.raises(PlacementError):
            placement_from_dict(data)

    def test_repeated_entry_rejected(self):
        """A repeated ``(stripe, chunk)`` entry used to overwrite the
        first one silently."""
        topo = ClusterTopology.from_rack_sizes([2, 2, 2])
        placement = RandomPlacementPolicy(rng=1).place(topo, 1, 2, 2)
        data = placement_to_dict(placement)
        spare = min(set(range(6)) - set(placement.stripe_layout(0).values()))
        data["assignment"].append([0, 3, spare])
        with pytest.raises(PlacementError):
            placement_from_dict(data)

    def test_node_outside_topology_rejected(self):
        topo = ClusterTopology.from_rack_sizes([2, 2, 2])
        placement = RandomPlacementPolicy(rng=1).place(topo, 1, 2, 2)
        data = placement_to_dict(placement)
        data["assignment"][3] = [0, 3, 17]
        with pytest.raises(PlacementError):
            placement_from_dict(data)


class TestTrace:
    def test_roundtrip(self):
        trace = FailureTraceGenerator(5, mtbf_hours=50, seed=3).generate(300)
        back = trace_from_dict(trace_to_dict(trace))
        assert back.events == trace.events
        assert back.horizon_hours == trace.horizon_hours

    def test_wrong_kind(self):
        with pytest.raises(ConfigurationError):
            trace_from_dict({"kind": "topology"})


class TestFiles:
    def test_save_load(self, tmp_path):
        topo = ClusterTopology.from_rack_sizes([2, 2, 2])
        path = tmp_path / "topo.json"
        save_json(path, topology_to_dict(topo))
        back = topology_from_dict(load_json(path))
        assert back.rack_sizes() == (2, 2, 2)


class TestReportExport:
    def test_traffic_report_export(self):
        from repro.recovery.metrics import TrafficReport

        report = TrafficReport(
            strategy="CAR",
            chunk_size_bytes=1024,
            per_rack_chunks=(0, 2, 1),
            failed_rack=0,
            lambda_rate=1.33,
            num_stripes=3,
        )
        data = traffic_report_to_dict(report)
        assert data["total_bytes"] == 3 * 1024
        assert data["per_rack_chunks"] == [0, 2, 1]
        import json

        json.dumps(data)  # must be JSON-clean
