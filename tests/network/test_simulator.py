"""Tests for the max-min fair fluid simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.errors import FlowError, SimulationError
from repro.network.flow import SimTask, flow_task, serial_task
from repro.network.links import FabricModel
from repro.network.simulator import FluidNetworkSimulator, maxmin_rates


@pytest.fixture
def fabric():
    topo = ClusterTopology.from_rack_sizes(
        [2, 2], bandwidth=BandwidthProfile(node_nic_gbps=1.0, rack_uplink_gbps=1.0)
    )
    return FabricModel(topo)


NIC = 125e6  # bytes/s at 1 Gb/s


class TestTaskValidation:
    def test_task_must_be_flow_xor_serial(self):
        with pytest.raises(FlowError):
            SimTask(task_id="x")
        with pytest.raises(FlowError):
            SimTask(task_id="x", path=(0,), size_bytes=1.0, resource=("cpu", 0))

    def test_flow_needs_positive_size(self):
        with pytest.raises(FlowError):
            flow_task("f", [0], 0)

    def test_serial_rejects_negative_duration(self):
        with pytest.raises(FlowError):
            serial_task("s", ("cpu", 0), -1.0)


class TestMaxMin:
    def test_single_flow_gets_full_capacity(self):
        inc = np.array([[True]])
        rates = maxmin_rates(inc, np.array([100.0]), np.ones(1))
        assert rates[0] == 100.0

    def test_two_flows_share_equally(self):
        inc = np.array([[True, True]])
        rates = maxmin_rates(inc, np.array([100.0]), np.ones(2))
        assert list(rates) == [50.0, 50.0]

    def test_classic_maxmin_example(self):
        """Two links: A carries f1, f2; B carries f2, f3.  cap(A)=100,
        cap(B)=300 -> f1=f2=50, f3=250."""
        inc = np.array(
            [
                [True, True, False],
                [False, True, True],
            ]
        )
        rates = maxmin_rates(inc, np.array([100.0, 300.0]), np.ones(3))
        assert rates[0] == pytest.approx(50.0)
        assert rates[1] == pytest.approx(50.0)
        assert rates[2] == pytest.approx(250.0)

    def test_empty(self):
        assert maxmin_rates(
            np.zeros((2, 0), dtype=bool), np.ones(2), np.ones(0)
        ).size == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 1000))
    def test_rates_respect_capacities(self, nlinks, nflows, seed):
        rng = np.random.default_rng(seed)
        inc = rng.random((nlinks, nflows)) < 0.6
        # every flow must traverse at least one link
        for f in range(nflows):
            if not inc[:, f].any():
                inc[rng.integers(nlinks), f] = True
        caps = rng.uniform(1.0, 100.0, nlinks)
        rates = maxmin_rates(inc, caps, np.ones(nflows))
        loads = inc @ rates
        assert (loads <= caps + 1e-6).all()
        assert (rates > 0).all()


class TestSimulation:
    def test_single_flow_duration(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        result = sim.run([flow_task("f", fabric.path(0, 1), NIC)])
        assert result.makespan == pytest.approx(1.0)
        assert result.finish("f") == pytest.approx(1.0)

    def test_two_flows_into_one_sink_serialise(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        tasks = [
            flow_task("a", fabric.path(0, 1), NIC),
            flow_task("b", fabric.path(2, 1), NIC),
        ]
        result = sim.run(tasks)
        # Both share node 1's downlink: 2 * NIC bytes through NIC speed.
        assert result.makespan == pytest.approx(2.0)

    def test_disjoint_flows_run_in_parallel(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        tasks = [
            flow_task("a", fabric.path(0, 1), NIC),
            flow_task("b", fabric.path(2, 3), NIC),
        ]
        assert sim.run(tasks).makespan == pytest.approx(1.0)

    def test_dependency_serialises(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        tasks = [
            flow_task("a", fabric.path(0, 1), NIC),
            flow_task("b", fabric.path(0, 1), NIC, deps=["a"]),
        ]
        result = sim.run(tasks)
        assert result.finish("a") == pytest.approx(1.0)
        assert result.finish("b") == pytest.approx(2.0)

    def test_serial_resource_fifo(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        tasks = [
            serial_task("c1", ("cpu", 0), 1.0),
            serial_task("c2", ("cpu", 0), 1.0),
            serial_task("d1", ("cpu", 1), 0.5),
        ]
        result = sim.run(tasks)
        assert result.finish("d1") == pytest.approx(0.5)
        assert sorted(
            [result.finish("c1"), result.finish("c2")]
        ) == pytest.approx([1.0, 2.0])

    def test_mixed_pipeline(self, fabric):
        """read (serial) -> flow -> compute (serial)."""
        sim = FluidNetworkSimulator(fabric)
        tasks = [
            serial_task("read", ("disk", 0), 0.5),
            flow_task("xfer", fabric.path(0, 1), NIC, deps=["read"]),
            serial_task("dec", ("cpu", 1), 0.25, deps=["xfer"]),
        ]
        result = sim.run(tasks)
        assert result.finish("dec") == pytest.approx(1.75)

    def test_zero_duration_serial(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        result = sim.run([serial_task("z", ("cpu", 0), 0.0)])
        assert result.finish("z") == pytest.approx(0.0)

    def test_busy_time_by_tag(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        tasks = [
            flow_task("a", fabric.path(0, 1), NIC, tag="xfer:intra"),
            serial_task("c", ("cpu", 1), 0.5, deps=["a"], tag="compute:final"),
        ]
        result = sim.run(tasks)
        assert result.busy_time_by_tag["xfer:intra"] == pytest.approx(1.0)
        assert result.busy_time_by_tag["compute:final"] == pytest.approx(0.5)

    def test_link_bytes_recorded(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        path = fabric.path(0, 3)
        result = sim.run([flow_task("a", path, 100.0)])
        for link in path:
            assert result.link_bytes[link] == pytest.approx(100.0)

    def test_duplicate_ids_rejected(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        t = flow_task("a", fabric.path(0, 1), 1.0)
        with pytest.raises(SimulationError):
            sim.run([t, t])

    def test_unknown_dep_rejected(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        with pytest.raises(SimulationError):
            sim.run([flow_task("a", fabric.path(0, 1), 1.0, deps=["nope"])])

    def test_unknown_link_rejected(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        with pytest.raises(FlowError):
            sim.run([flow_task("a", [999], 1.0)])

    def test_dependency_cycle_stalls_cleanly(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        tasks = [
            flow_task("a", fabric.path(0, 1), 1.0, deps=["b"]),
            flow_task("b", fabric.path(0, 1), 1.0, deps=["a"]),
        ]
        with pytest.raises(SimulationError):
            sim.run(tasks)

    def test_finish_unknown_task(self, fabric):
        sim = FluidNetworkSimulator(fabric)
        result = sim.run([serial_task("z", ("cpu", 0), 0.1)])
        with pytest.raises(SimulationError):
            result.finish("missing")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 500))
    def test_makespan_monotone_in_bandwidth(self, seed):
        """Doubling every capacity cannot slow the recovery down."""
        import random

        rng = random.Random(seed)
        slow_topo = ClusterTopology.from_rack_sizes(
            [2, 2, 2],
            bandwidth=BandwidthProfile(node_nic_gbps=1, rack_uplink_gbps=0.5),
        )
        fast_topo = ClusterTopology.from_rack_sizes(
            [2, 2, 2],
            bandwidth=BandwidthProfile(node_nic_gbps=2, rack_uplink_gbps=1.0),
        )
        def tasks_for(fabric):
            tasks = []
            for i in range(8):
                src, dst = rng.sample(range(6), 2)
                tasks.append(
                    flow_task(f"f{i}", fabric.path(src, dst), NIC * rng.uniform(0.5, 2))
                )
            return tasks

        rng_state = rng.getstate()
        slow = FluidNetworkSimulator(FabricModel(slow_topo)).run(
            tasks_for(FabricModel(slow_topo))
        )
        rng.setstate(rng_state)
        fast = FluidNetworkSimulator(FabricModel(fast_topo)).run(
            tasks_for(FabricModel(fast_topo))
        )
        assert fast.makespan <= slow.makespan + 1e-9
