"""Property-based tests of the fluid simulator's physical invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.network.flow import flow_task, serial_task
from repro.network.links import FabricModel
from repro.network.simulator import FluidNetworkSimulator, maxmin_rates

NIC = 125e6


def random_workload(rng, fabric, num_nodes, count):
    tasks = []
    for i in range(count):
        src, dst = rng.choice(num_nodes, size=2, replace=False)
        tasks.append(
            flow_task(
                f"f{i}",
                fabric.path(int(src), int(dst)),
                float(rng.uniform(0.1, 2.0)) * NIC,
                tag="xfer",
            )
        )
    return tasks


@st.composite
def fabric_and_flows(draw):
    seed = draw(st.integers(0, 10_000))
    racks = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    uplink = draw(st.sampled_from([0.25, 0.5, 1.0]))
    topo = ClusterTopology.from_rack_sizes(
        racks,
        bandwidth=BandwidthProfile(node_nic_gbps=1.0, rack_uplink_gbps=uplink),
    )
    fabric = FabricModel(topo)
    rng = np.random.default_rng(seed)
    count = draw(st.integers(1, 12))
    return fabric, random_workload(rng, fabric, sum(racks), count)


class TestConservation:
    @settings(max_examples=20, deadline=None)
    @given(fabric_and_flows())
    def test_link_bytes_equal_flow_bytes(self, fw):
        """Every byte a flow carries is accounted on each path link."""
        fabric, tasks = fw
        result = FluidNetworkSimulator(fabric).run(tasks)
        expected: dict[int, float] = {}
        for t in tasks:
            for link in t.path:
                expected[link] = expected.get(link, 0.0) + t.size_bytes
        for link, total in expected.items():
            assert result.link_bytes[link] == pytest.approx(total)

    @settings(max_examples=20, deadline=None)
    @given(fabric_and_flows())
    def test_makespan_at_least_every_bottleneck(self, fw):
        """No link can deliver its bytes faster than its capacity."""
        fabric, tasks = fw
        result = FluidNetworkSimulator(fabric).run(tasks)
        for link_id, nbytes in result.link_bytes.items():
            lower_bound = nbytes / fabric.link(link_id).capacity
            assert result.makespan >= lower_bound - 1e-6

    @settings(max_examples=20, deadline=None)
    @given(fabric_and_flows())
    def test_makespan_at_least_any_single_flow_alone(self, fw):
        """Sharing can only slow a flow down relative to running alone."""
        fabric, tasks = fw
        result = FluidNetworkSimulator(fabric).run(tasks)
        for t in tasks:
            alone = t.size_bytes / min(
                fabric.link(l).capacity for l in t.path
            )
            assert result.finish(t.task_id) >= alone - 1e-6

    @settings(max_examples=20, deadline=None)
    @given(fabric_and_flows())
    def test_all_flows_finish(self, fw):
        fabric, tasks = fw
        result = FluidNetworkSimulator(fabric).run(tasks)
        assert set(result.finish_times) == {t.task_id for t in tasks}
        assert result.makespan == pytest.approx(
            max(result.finish_times.values())
        )


class TestMaxMinProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(2, 6))
    def test_pareto_optimality_of_waterfilling(self, seed, nlinks, nflows):
        """No flow's rate can rise without another's falling: every flow
        crosses at least one saturated link."""
        rng = np.random.default_rng(seed)
        inc = rng.random((nlinks, nflows)) < 0.5
        for f in range(nflows):
            if not inc[:, f].any():
                inc[rng.integers(nlinks), f] = True
        caps = rng.uniform(1.0, 100.0, nlinks)
        rates = maxmin_rates(inc, caps, np.ones(nflows))
        loads = inc.astype(float) @ rates
        saturated = np.abs(loads - caps) < 1e-6
        for f in range(nflows):
            assert saturated[inc[:, f]].any(), f

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equal_flows_get_equal_rates(self, seed):
        """Flows with identical paths receive identical rates."""
        rng = np.random.default_rng(seed)
        nlinks = 5
        path = rng.random(nlinks) < 0.6
        if not path.any():
            path[0] = True
        inc = np.column_stack([path, path, path])
        caps = rng.uniform(1.0, 50.0, nlinks)
        rates = maxmin_rates(inc, caps, np.ones(3))
        assert rates[0] == pytest.approx(rates[1])
        assert rates[1] == pytest.approx(rates[2])


class TestSerialResourceProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.floats(0.01, 2.0), min_size=1, max_size=8),
        st.integers(0, 100),
    )
    def test_single_resource_serializes_exactly(self, durations, seed):
        topo = ClusterTopology.from_rack_sizes([2, 2])
        fabric = FabricModel(topo)
        tasks = [
            serial_task(f"c{i}", ("cpu", 0), d)
            for i, d in enumerate(durations)
        ]
        result = FluidNetworkSimulator(fabric).run(tasks)
        assert result.makespan == pytest.approx(sum(durations), rel=1e-9)
