"""Tests for cluster expansion and storage rebalancing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.rebalance import Rebalancer
from repro.cluster.topology import ClusterTopology
from repro.errors import ClusterError


def loads(topology, placement):
    return [
        len(placement.chunks_on_node(n.node_id)) for n in topology.nodes
    ]


class TestWithExtraNode:
    def test_ids_are_stable(self):
        topo = ClusterTopology.from_rack_sizes([3, 3])
        grown = topo.with_extra_node(0)
        assert grown.num_nodes == 7
        assert grown.rack_sizes() == (4, 3)
        # Existing ids keep their racks.
        for nid in range(6):
            assert grown.rack_of(nid) == topo.rack_of(nid)
        assert grown.rack_of(6) == 0
        assert grown.node(6).index_in_rack == 3

    def test_old_placement_valid_on_grown_topology(self):
        topo = ClusterTopology.from_rack_sizes([4, 3, 3])
        placement = RandomPlacementPolicy(rng=1).place(topo, 10, 4, 3)
        grown = topo.with_extra_node(1)
        from repro.cluster.placement import Placement

        migrated = Placement(grown, 4, 3, placement.node_table())
        assert migrated.is_rack_fault_tolerant()


class TestRebalancer:
    def make(self, seed=1, stripes=30):
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, 6, 3)
        grown = topo.with_extra_node(2)
        from repro.cluster.placement import Placement

        placement = Placement(grown, 6, 3, placement.node_table())
        return grown, placement

    def test_new_node_receives_chunks(self):
        grown, placement = self.make()
        new_node = grown.num_nodes - 1
        assert not placement.chunks_on_node(new_node)
        rebalancer = Rebalancer(grown)
        plan = rebalancer.plan(placement)
        after = rebalancer.apply(placement, plan)
        assert after.chunks_on_node(new_node)

    def test_load_spread_reaches_tolerance(self):
        grown, placement = self.make()
        rebalancer = Rebalancer(grown, tolerance=1)
        after = rebalancer.apply(placement, rebalancer.plan(placement))
        counts = loads(grown, after)
        assert max(counts) - min(counts) <= 1

    def test_constraints_preserved(self):
        grown, placement = self.make(seed=2)
        rebalancer = Rebalancer(grown)
        after = rebalancer.apply(placement, rebalancer.plan(placement))
        # Placement's constructor re-validates one-chunk-per-node; check
        # the rack cap explicitly.
        assert after.is_rack_fault_tolerant()

    def test_intra_rack_moves_preferred(self):
        """A same-rack imbalance is fixed without touching the core."""
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=3).place(topo, 30, 6, 3)
        grown = topo.with_extra_node(0)  # new node in the big rack
        from repro.cluster.placement import Placement

        placement = Placement(grown, 6, 3, placement.node_table())
        plan = Rebalancer(grown).plan(placement)
        assert plan.total_moves > 0
        # Donors in rack 0 exist, so at least some moves stay in-rack.
        assert plan.intra_rack_moves > 0

    def test_total_chunk_count_invariant(self):
        grown, placement = self.make(seed=4)
        rebalancer = Rebalancer(grown)
        after = rebalancer.apply(placement, rebalancer.plan(placement))
        assert sum(loads(grown, after)) == sum(loads(grown, placement))

    def test_stale_plan_rejected(self):
        grown, placement = self.make(seed=5)
        rebalancer = Rebalancer(grown)
        plan = rebalancer.plan(placement)
        if not plan.moves:
            pytest.skip("already balanced")
        after = rebalancer.apply(placement, plan)
        with pytest.raises(ClusterError):
            rebalancer.apply(after, plan)  # chunks already moved

    def test_invalid_tolerance(self):
        grown, _ = self.make()
        with pytest.raises(ClusterError):
            Rebalancer(grown, tolerance=0)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 500))
    def test_rebalanced_cluster_still_recovers(self, seed):
        """End to end: expand, rebalance, fail a node, recover, verify."""
        from repro.cluster.state import ClusterState, DataStore
        from repro.cluster.failure import FailureInjector
        from repro.erasure import RSCode
        from repro.recovery import CarStrategy, PlanExecutor, plan_recovery

        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=seed).place(topo, 10, 6, 3)
        grown = topo.with_extra_node(seed % 4)
        from repro.cluster.placement import Placement

        placement = Placement(grown, 6, 3, placement.node_table())
        rebalancer = Rebalancer(grown)
        placement = rebalancer.apply(placement, rebalancer.plan(placement))

        code = RSCode(6, 3)
        data = DataStore(code, 10, chunk_size=128, seed=seed)
        state = ClusterState(grown, code, placement, data)
        event = FailureInjector(rng=seed).fail_random_node(state)
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        assert PlanExecutor(state).execute(plan, solution).verified


class TestWithExtraNodeValidation:
    def test_invalid_rack_rejected(self):
        from repro.errors import UnknownNodeError

        topo = ClusterTopology.from_rack_sizes([2, 2])
        with pytest.raises(UnknownNodeError):
            topo.with_extra_node(5)

    def test_repeated_growth(self):
        topo = ClusterTopology.from_rack_sizes([2])
        for i in range(3):
            topo = topo.with_extra_node(0)
        assert topo.rack_sizes() == (5,)
        assert [n.node_id for n in topo.nodes] == [0, 1, 2, 3, 4]
