"""Tests for failure injection."""

import random

import pytest

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import ClusterTopology
from repro.errors import NoFailureError


class TestInjector:
    def test_random_failure_hits_nonempty_node(self, small_state):
        injector = FailureInjector(rng=3)
        event = injector.fail_random_node(small_state)
        assert event.lost_chunks
        assert small_state.failed_node == event.failed_node

    def test_reproducible(self, rs63, small_topology):
        events = []
        for _ in range(2):
            placement = RandomPlacementPolicy(rng=1).place(
                small_topology, 10, 6, 3
            )
            state = ClusterState(small_topology, rs63, placement)
            events.append(FailureInjector(rng=42).fail_random_node(state))
        assert events[0].failed_node == events[1].failed_node

    def test_accepts_random_instance(self, small_state):
        injector = FailureInjector(rng=random.Random(0))
        assert injector.fail_random_node(small_state).lost_chunks

    def test_explicit_node(self, small_state):
        injector = FailureInjector()
        event = injector.fail_node(small_state, 2)
        assert event.failed_node == 2

    def test_empty_cluster_rejected(self, rs63, small_topology):
        placement = RandomPlacementPolicy(rng=1).place(small_topology, 0, 6, 3)
        state = ClusterState(small_topology, rs63, placement)
        with pytest.raises(NoFailureError):
            FailureInjector(rng=1).fail_random_node(state)

    def test_candidates_store_chunks(self, small_state):
        injector = FailureInjector()
        for nid in injector.candidate_nodes(small_state):
            assert small_state.placement.chunks_on_node(nid)


class TestRackLossDrill:
    def test_fault_tolerant_placement_survives_any_rack(self, small_state):
        injector = FailureInjector()
        for rack in range(small_state.topology.num_racks):
            assert injector.simulate_rack_loss(small_state, rack)

    def test_flat_placement_can_fail_the_drill(self, rs63):
        from repro.cluster.placement import Placement

        topo = ClusterTopology.from_rack_sizes([8, 2, 2])
        placement = Placement(
            topo,
            6,
            3,
            [[0, 1, 2, 3, 4, 5, 6, 8, 10], [0, 1, 2, 8, 9, 10, 11, 3, 4]],
        )
        state = ClusterState(topo, rs63, placement)
        injector = FailureInjector()
        # Stripe 0 keeps 7 > m chunks in rack 0, so the drill must
        # report non-survival.
        assert not injector.simulate_rack_loss(state, 0)
