"""Tests for whole-rack failure recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterState,
    ClusterTopology,
    DataStore,
    RandomPlacementPolicy,
)
from repro.cluster.placement import Placement
from repro.erasure import RSCode
from repro.errors import NoValidSolutionError
from repro.recovery.rackfail import RackRecovery


def make_state(seed=0, stripes=12, k=6, m=3, racks=(4, 3, 3, 3)):
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes(list(racks))
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    data = DataStore(code, stripes, chunk_size=128, seed=seed)
    return ClusterState(topo, code, placement, data)


class TestSolve:
    def test_every_rack_recoverable(self):
        """The placement constraint's whole purpose."""
        state = make_state(seed=1)
        recovery = RackRecovery(state)
        for rack in range(state.topology.num_racks):
            solution = recovery.solve(rack)
            for s in solution.stripes:
                assert s.helper_count == state.code.k
                assert rack not in s.racks_accessed

    def test_lost_chunks_bounded_by_m(self):
        state = make_state(seed=2)
        solution = RackRecovery(state).solve(0)
        for s in solution.stripes:
            assert 1 <= len(s.lost_chunks) <= state.code.m

    def test_replacements_valid(self):
        state = make_state(seed=3)
        solution = RackRecovery(state).solve(1)
        for s in solution.stripes:
            layout = state.placement.stripe_layout(s.stripe_id)
            for lost, node in s.replacements.items():
                assert state.topology.rack_of(node) != 1
                assert node not in layout.values()
            # Replacement nodes are pairwise distinct within a stripe.
            assert len(set(s.replacements.values())) == len(s.replacements)

    def test_min_rack_count(self):
        """The rack set is a greedy minimum: removing its smallest rack
        leaves fewer than k helpers."""
        state = make_state(seed=4)
        solution = RackRecovery(state).solve(2)
        for s in solution.stripes:
            sizes = sorted(
                (len(v) for v in s.helpers_by_rack.values()), reverse=True
            )
            if len(sizes) > 1:
                assert sum(sizes[:-1]) < state.code.k

    def test_flat_placement_can_fail(self):
        """Without the rack constraint, rack loss can be unrecoverable."""
        code = RSCode(6, 3)
        topo = ClusterTopology.from_rack_sizes([8, 3, 2])
        # Five chunks in rack 0 leave four survivors, fewer than k.
        placement = Placement(topo, 6, 3, [[0, 1, 2, 3, 4, 8, 9, 11, 12]])
        state = ClusterState(
            topo, code, placement, DataStore(code, 1, chunk_size=128, seed=0)
        )
        with pytest.raises(NoValidSolutionError):
            RackRecovery(state).solve(0)


class TestTraffic:
    def test_aggregation_saves(self):
        state = make_state(seed=5)
        solution = RackRecovery(state).solve(0)
        agg = solution.total_cross_rack_chunks(aggregated=True)
        direct = solution.total_cross_rack_chunks(aggregated=False)
        assert agg < direct

    def test_aggregated_traffic_formula(self):
        state = make_state(seed=6)
        solution = RackRecovery(state).solve(1)
        expected = sum(
            len(s.racks_accessed) * len(s.lost_chunks)
            for s in solution.stripes
        )
        assert solution.total_cross_rack_chunks(True) == expected

    def test_lost_chunk_count(self):
        state = make_state(seed=7)
        solution = RackRecovery(state).solve(0)
        expected = sum(
            state.placement.rack_chunk_count(0, s)
            for s in range(state.placement.num_stripes)
        )
        assert solution.lost_chunk_count == expected


class TestExecute:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 200))
    def test_byte_exact_for_every_rack(self, seed):
        state = make_state(seed=seed, stripes=8)
        recovery = RackRecovery(state)
        for rack in range(state.topology.num_racks):
            solution = recovery.solve(rack)
            assert recovery.execute(solution), (seed, rack)

    def test_execute_requires_data(self):
        code = RSCode(4, 2)
        topo = ClusterTopology.from_rack_sizes([3, 3, 3])
        placement = RandomPlacementPolicy(rng=0).place(topo, 3, 4, 2)
        state = ClusterState(topo, code, placement)
        recovery = RackRecovery(state)
        solution = recovery.solve(0)
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError):
            recovery.execute(solution)
