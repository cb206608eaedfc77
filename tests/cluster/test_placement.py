"""Tests for chunk placement policies, including rack fault tolerance."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import Placement, RandomPlacementPolicy
from repro.cluster.topology import ClusterTopology
from repro.errors import ConfigurationError, PlacementError
from repro.io import placement_from_dict, placement_to_dict


@pytest.fixture
def topo():
    return ClusterTopology.from_rack_sizes([4, 3, 3, 3])


class TestPlacementObject:
    def test_queries(self, topo):
        placement = Placement(
            topo, 4, 3, [[0, 1, 2, 4, 5, 6, 7], [8, 9, 10, 11, 12, 3, 0]]
        )
        assert placement.num_stripes == 2
        layout = placement.stripe_layout(0)
        assert layout == {0: 0, 1: 1, 2: 2, 3: 4, 4: 5, 5: 6, 6: 7}
        node = placement.node_of(0, 0)
        assert placement.chunks_on_node(node) == ((0, 0), (1, 6))
        assert placement.rack_of_chunk(0, 0) == topo.rack_of(node)
        assert placement.rack_counts(1) == [2, 0, 2, 3]
        assert placement.rack_chunk_count(3, 1) == 3
        assert placement.max_rack_colocation() == 3

    def test_rack_counts_sum_to_stripe_width(self, topo):
        placement = RandomPlacementPolicy(rng=5).place(topo, 5, 6, 3)
        for s in range(5):
            assert sum(placement.rack_counts(s)) == 9

    def test_missing_chunk_raises(self, topo):
        placement = Placement(topo, 4, 3, [[0, 1, 2, 4, 5, 6, 7]])
        with pytest.raises(PlacementError):
            placement.node_of(0, 7)
        with pytest.raises(PlacementError):
            placement.node_of(5, 0)

    def test_incomplete_stripe_rejected(self, topo):
        with pytest.raises(PlacementError):
            Placement(topo, 2, 1, [[0, 1]])  # missing chunk 2

    def test_colocated_chunks_rejected(self, topo):
        with pytest.raises(PlacementError):
            Placement(topo, 1, 1, [[0, 0]])

    def test_node_outside_topology_rejected(self):
        """A chunk on node -1 used to be counted alive in the last rack."""
        topo = ClusterTopology.from_rack_sizes([2, 2, 2])
        for node in (-1, 6, 17):
            with pytest.raises(PlacementError):
                Placement(topo, 2, 2, [[0, 2, 4, node]])

    def test_sparse_stripe_ids_rejected(self, topo):
        """A table's stripe ids are its row numbers, so only a keyed
        layout can skip one; loading it refuses the missing stripe 0."""
        data = placement_to_dict(Placement(topo, 2, 1, [[0, 1, 2]]))
        data["assignment"] = [[1, c, node] for _, c, node in data["assignment"]]
        with pytest.raises(PlacementError):
            placement_from_dict(data)

    def test_iter_chunks(self, topo):
        placement = Placement(topo, 2, 1, [[4, 0, 8]])
        assert list(placement.iter_chunks()) == [
            ((0, 0), 4), ((0, 1), 0), ((0, 2), 8)
        ]


class TestRandomPolicy:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_always_rack_fault_tolerant(self, seed):
        """The paper's constraint: c_{i,j} <= m for every rack and stripe."""
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=seed).place(topo, 10, 6, 3)
        assert placement.is_rack_fault_tolerant()
        assert placement.max_rack_colocation() <= 3

    def test_accepts_random_instance(self, topo):
        policy = RandomPlacementPolicy(rng=random.Random(1))
        assert policy.place(topo, 1, 4, 3).num_stripes == 1

    def test_reproducible(self, topo):
        a = RandomPlacementPolicy(rng=7).place(topo, 5, 6, 3)
        b = RandomPlacementPolicy(rng=7).place(topo, 5, 6, 3)
        assert dict(a.iter_chunks()) == dict(b.iter_chunks())

    def test_stripe_too_wide_rejected(self, topo):
        with pytest.raises(PlacementError):
            RandomPlacementPolicy(rng=1).place(topo, 1, 12, 3)

    def test_infeasible_rack_constraint_rejected(self):
        # 2 racks, per-rack cap m=2, stripe width 6 > 2*2.
        topo = ClusterTopology.from_rack_sizes([5, 5])
        with pytest.raises(PlacementError):
            RandomPlacementPolicy(rng=1).place(topo, 1, 4, 2)

    def test_rack_tolerance_two(self):
        """rho=2: per-rack cap m//2 so any two racks can fail."""
        topo = ClusterTopology.from_rack_sizes([3, 3, 3, 3, 3])
        policy = RandomPlacementPolicy(rng=3, rack_tolerance=2)
        placement = policy.place(topo, 5, 4, 4)
        assert placement.max_rack_colocation() <= 2

    def test_rack_tolerance_infeasible(self):
        topo = ClusterTopology.from_rack_sizes([3, 3, 3])
        policy = RandomPlacementPolicy(rng=3, rack_tolerance=4)
        with pytest.raises(PlacementError):
            policy.place(topo, 1, 2, 2)

    def test_invalid_rack_tolerance(self):
        with pytest.raises(ConfigurationError):
            RandomPlacementPolicy(rack_tolerance=0)

    def test_constructive_fallback(self):
        """With max_attempts=0 sampling never succeeds; the constructive
        path must still produce a valid fault-tolerant placement."""
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        policy = RandomPlacementPolicy(rng=2, max_attempts=0)
        placement = policy.place(topo, 10, 6, 3)
        assert placement.is_rack_fault_tolerant()
