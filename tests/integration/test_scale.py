"""Scale sanity: CAR on clusters larger than the paper's testbed.

The paper's complexity claim — Algorithm 2 is O(e * r * s) — implies
CAR stays cheap as clusters and stripe counts grow.  These tests run a
60-node, 10-rack cluster with 500 stripes (5x the paper's workload) and
bound the planning wall-clock, plus a GF(2^16) wide-stripe pipeline.
"""

import time

import pytest

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.erasure.rs import RSCode
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.executor import PlanExecutor
from repro.recovery.planner import plan_recovery
from repro.recovery.selector import racks_needed


@pytest.fixture(scope="module")
def big_cluster():
    code = RSCode(12, 4)
    topo = ClusterTopology.from_rack_sizes([6] * 10)
    placement = RandomPlacementPolicy(rng=99).place(topo, 500, 12, 4)
    state = ClusterState(topo, code, placement)
    FailureInjector(rng=99).fail_random_node(state)
    return state


class TestBigCluster:
    def test_car_solves_quickly(self, big_cluster):
        start = time.monotonic()
        solution = CarStrategy(iterations=100).solve(big_cluster)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0  # planning, not data movement
        assert solution.total_cross_rack_traffic() == int(
            racks_needed(big_cluster.failure_columns(), 12).sum()
        )

    def test_traffic_savings_hold_at_scale(self, big_cluster):
        car = CarStrategy().solve(big_cluster)
        rr = RandomRecoveryStrategy(rng=1).solve(big_cluster)
        saving = 1 - car.total_cross_rack_traffic() / rr.total_cross_rack_traffic()
        assert saving > 0.5  # k=12 over 10 racks: aggregation bites hard

    def test_lambda_near_one_at_scale(self, big_cluster):
        solution = CarStrategy(iterations=200).solve(big_cluster)
        assert solution.load_balancing_rate() < 1.1

    def test_placement_constraints_at_scale(self, big_cluster):
        assert big_cluster.placement.is_rack_fault_tolerant()


class TestWideStripeGF16:
    def test_wide_stripe_end_to_end(self):
        """A 30-chunk stripe needs GF(2^16)-capable plumbing throughout."""
        code = RSCode(24, 6, w=16)
        topo = ClusterTopology.from_rack_sizes([6] * 6)
        placement = RandomPlacementPolicy(rng=5).place(topo, 5, 24, 6)
        data = DataStore(code, 5, chunk_size=128, seed=5)
        state = ClusterState(topo, code, placement, data)
        event = FailureInjector(rng=5).fail_random_node(state)
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        assert PlanExecutor(state).execute(plan, solution).verified
