"""Tests for recovery strategies (CAR, RR, ablations, enumeration)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import ClusterTopology
from repro.erasure.rs import RSCode
from repro.errors import NoValidSolutionError, RecoveryError
from repro.recovery.baselines import (
    CarStrategy,
    EnumerationBalancedStrategy,
    MinRackNoAggregationStrategy,
    RandomAggregatedStrategy,
    RandomRecoveryStrategy,
)
from repro.recovery.selector import racks_needed


def failed_cluster(seed=0, stripes=20, racks=(4, 3, 3, 3), k=6, m=3):
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes(list(racks))
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    state = ClusterState(topo, code, placement)
    FailureInjector(rng=seed).fail_random_node(state)
    return state


class TestCarStrategy:
    def test_solution_is_aggregated(self):
        state = failed_cluster()
        sol = CarStrategy().solve(state)
        assert sol.aggregated

    def test_traffic_equals_sum_of_min_racks(self):
        """With aggregation, CAR's total cross-rack traffic is exactly
        the sum of the per-stripe minimum rack counts d_j."""
        state = failed_cluster(seed=4)
        sol = CarStrategy().solve(state)
        expected = int(
            racks_needed(state.failure_columns(), state.code.k).sum()
        )
        assert sol.total_cross_rack_traffic() == expected

    def test_load_balancing_improves_or_keeps_lambda(self):
        state = failed_cluster(seed=5, stripes=40)
        with_lb = CarStrategy(load_balance=True).solve(state)
        without = CarStrategy(load_balance=False).solve(state)
        assert (
            with_lb.load_balancing_rate()
            <= without.load_balancing_rate() + 1e-12
        )

    def test_trace_available(self):
        state = failed_cluster()
        strategy = CarStrategy(load_balance=True)
        strategy.solve(state)
        assert strategy.last_trace is not None
        assert strategy.last_trace.lambdas

    def test_nolb_trace_single_point(self):
        state = failed_cluster()
        strategy = CarStrategy(load_balance=False)
        sol = strategy.solve(state)
        assert strategy.last_trace.lambdas == [sol.load_balancing_rate()]

    def test_name(self):
        assert CarStrategy().name == "CAR"
        assert CarStrategy(load_balance=False).name == "CAR-noLB"

    def test_no_failure_raises(self):
        state = failed_cluster()
        state.heal()
        with pytest.raises(Exception):
            CarStrategy().solve(state)


class TestRandomRecovery:
    def test_solution_not_aggregated(self):
        state = failed_cluster()
        assert not RandomRecoveryStrategy(rng=1).solve(state).aggregated

    def test_each_stripe_uses_k_helpers(self):
        state = failed_cluster()
        sol = RandomRecoveryStrategy(rng=1).solve(state)
        for s in sol.solutions:
            assert s.helper_count == state.code.k

    def test_reproducible_by_seed(self):
        state = failed_cluster()
        a = RandomRecoveryStrategy(rng=9).solve(state)
        b = RandomRecoveryStrategy(rng=9).solve(state)
        assert a.traffic_by_rack() == b.traffic_by_rack()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 300))
    def test_car_never_ships_more_than_rr(self, seed):
        """The paper's headline: CAR <= RR in cross-rack traffic, always
        (CAR is the minimum by Theorem 1 + aggregation)."""
        state = failed_cluster(seed=seed)
        car = CarStrategy().solve(state)
        rr = RandomRecoveryStrategy(rng=seed).solve(state)
        assert (
            car.total_cross_rack_traffic() <= rr.total_cross_rack_traffic()
        )


class TestAblations:
    def test_minrack_noagg_between_rr_and_car(self):
        state = failed_cluster(seed=7, stripes=50)
        car = CarStrategy().solve(state).total_cross_rack_traffic()
        mid = MinRackNoAggregationStrategy().solve(state)
        rr = RandomRecoveryStrategy(rng=7).solve(state)
        assert not mid.aggregated
        assert car <= mid.total_cross_rack_traffic()

    def test_random_agg_between_rr_and_car(self):
        state = failed_cluster(seed=8, stripes=50)
        car = CarStrategy().solve(state).total_cross_rack_traffic()
        ragg = RandomAggregatedStrategy(rng=8).solve(state)
        rr = RandomRecoveryStrategy(rng=8).solve(state)
        assert ragg.aggregated
        assert car <= ragg.total_cross_rack_traffic()
        assert (
            ragg.total_cross_rack_traffic() <= rr.total_cross_rack_traffic()
        )


class TestEnumeration:
    def test_optimal_lambda_never_above_greedy(self):
        state = failed_cluster(seed=2, stripes=5)
        greedy = CarStrategy().solve(state)
        optimal = EnumerationBalancedStrategy().solve(state)
        assert (
            optimal.load_balancing_rate()
            <= greedy.load_balancing_rate() + 1e-12
        )

    def test_same_total_traffic_as_greedy(self):
        state = failed_cluster(seed=2, stripes=5)
        greedy = CarStrategy().solve(state)
        optimal = EnumerationBalancedStrategy().solve(state)
        assert (
            optimal.total_cross_rack_traffic()
            == greedy.total_cross_rack_traffic()
        )

    def test_budget_guard(self):
        state = failed_cluster(seed=3, stripes=40)
        strategy = EnumerationBalancedStrategy(max_combinations=2)
        try:
            strategy.solve(state)
        except RecoveryError:
            return
        # If the space happened to be tiny, the count must respect it.
        assert strategy.combinations_tried <= 2
