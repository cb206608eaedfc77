"""Tests for the balance-aware (warm-start) initialisation ablation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.erasure.rs import RSCode
from repro.recovery.baselines import CarStrategy


def failed_cluster(
    seed=0, stripes=60, racks=(4, 3, 3, 3), k=6, m=3, uplinks=None
):
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes(
        list(racks), bandwidth=BandwidthProfile(per_rack_uplink_gbps=uplinks)
    )
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    state = ClusterState(topo, code, placement)
    FailureInjector(rng=seed).fail_random_node(state)
    return state


class TestWarmStart:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 300))
    def test_same_traffic_as_cold_start(self, seed):
        """Tie-breaking never changes the per-stripe minimum d_j."""
        state = failed_cluster(seed=seed)
        cold = CarStrategy(warm_start=False).solve(state)
        warm = CarStrategy(warm_start=True).solve(state)
        assert (
            warm.total_cross_rack_traffic() == cold.total_cross_rack_traffic()
        )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 300))
    def test_final_lambda_no_worse(self, seed):
        state = failed_cluster(seed=seed)
        cold = CarStrategy(warm_start=False).solve(state)
        warm = CarStrategy(warm_start=True).solve(state)
        # Both converge to near-balanced; warm start must not end worse
        # than cold by more than one substitution's worth of traffic.
        assert warm.load_balancing_rate() <= cold.load_balancing_rate() + 0.1

    def test_fewer_substitutions_on_average(self):
        """The point of the warm start: Algorithm 2 has less to fix."""
        cold_total = warm_total = 0
        for seed in range(10):
            state = failed_cluster(seed=seed)
            cold = CarStrategy(warm_start=False, iterations=200)
            cold.solve(state)
            warm = CarStrategy(warm_start=True, iterations=200)
            warm.solve(state)
            cold_total += cold.last_trace.substitutions
            warm_total += warm.last_trace.substitutions
        assert warm_total < cold_total

    def test_warm_initial_lambda_already_low(self):
        """The warm start's *initial* λ beats the cold start's."""
        improvements = 0
        for seed in range(10):
            state = failed_cluster(seed=seed)
            cold = CarStrategy(warm_start=False)
            cold.solve(state)
            warm = CarStrategy(warm_start=True)
            warm.solve(state)
            if (
                warm.last_trace.initial_lambda
                < cold.last_trace.initial_lambda
            ):
                improvements += 1
        assert improvements >= 7  # strictly better almost always

    def test_warm_start_spares_a_slow_uplink(self):
        """The hint is the balancer's measure, traffic over uplink: the
        initial picks alone already put less on a quarter-speed A2 than
        they do on the uniform twin."""
        picks = CarStrategy(warm_start=True, load_balance=False)
        twin = picks.solve(failed_cluster(seed=1)).traffic_by_rack()
        mixed = picks.solve(
            failed_cluster(seed=1, uplinks=(1.0, 0.25, 1.0, 1.0))
        ).traffic_by_rack()
        assert twin == [0, 30, 29, 29]
        assert mixed[1] < twin[1] and sum(mixed) == sum(twin)

    def test_warm_start_composes_with_history(self):
        state = failed_cluster(seed=5)
        baseline = [10, 0, 0, 0]
        strategy = CarStrategy(
            warm_start=True, baseline_traffic=baseline
        )
        solution = strategy.solve(state)
        assert solution.aggregated
        assert strategy.name == "CAR-history"
