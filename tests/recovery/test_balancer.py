"""Tests for the Algorithm 2 greedy load balancer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import ClusterTopology
from repro.erasure.rs import RSCode
from repro.errors import RecoveryError
from repro.recovery.balancer import BalanceTrace, GreedyLoadBalancer
from repro.recovery.selector import CarSelector, racks_needed
from repro.recovery.solution import MultiStripeSolution


def failed_cluster(seed=0, stripes=30, racks=(4, 3, 3, 3), k=6, m=3):
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes(list(racks))
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    state = ClusterState(topo, code, placement)
    from repro.cluster.failure import FailureInjector

    FailureInjector(rng=seed).fail_random_node(state)
    return state


def initial_solution(state):
    selector = CarSelector(state.topology, state.code.k)
    views = state.views()
    return (
        {v.stripe_id: v for v in views},
        MultiStripeSolution(
            [selector.initial_solution(v) for v in views],
            num_racks=state.topology.num_racks,
            aggregated=True,
        ),
        selector,
    )


class TestTrace:
    def test_lambda_after_clamps(self):
        trace = BalanceTrace(lambdas=[1.5, 1.2, 1.0])
        assert trace.lambda_after(0) == 1.5
        assert trace.lambda_after(2) == 1.0
        assert trace.lambda_after(99) == 1.0

    def test_empty_trace_rejected(self):
        with pytest.raises(RecoveryError):
            BalanceTrace().lambda_after(0)

    def test_initial_final(self):
        trace = BalanceTrace(lambdas=[1.5, 1.0])
        assert trace.initial_lambda == 1.5
        assert trace.final_lambda == 1.0


class TestBalancer:
    def test_rejects_unaggregated(self):
        state = failed_cluster()
        views, initial, selector = initial_solution(state)
        direct = MultiStripeSolution(
            initial.solutions, num_racks=initial.num_racks, aggregated=False
        )
        with pytest.raises(RecoveryError):
            GreedyLoadBalancer().balance(views, direct, selector)

    def test_negative_budget_rejected(self):
        with pytest.raises(RecoveryError):
            GreedyLoadBalancer(iterations=-1)

    def test_zero_iterations_is_identity(self):
        state = failed_cluster()
        views, initial, selector = initial_solution(state)
        balanced, trace = GreedyLoadBalancer(iterations=0).balance(
            views, initial, selector
        )
        assert balanced is initial
        assert trace.substitutions == 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500))
    def test_total_traffic_invariant(self, seed):
        """Balancing only moves traffic between racks; the total (and
        therefore the per-stripe minimum d_j) never changes."""
        state = failed_cluster(seed=seed)
        views, initial, selector = initial_solution(state)
        balanced, _ = GreedyLoadBalancer(iterations=50).balance(
            views, initial, selector
        )
        assert (
            balanced.total_cross_rack_traffic()
            == initial.total_cross_rack_traffic()
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500))
    def test_max_rack_traffic_monotone_nonincreasing(self, seed):
        """The paper's Equation 8 guarantee."""
        state = failed_cluster(seed=seed)
        views, initial, selector = initial_solution(state)
        balancer = GreedyLoadBalancer(iterations=1)
        current = initial
        prev_max = max(current.traffic_by_rack())
        for _ in range(20):
            nxt, trace = balancer.balance(views, current, selector)
            cur_max = max(nxt.traffic_by_rack())
            assert cur_max <= prev_max
            if trace.substitutions == 0:
                break
            prev_max = cur_max
            current = nxt

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500))
    def test_lambda_never_worse_than_initial(self, seed):
        state = failed_cluster(seed=seed)
        views, initial, selector = initial_solution(state)
        balanced, trace = GreedyLoadBalancer(iterations=50).balance(
            views, initial, selector
        )
        assert (
            balanced.load_balancing_rate()
            <= initial.load_balancing_rate() + 1e-12
        )
        assert trace.lambdas[0] == pytest.approx(
            initial.load_balancing_rate()
        )
        assert trace.lambdas[-1] == pytest.approx(
            balanced.load_balancing_rate()
        )

    def test_converges_and_reports_iteration(self):
        state = failed_cluster(seed=1, stripes=40)
        views, initial, selector = initial_solution(state)
        balanced, trace = GreedyLoadBalancer(iterations=200).balance(
            views, initial, selector
        )
        assert trace.converged_at is not None
        assert trace.substitutions == trace.converged_at

    def test_per_stripe_solutions_stay_minimal(self):
        state = failed_cluster(seed=2)
        views, initial, selector = initial_solution(state)
        balanced, _ = GreedyLoadBalancer(iterations=50).balance(
            views, initial, selector
        )
        for sol in balanced.solutions:
            row = state.failure_columns(stripes=[sol.stripe_id])
            assert sol.num_intact_racks == racks_needed(row, state.code.k)[0]
            assert sol.helper_count == state.code.k

    def test_missing_view_raises(self):
        state = failed_cluster(seed=3)
        views, initial, selector = initial_solution(state)
        incomplete = {k: v for k, v in list(views.items())[:1]}
        # Only fails if a substitution is attempted on a missing stripe;
        # force many iterations to make it likely, and accept clean
        # convergence otherwise.
        try:
            GreedyLoadBalancer(iterations=50).balance(
                incomplete, initial, selector
            )
        except RecoveryError:
            pass
