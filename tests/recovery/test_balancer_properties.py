"""Property-based checks of Algorithm 2 on random clusters.

On hundreds of random placements, balancing must (a) never increase
λ at any iteration, (b) terminate within its budget, and (c) leave
every per-stripe solution valid: ``k`` real survivors, the failed
rack's free local reads untouched, Theorem-1 minimality preserved.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import ClusterTopology
from repro.erasure.rs import RSCode
from repro.recovery.balancer import GreedyLoadBalancer
from repro.recovery.selector import CarSelector, min_racks_needed
from repro.recovery.solution import MultiStripeSolution


@st.composite
def failed_clusters(draw):
    seed = draw(st.integers(0, 10_000))
    num_racks = draw(st.integers(3, 5))
    racks = [draw(st.integers(3, 4)) for _ in range(num_racks)]
    k, m = draw(st.sampled_from([(4, 2), (6, 3)]))
    stripes = draw(st.integers(2, 12))
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes(racks)
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    state = ClusterState(topo, code, placement)
    FailureInjector(rng=seed).fail_random_node(state)
    return state


class RebuiltEachTime(MultiStripeSolution):
    """The reference substitution: a new solution built from the whole
    list, re-deriving traffic and the rack index from nothing."""

    def replace(self, new):
        rest = [s for s in self.solutions if s.stripe_id != new.stripe_id]
        return RebuiltEachTime(rest + [new], self.num_racks, self.aggregated)


def unbalanced_start(state):
    selector = CarSelector(state.topology, state.code.k)
    views = {v.stripe_id: v for v in state.views()}
    initial = MultiStripeSolution(
        [selector.initial_solution(v) for v in views.values()],
        num_racks=state.topology.num_racks,
        aggregated=True,
    )
    return views, initial, selector


class TestAlgorithm2Properties:
    @settings(max_examples=200, deadline=None)
    @given(failed_clusters())
    def test_lambda_never_increases(self, state):
        views, initial, selector = unbalanced_start(state)
        balanced, trace = GreedyLoadBalancer().balance(
            views, initial, selector
        )
        assert trace.lambdas[0] >= initial.load_balancing_rate() - 1e-9
        for before, after in zip(trace.lambdas, trace.lambdas[1:]):
            assert after <= before + 1e-9
        assert balanced.load_balancing_rate() <= (
            initial.load_balancing_rate() + 1e-9
        )

    @settings(max_examples=200, deadline=None)
    @given(failed_clusters())
    def test_terminates_within_budget(self, state):
        views, initial, selector = unbalanced_start(state)
        balancer = GreedyLoadBalancer(iterations=50)
        _, trace = balancer.balance(views, initial, selector)
        # One λ sample per iteration actually run, plus the initial one.
        assert len(trace.lambdas) <= 50 + 1
        if trace.converged_at is not None:
            assert trace.converged_at <= 50

    @settings(max_examples=200, deadline=None)
    @given(failed_clusters())
    def test_solutions_stay_valid(self, state):
        views, initial, selector = unbalanced_start(state)
        k = state.code.k
        initial_by_stripe = {s.stripe_id: s for s in initial.solutions}
        balanced, _ = GreedyLoadBalancer().balance(views, initial, selector)
        assert {s.stripe_id for s in balanced.solutions} == set(views)
        for sol in balanced.solutions:
            view = views[sol.stripe_id]
            # Exactly k real survivors.
            assert sol.helper_count == k
            assert set(sol.helpers) <= set(view.surviving)
            # Substitution swaps intact racks only: the failed rack's
            # free intra-rack reads are untouched.
            start = initial_by_stripe[sol.stripe_id]
            assert sol.chunks_from_rack(sol.failed_rack) == (
                start.chunks_from_rack(start.failed_rack)
            )
            # Theorem-1 minimality (d_j) is preserved by every swap.
            assert sol.num_intact_racks == min_racks_needed(view, k)

    @settings(max_examples=200, deadline=None)
    @given(failed_clusters())
    def test_carried_totals_choose_the_same_substitutions(self, state):
        """Algorithm 2 reads traffic and the rack index off solutions that
        inherited them across substitutions; re-deriving both from scratch
        at every step picks the same stripes and the same λ trajectory."""
        views, initial, selector = unbalanced_start(state)
        balanced, trace = GreedyLoadBalancer().balance(views, initial, selector)
        reference, ref_trace = GreedyLoadBalancer().balance(
            views,
            RebuiltEachTime(
                initial.solutions, initial.num_racks, initial.aggregated
            ),
            selector,
        )
        assert balanced.solutions == reference.solutions
        assert trace == ref_trace
        assert balanced.traffic_by_rack() == reference.traffic_by_rack()
