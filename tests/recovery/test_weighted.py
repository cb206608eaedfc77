"""Algorithm 2 on mixed rack uplinks: the balancer levels
``(history + t) / uplink``, the uplinks being the topology's own.

"Plain" is always the same placement on a uniform-uplink twin of the
topology (placement and failure depend on the seed and the rack sizes,
not on bandwidth).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState, StripeView
from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.erasure.rs import RSCode
from repro.errors import ConfigurationError, RecoveryError
from repro.experiments.configs import ALL_CFS
from repro.recovery.balancer import GreedyLoadBalancer
from repro.recovery.baselines import CarStrategy
from repro.recovery.selector import CarSelector
from repro.recovery.solution import MultiStripeSolution, balancing_rate

SLOW_A2 = (1.0, 0.25, 1.0, 1.0)  # rack A2 has a quarter-speed uplink


def setup(seed=0, stripes=40, racks=(4, 3, 3, 3), k=6, m=3, uplinks=None):
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes(
        list(racks), bandwidth=BandwidthProfile(per_rack_uplink_gbps=uplinks)
    )
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    state = ClusterState(topo, code, placement)
    FailureInjector(rng=seed).fail_random_node(state)
    selector = CarSelector(topo, k)
    views = {v.stripe_id: v for v in state.views()}
    initial = MultiStripeSolution(
        [selector.initial_solution(v) for v in views.values()],
        num_racks=topo.num_racks,
        aggregated=True,
    )
    return state, views, initial, selector


def max_load(solution, uplinks, history=None):
    """Max over intact racks of (history + t) / uplink."""
    history = history or [0] * solution.num_racks
    return max(
        (h + t) / u
        for rack, (h, t, u) in enumerate(
            zip(history, solution.traffic_by_rack(), uplinks)
        )
        if rack != solution.failed_rack
    )


def picks(solution):
    return [dict(s.chunks_by_rack) for s in solution.solutions]


def reference_equation8(views, initial, selector, iterations):
    """Algorithm 2 as the paper prints it: integer counts, no capacities."""
    current, substitutions = initial, 0
    lambdas = [current.load_balancing_rate()]
    intact = [r for r in range(current.num_racks) if r != current.failed_rack]
    for _ in range(iterations):
        t = current.traffic_by_rack()
        l_rack = max(intact, key=lambda r: (t[r], -r))
        targets = sorted(
            (r for r in intact if t[l_rack] - t[r] >= 2),
            key=lambda r: (t[r], r),
        )
        swap = next(
            (
                new
                for i_rack in targets
                for sol in current.solutions
                if (new := selector.substitute(
                    views[sol.stripe_id], sol, l_rack, i_rack
                ))
            ),
            None,
        )
        if swap is None:
            break
        current, substitutions = current.replace(swap), substitutions + 1
        lambdas.append(current.load_balancing_rate())
    return current, substitutions, lambdas


class TestDrainTimes:
    def test_basic(self):
        """Six one-choice stripes, all initially on A2 whose uplink is
        twice A3's: the loop stops at 4 chunks on A2 and 2 on A3, where
        both uplinks drain in the same time."""
        topo = ClusterTopology.from_rack_sizes(
            [2, 2, 2],
            bandwidth=BandwidthProfile(per_rack_uplink_gbps=(1.0, 2.0, 1.0)),
        )
        # (2,2) stripes that lost chunk 0 on node 0: chunk 1 survives
        # beside it, chunks 2 and 3 sit in A2 and A3 — either completes k.
        views = {
            j: StripeView(
                stripe_id=j,
                lost_chunk=0,
                surviving={1: 1, 2: 2, 3: 4},
                rack_counts=(1, 1, 1),
                failed_rack=0,
            )
            for j in range(6)
        }
        selector = CarSelector(topo, k=2)
        initial = MultiStripeSolution(
            [selector.initial_solution(v) for v in views.values()],
            num_racks=3,
            aggregated=True,
        )
        assert initial.traffic_by_rack() == [0, 6, 0]
        out, trace = GreedyLoadBalancer().balance(views, initial, selector)
        assert out.traffic_by_rack() == [0, 4, 2]
        assert trace.substitutions == 2
        # λ in the trace stays the paper's unweighted rate.
        assert trace.lambdas == [2.0, 5 / 3, 4 / 3]

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            ClusterTopology.from_rack_sizes(
                [4, 3, 3, 3],
                bandwidth=BandwidthProfile(per_rack_uplink_gbps=(1.0, 2.0)),
            )

    def test_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            BandwidthProfile(per_rack_uplink_gbps=(1.0, 0.0))


class TestValidation:
    def test_capacity_count_checked(self):
        """One uplink too many is as wrong as one too few — and a
        matching list survives growing a rack."""
        with pytest.raises(ConfigurationError):
            ClusterTopology.from_rack_sizes(
                [4, 3, 3, 3],
                bandwidth=BandwidthProfile(per_rack_uplink_gbps=(1.0,) * 5),
            )
        state, *_ = setup(uplinks=SLOW_A2)
        grown = state.topology.with_extra_node(1)
        assert grown.bandwidth.uplink_for(1) == 0.25

    def test_rejects_unaggregated(self):
        state, views, initial, selector = setup(uplinks=SLOW_A2)
        direct = MultiStripeSolution(
            initial.solutions, num_racks=initial.num_racks, aggregated=False
        )
        with pytest.raises(RecoveryError):
            GreedyLoadBalancer().balance(views, direct, selector)

    def test_negative_iterations(self):
        state, *_ = setup(uplinks=SLOW_A2)
        with pytest.raises(RecoveryError):
            CarStrategy(iterations=-1).solve(state)


class TestUniformCapacitiesMatchAlgorithm2:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 300))
    def test_same_final_max_traffic(self, seed):
        """Equal per-rack uplinks, whatever their value, are the default
        topology: same picks, same trace."""
        state, views, initial, selector = setup(seed=seed)
        plain_out, plain_trace = GreedyLoadBalancer(iterations=100).balance(
            views, initial, selector
        )
        _, views, initial, selector = setup(seed=seed, uplinks=(0.1,) * 4)
        out, trace = GreedyLoadBalancer(iterations=100).balance(
            views, initial, selector
        )
        assert picks(out) == picks(plain_out)
        assert trace == plain_trace

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(ALL_CFS),
        st.integers(0, 10_000),
        st.sampled_from([1.0, 10.0, 0.1, 1 / 3]) | st.floats(0.01, 400.0),
        st.integers(0, 60),
    )
    def test_equals_reference_equation8_loop(self, cfs, seed, gbps, budget):
        """With any common positive uplink the measure is Equation 8
        exactly: same picks, substitution count and λ trajectory as a
        loop that has never heard of capacities."""
        _, views, initial, selector = setup(
            seed=seed,
            racks=cfs.rack_sizes,
            k=cfs.k,
            m=cfs.m,
            uplinks=(gbps,) * len(cfs.rack_sizes),
        )
        out, trace = GreedyLoadBalancer(iterations=budget).balance(
            views, initial, selector
        )
        expected, substitutions, lambdas = reference_equation8(
            views, initial, selector, budget
        )
        assert picks(out) == picks(expected)
        assert trace.substitutions == substitutions
        assert trace.lambdas == lambdas


class TestHeterogeneous:
    def test_max_drain_monotone(self):
        """The maximum of the measure never rises with one more
        iteration (the balancer is deterministic, so budget n+1 extends
        budget n)."""
        state, views, initial, selector = setup(seed=3, uplinks=SLOW_A2)
        loads = []
        for budget in range(40):
            out, trace = GreedyLoadBalancer(iterations=budget).balance(
                views, initial, selector
            )
            loads.append(max_load(out, SLOW_A2))
            if trace.converged_at is not None:
                break
        assert trace.converged_at is not None and trace.substitutions > 0
        for before, after in zip(loads, loads[1:]):
            assert after <= before
        assert loads[-1] < loads[0]

    def test_total_traffic_invariant(self):
        """Theorem 1 is untouched: every stripe keeps its ``d_j``."""
        state, views, initial, selector = setup(seed=4, uplinks=SLOW_A2)
        out, _ = GreedyLoadBalancer(iterations=100).balance(
            views, initial, selector
        )
        assert (
            out.total_cross_rack_traffic()
            == initial.total_cross_rack_traffic()
        )
        for sol in out.solutions:
            assert sol.num_intact_racks == selector.min_racks(
                views[sol.stripe_id]
            )

    def test_slow_rack_gets_less_traffic_than_unweighted(self):
        """The point of reading the uplinks: the quarter-speed one ends
        up carrying fewer chunks than on the uniform twin."""
        results = {}
        for label, uplinks in (("plain", None), ("weighted", SLOW_A2)):
            state, views, initial, selector = setup(seed=5, uplinks=uplinks)
            assert state.topology.rack_of(state.failed_node) != 1
            out, _ = GreedyLoadBalancer(iterations=100).balance(
                views, initial, selector
            )
            results[label] = out.traffic_by_rack()
        assert results["weighted"][1] < results["plain"][1]

    def test_weighted_beats_plain_on_drain_time(self):
        improvements = 0
        for seed in range(8):
            state, views, initial, selector = setup(seed=seed)
            if state.topology.rack_of(state.failed_node) == 1:
                continue
            plain_out, _ = GreedyLoadBalancer(iterations=100).balance(
                views, initial, selector
            )
            _, views, initial, selector = setup(seed=seed, uplinks=SLOW_A2)
            weighted_out, _ = GreedyLoadBalancer(iterations=100).balance(
                views, initial, selector
            )
            plain_drain = max_load(plain_out, SLOW_A2)
            weighted_drain = max_load(weighted_out, SLOW_A2)
            assert weighted_drain <= plain_drain + 1e-9
            if weighted_drain < plain_drain - 1e-9:
                improvements += 1
        assert improvements > 0

    def test_history_and_capacity_together(self):
        """``baseline_traffic`` on mixed uplinks levels
        ``(history + t) / uplink``: a fast rack that carried most of the
        past repairs is relieved, the slow rack still is not favoured,
        and λ is reported over history + current chunks."""
        state, views, initial, selector = setup(seed=3, uplinks=SLOW_A2)
        failed_rack, busy = initial.failed_rack, 2
        assert failed_rack == 0
        history = [0, 0, 30, 0]
        runs = {}
        for label, baseline in (("fresh", None), ("history", history)):
            out, trace = GreedyLoadBalancer(
                iterations=100, baseline_traffic=baseline
            ).balance(views, initial, selector)
            runs[label] = out, trace
        fresh, _ = runs["fresh"]
        out, trace = runs["history"]
        assert max_load(out, SLOW_A2, history) < max_load(
            fresh, SLOW_A2, history
        )
        assert out.traffic_by_rack()[busy] < fresh.traffic_by_rack()[busy]
        # ... onto the slow rack too, but only up to the busy rack's level.
        assert out.traffic_by_rack()[1] / 0.25 < 30 + out.traffic_by_rack()[busy]
        assert trace.final_lambda == balancing_rate(
            [h + t for h, t in zip(history, out.traffic_by_rack())],
            failed_rack,
        )
        # Each budget's result is the previous one plus one move, and
        # the maximum of the full measure never rises along the way.
        loads = [
            max_load(
                GreedyLoadBalancer(iterations=n, baseline_traffic=history)
                .balance(views, initial, selector)[0],
                SLOW_A2,
                history,
            )
            for n in range(trace.substitutions + 1)
        ]
        assert all(b <= a for a, b in zip(loads, loads[1:]))
