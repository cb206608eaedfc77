"""End-to-end recovery timing on a fabric with heterogeneous uplinks."""

import pytest

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.erasure.rs import RSCode
from repro.recovery.baselines import CarStrategy
from repro.recovery.planner import plan_recovery
from repro.sim.recovery_sim import RecoverySimulator

MB = 1 << 20


def build(uplinks, seed=6, stripes=15):
    code = RSCode(6, 3)
    topo = ClusterTopology.from_rack_sizes(
        [4, 3, 3, 3],
        bandwidth=BandwidthProfile(
            node_nic_gbps=1.0,
            rack_uplink_gbps=1.0,
            per_rack_uplink_gbps=uplinks,
        ),
    )
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, 6, 3)
    state = ClusterState(topo, code, placement)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


def slowest_drain(solution, uplinks):
    return max(
        t / uplinks[rack]
        for rack, t in enumerate(solution.traffic_by_rack())
        if rack != solution.failed_rack
    )


class TestHeterogeneousRecovery:
    def test_slow_uplink_inflates_recovery_time(self):
        fast_state, fast_event = build((1.0, 1.0, 1.0, 1.0))
        slow_state, slow_event = build((0.1, 0.1, 0.1, 0.1))
        t = {}
        for label, (state, event) in (
            ("fast", (fast_state, fast_event)),
            ("slow", (slow_state, slow_event)),
        ):
            sol = CarStrategy().solve(state)
            plan = plan_recovery(state, event, sol)
            t[label] = RecoverySimulator(state, include_disk=False).simulate(
                plan, 2 * MB
            ).total_time
        assert t["slow"] > t["fast"]

    def test_weighted_solution_executes_in_simulator(self):
        uplinks = (1.0, 0.2, 1.0, 1.0)
        state, event = build(uplinks, seed=8)
        unbalanced = CarStrategy(load_balance=False).solve(state)
        solution = CarStrategy().solve(state)
        assert slowest_drain(solution, uplinks) <= slowest_drain(
            unbalanced, uplinks
        )
        plan = plan_recovery(state, event, solution)
        timing = RecoverySimulator(state, include_disk=False).simulate(
            plan, MB
        )
        assert timing.total_time > 0
        # Traffic identity still holds for the weighted solution.
        assert plan.cross_rack_chunks() == solution.total_cross_rack_traffic()

    def test_weighted_never_slower_than_plain_on_avg(self):
        uplinks = (1.0, 0.2, 1.0, 1.0)
        plain_total = weighted_total = 0.0
        compared = 0
        for seed in range(6):
            state, event = build(uplinks, seed=seed)
            if state.topology.rack_of(state.failed_node) == 1:
                continue
            # Planned as if the uplinks were equal, timed on the real ones.
            twin, _ = build((1.0, 1.0, 1.0, 1.0), seed=seed)
            plain = CarStrategy(iterations=100).solve(twin)
            weighted = CarStrategy(iterations=100).solve(state)
            sim = RecoverySimulator(state, include_disk=False)
            plain_total += sim.simulate(
                plan_recovery(state, event, plain), MB
            ).total_time
            weighted_total += sim.simulate(
                plan_recovery(state, event, weighted), MB
            ).total_time
            compared += 1
        assert compared > 0
        assert weighted_total <= plain_total * 1.01
