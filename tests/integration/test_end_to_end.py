"""End-to-end integration tests across all layers.

Each test walks the full pipeline: build cluster -> place stripes ->
inject failure -> solve -> plan -> execute on real bytes -> simulate
timing -> check the paper's invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import quick_recovery_demo
from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.erasure.rs import RSCode
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.executor import PlanExecutor
from repro.recovery.metrics import reduction_ratio, traffic_report
from repro.recovery.planner import plan_recovery
from repro.recovery.selector import racks_needed
from repro.sim.recovery_sim import RecoverySimulator

MB = 1 << 20


def build(seed, racks, k, m, stripes=15, chunk_size=256, construction="vandermonde"):
    code = RSCode(k, m, construction=construction)
    topo = ClusterTopology.from_rack_sizes(list(racks))
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    data = DataStore(code, stripes, chunk_size=chunk_size, seed=seed)
    state = ClusterState(topo, code, placement, data)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


class TestFullPipeline:
    @pytest.mark.parametrize(
        "racks,k,m",
        [
            ((4, 3, 3), 4, 3),        # CFS1
            ((4, 3, 3, 3), 6, 3),     # CFS2
            ((6, 4, 5, 3, 2), 10, 4), # CFS3
        ],
        ids=["CFS1", "CFS2", "CFS3"],
    )
    def test_paper_configs_end_to_end(self, racks, k, m):
        state, event = build(1, racks, k, m)
        car = CarStrategy().solve(state)
        rr = RandomRecoveryStrategy(rng=1).solve(state)
        # Traffic ordering.
        assert car.total_cross_rack_traffic() <= rr.total_cross_rack_traffic()
        # Byte-exact execution for both.
        for sol in (car, rr):
            plan = plan_recovery(state, event, sol)
            assert PlanExecutor(state).execute(plan, sol).verified
        # Timing ordering.
        sim = RecoverySimulator(state)
        t_car = sim.simulate(plan_recovery(state, event, car), MB)
        t_rr = sim.simulate(plan_recovery(state, event, rr), MB)
        assert t_car.time_per_chunk <= t_rr.time_per_chunk * 1.05

    def test_cauchy_construction_end_to_end(self):
        state, event = build(2, (4, 3, 3, 3), 6, 3, construction="cauchy")
        car = CarStrategy().solve(state)
        plan = plan_recovery(state, event, car)
        assert PlanExecutor(state).execute(plan, car).verified

    def test_gf16_code_end_to_end(self):
        code = RSCode(6, 3, w=16)
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=3).place(topo, 8, 6, 3)
        data = DataStore(code, 8, chunk_size=128, seed=3)
        state = ClusterState(topo, code, placement, data)
        event = FailureInjector(rng=3).fail_random_node(state)
        car = CarStrategy().solve(state)
        plan = plan_recovery(state, event, car)
        assert PlanExecutor(state).execute(plan, car).verified

    def test_quick_demo(self):
        out = quick_recovery_demo()
        assert "byte-exact: True" in out

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_clusters_property(self, seed):
        """For random layouts: CAR traffic == sum of d_j, execution is
        byte-exact, and λ >= 1."""
        state, event = build(seed, (4, 3, 3, 3), 6, 3, stripes=10)
        car = CarStrategy().solve(state)
        expected = int(racks_needed(state.failure_columns(), 6).sum())
        assert car.total_cross_rack_traffic() == expected
        assert car.load_balancing_rate() >= 1.0
        plan = plan_recovery(state, event, car)
        assert PlanExecutor(state).execute(plan, car).verified


class TestDegradedRead:
    def test_single_stripe_degraded_read_via_partial_decoding(self):
        """Serving a read of one lost chunk (not whole-node recovery):
        CAR's per-stripe machinery reconstructs just that stripe."""
        state, event = build(5, (4, 3, 3, 3), 6, 3)
        stripe = event.stripes[0]
        view = state.stripe_view(stripe)
        from repro.recovery.selector import CarSelector
        from repro.erasure.repair import (
            combine_partials,
            execute_partial_decode,
            split_repair_vector,
        )

        selector = CarSelector(state.topology, state.code.k)
        sol = selector.initial_solution(view)
        plan = split_repair_vector(
            state.code, sol.lost_chunk, sol.helpers, sol.rack_map()
        )
        chunks = {c: state.data.chunk(stripe, c) for c in sol.helpers}
        partials = execute_partial_decode(state.code, plan, chunks)
        rebuilt = combine_partials(state.code, partials)
        assert state.data.matches(stripe, sol.lost_chunk, rebuilt)


class TestBandwidthDiversity:
    def test_cars_advantage_grows_with_oversubscription(self):
        """The paper's motivation: the scarcer cross-rack bandwidth is,
        the more CAR wins."""
        savings = []
        for uplink in (1.0, 0.25):
            code = RSCode(6, 3)
            topo = ClusterTopology.from_rack_sizes(
                [4, 3, 3, 3],
                bandwidth=BandwidthProfile(
                    node_nic_gbps=1.0, rack_uplink_gbps=uplink
                ),
            )
            placement = RandomPlacementPolicy(rng=4).place(topo, 15, 6, 3)
            state = ClusterState(topo, code, placement)
            event = FailureInjector(rng=4).fail_random_node(state)
            sim = RecoverySimulator(state)
            t = {}
            for strat in (CarStrategy(), RandomRecoveryStrategy(rng=4)):
                sol = strat.solve(state)
                t[strat.name] = sim.simulate(
                    plan_recovery(state, event, sol), MB
                ).time_per_chunk
            savings.append(1 - t["CAR"] / t["RR"])
        assert savings[1] > savings[0]


class TestReportNumbers:
    def test_traffic_report_round_trip(self):
        state, event = build(6, (4, 3, 3, 3), 6, 3)
        car = CarStrategy().solve(state)
        rr = RandomRecoveryStrategy(rng=6).solve(state)
        rep_car = traffic_report(car, 4 * MB, "CAR")
        rep_rr = traffic_report(rr, 4 * MB, "RR")
        saving = reduction_ratio(rep_rr, rep_car)
        assert 0 < saving < 1
        assert rep_car.total_bytes == car.total_cross_rack_traffic() * 4 * MB
