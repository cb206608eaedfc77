"""Tests for byte-exact plan execution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.erasure.rs import RSCode
from repro.errors import PlanError
from repro.recovery.baselines import (
    CarStrategy,
    MinRackNoAggregationStrategy,
    RandomAggregatedStrategy,
    RandomRecoveryStrategy,
)
from repro.recovery.executor import PlanExecutor
from repro.recovery.planner import plan_recovery


def failed_cluster(seed=0, stripes=12, k=6, m=3, chunk_size=256):
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    data = DataStore(code, stripes, chunk_size=chunk_size, seed=seed)
    state = ClusterState(topo, code, placement, data)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


class TestExecution:
    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: CarStrategy(),
            lambda: CarStrategy(load_balance=False),
            lambda: RandomRecoveryStrategy(rng=5),
            lambda: MinRackNoAggregationStrategy(),
            lambda: RandomAggregatedStrategy(rng=5),
        ],
        ids=["CAR", "CAR-noLB", "RR", "minrack-noagg", "random-agg"],
    )
    def test_every_strategy_reconstructs_byte_exactly(self, strategy_factory):
        state, event = failed_cluster(seed=1)
        sol = strategy_factory().solve(state)
        plan = plan_recovery(state, event, sol)
        result = PlanExecutor(state).execute(plan, sol)
        assert result.verified
        assert set(result.reconstructed) == set(event.stripes)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 300))
    def test_car_verified_for_random_clusters(self, seed):
        state, event = failed_cluster(seed=seed)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        assert PlanExecutor(state).execute(plan, sol).verified

    def test_requires_data_store(self):
        code = RSCode(4, 2)
        topo = ClusterTopology.from_rack_sizes([3, 3, 3])
        placement = RandomPlacementPolicy(rng=0).place(topo, 3, 4, 2)
        state = ClusterState(topo, code, placement)
        with pytest.raises(PlanError):
            PlanExecutor(state)

    def test_transfer_byte_accounting(self):
        state, event = failed_cluster(seed=2, chunk_size=128)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        result = PlanExecutor(state).execute(plan, sol)
        assert result.cross_rack_bytes == plan.cross_rack_chunks() * 128
        # Every raw chunk and every partial is one flow.
        flows = sum(
            raw + partial
            for sp in plan.stripe_plans
            for *_, raw, partial, _ in sp.window.helpers(sp.row)
        )
        assert result.intra_rack_bytes == (
            flows - plan.cross_rack_chunks()
        ) * 128

    def test_compute_charged_to_delegates_and_replacement(self):
        state, event = failed_cluster(seed=3)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        result = PlanExecutor(state).execute(plan, sol)
        assert event.replacement_node in result.bytes_computed_by_node
        delegate_nodes = {
            dest
            for sp in plan.stripe_plans
            for _, _, _, dest, _, partial, _ in sp.window.helpers(sp.row)
            if partial
        }
        assert delegate_nodes
        for d in delegate_nodes:
            assert result.bytes_computed_by_node.get(d, 0) > 0

    def test_rr_computes_only_at_replacement(self):
        state, event = failed_cluster(seed=4)
        sol = RandomRecoveryStrategy(rng=4).solve(state)
        plan = plan_recovery(state, event, sol)
        result = PlanExecutor(state).execute(plan, sol)
        assert set(result.bytes_computed_by_node) == {event.replacement_node}

    def test_total_compute_bytes(self):
        state, event = failed_cluster(seed=5, chunk_size=64)
        sol = RandomRecoveryStrategy(rng=5).solve(state)
        plan = plan_recovery(state, event, sol)
        result = PlanExecutor(state).execute(plan, sol)
        # RR decodes k chunks per stripe at the replacement node.
        expected = len(event.stripes) * state.code.k * 64
        assert result.total_compute_bytes == expected
