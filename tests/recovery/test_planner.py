"""Tests for recovery-plan construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import ClusterTopology
from repro.erasure.rs import RSCode
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.planner import plan_recovery


def failed_cluster(seed=0, stripes=15, racks=(4, 3, 3, 3), k=6, m=3):
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes(list(racks))
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    state = ClusterState(topo, code, placement)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


def rows(plan):
    """Each stripe's row handle with its helpers, as the row accessor
    lists them: ``(rack, chunk, node, dest, raw, partial, crossing)``."""
    for sp in plan.stripe_plans:
        yield sp, sp.window.helpers(sp.row)


class TestAggregatedPlan:
    def test_plan_traffic_matches_solution(self):
        state, event = failed_cluster()
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        assert plan.cross_rack_chunks() == sol.total_cross_rack_traffic()
        by_rack = [0] * state.topology.num_racks
        for _, helpers in rows(plan):
            for rack, *_, crossing in helpers:
                by_rack[rack] += crossing
        assert by_rack == sol.traffic_by_rack()

    def test_one_partial_flow_per_intact_rack(self):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        # Every partial ends at the replacement node.
        assert plan.replacement_node == event.replacement_node
        for (sp, helpers), s in zip(rows(plan), sol.solutions):
            partials = [h[0] for h in helpers if h[5]]
            assert len(partials) == s.num_intact_racks
            assert tuple(partials) == s.intact_racks_accessed
            assert sp.window.partial_decodes[sp.row] == len(partials)

    def test_delegates_hold_a_retrieved_chunk(self):
        state, event = failed_cluster(seed=2)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        for (sp, helpers), s in zip(rows(plan), sol.solutions):
            delegates = {h[0]: h[3] for h in helpers if h[5]}
            assert delegates
            for rack, delegate in delegates.items():
                assert state.topology.rack_of(delegate) == rack
                held = {
                    c
                    for (stripe, c) in state.placement.chunks_on_node(delegate)
                    if stripe == sp.stripe_id
                }
                assert held & set(s.chunks_from_rack(rack))

    def test_intra_rack_flows_stay_in_rack(self):
        state, event = failed_cluster(seed=3)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        repl = plan.replacement_node
        for _, helpers in rows(plan):
            for rack, _, node, dest, raw, partial, crossing in helpers:
                # A raw chunk flows holder -> dest; a partial, its
                # delegate -> the replacement node.
                if raw or partial:
                    src, dst = (node, dest) if raw else (dest, repl)
                    if not crossing:
                        assert rack == state.topology.rack_of(dst)
                    assert src != dst

    def test_compute_kinds(self):
        state, event = failed_cluster(seed=4)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        assert plan.aggregated
        assert plan.replacement_node == event.replacement_node
        for (sp, helpers), s in zip(rows(plan), sol.solutions):
            # One decode per rack group: a partial at an intact rack's
            # delegate, a local fold for the failed rack's survivors.
            leads = {h[0]: h for h in reversed(helpers)}  # rack -> first
            local = [r for r, h in leads.items() if not h[5]]
            assert local in ([], [s.failed_rack])
            win, i = sp.window, sp.row
            assert win.local_folds[i] == len(local)
            assert win.partial_decodes[i] + win.local_folds[i] == len(leads)

    def test_partial_inputs_sum_to_k(self):
        state, event = failed_cluster(seed=5)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        for sp, helpers in rows(plan):
            assert len(helpers) == sp.window.reads[sp.row] == state.code.k


class TestDirectPlan:
    def test_every_helper_flows_to_replacement(self):
        state, event = failed_cluster(seed=6)
        sol = RandomRecoveryStrategy(rng=6).solve(state)
        plan = plan_recovery(state, event, sol)
        for _, helpers in rows(plan):
            assert len(helpers) == state.code.k
            for _, _, _, dest, raw, partial, _ in helpers:
                assert raw and dest == event.replacement_node
                assert not partial

    def test_traffic_matches_solution(self):
        state, event = failed_cluster(seed=7)
        sol = RandomRecoveryStrategy(rng=7).solve(state)
        plan = plan_recovery(state, event, sol)
        assert plan.cross_rack_chunks() == sol.total_cross_rack_traffic()

    def test_final_decode_covers_all_helpers(self):
        state, event = failed_cluster(seed=8)
        sol = RandomRecoveryStrategy(rng=8).solve(state)
        plan = plan_recovery(state, event, sol)
        assert not plan.aggregated
        for (sp, helpers), s in zip(rows(plan), sol.solutions):
            assert sp.window.reads[sp.row] == state.code.k
            assert tuple(sorted(h[1] for h in helpers)) == s.helpers


class TestPlanInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 200))
    def test_intra_plus_cross_counts(self, seed):
        """Every retrieved chunk is moved at most once as raw data, and
        aggregated plans ship exactly d_j partials per stripe."""
        state, event = failed_cluster(seed=seed)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        for (_, helpers), s in zip(rows(plan), sol.solutions):
            raw = [h for h in helpers if h[4]]
            # Raw flows never cross racks under aggregation.
            assert not any(h[6] for h in raw)
            moved = {h[1] for h in raw}
            assert len(moved) == len(raw)  # no chunk moved twice
            assert moved <= set(s.helpers)
            assert sum(h[5] for h in helpers) == s.num_intact_racks
