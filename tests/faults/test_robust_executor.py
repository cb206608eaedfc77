"""Tests for the robust executor's retry/re-plan/degrade/abort ladder."""

import numpy as np
import pytest

from repro.cluster import (
    BandwidthProfile,
    ClusterState,
    ClusterTopology,
    DataStore,
    FailureInjector,
    RandomPlacementPolicy,
)
from repro.erasure import RSCode
from repro.faults import (
    ActionKind,
    BackoffPolicy,
    FaultInjector,
    FaultKind,
    FaultSpec,
    PipelineStage,
    RecoveryAbort,
    RobustExecutor,
    recover_with_faults,
)
from repro.recovery import CarStrategy, PlanExecutor, plan_recovery

CHUNK = 256


def build(seed=42, stripes=12, uplinks=None):
    code = RSCode(6, 3)
    topo = ClusterTopology.from_rack_sizes(
        [4, 3, 3, 3], bandwidth=BandwidthProfile(per_rack_uplink_gbps=uplinks)
    )
    placement = RandomPlacementPolicy(rng=seed).place(
        topo, stripes, code.k, code.m
    )
    data = DataStore(code, stripes, chunk_size=CHUNK, seed=seed)
    state = ClusterState(topo, code, placement, data)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


class TestFaultFreeBehaviour:
    def test_no_injector_matches_plain_executor(self):
        state, event = build()
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        plain = PlanExecutor(state).execute(plan, solution)
        robust = RobustExecutor(state).run(event, solution)
        assert robust.verified and plain.verified
        assert robust.result.cross_rack_bytes == plain.cross_rack_bytes
        assert robust.result.intra_rack_bytes == plain.intra_rack_bytes
        assert len(robust.log) == 0
        assert robust.rounds == 1
        assert robust.replans == 0
        assert not robust.degraded_to_direct
        assert robust.dead_nodes == frozenset()

    def test_checkpoint_outside_run_is_inert(self):
        state, event = build()
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        executor = RobustExecutor(
            state,
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.HELPER_CRASH,
                          stage=PipelineStage.DISK_READ, max_fires=None)
            ]),
        )
        # The PlanExecutor interface still works and injects nothing.
        result = executor.execute(plan, solution)
        assert result.verified
        assert executor.injector.history == []


class TestSeededDeterminism:
    """The ISSUE acceptance scenario: helper crash mid-transfer, seed 42."""

    @staticmethod
    def run_once():
        state, event = build(seed=42)
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.HELPER_CRASH,
                       stage=PipelineStage.INTRA_TRANSFER)],
            seed=42,
        )
        return recover_with_faults(state, event, CarStrategy(),
                                   injector=injector)

    def test_two_runs_identical(self):
        r1 = self.run_once()
        r2 = self.run_once()
        assert r1.verified and r2.verified
        assert r1.replans >= 1
        assert r1.log == r2.log
        assert len(r1.log) > 0
        assert r1.result.cross_rack_bytes == r2.result.cross_rack_bytes
        assert r1.result.intra_rack_bytes == r2.result.intra_rack_bytes
        assert sorted(r1.result.reconstructed) == sorted(
            r2.result.reconstructed
        )
        for stripe in r1.result.reconstructed:
            assert np.array_equal(
                r1.result.reconstructed[stripe],
                r2.result.reconstructed[stripe],
            )
        assert r1.dead_nodes == r2.dead_nodes

    def test_injector_reset_replays(self):
        state, event = build(seed=42)
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.HELPER_CRASH,
                       stage=PipelineStage.INTRA_TRANSFER)],
            seed=42,
        )
        r1 = recover_with_faults(state, event, CarStrategy(),
                                 injector=injector)
        history = list(injector.history)
        injector.reset()
        state2, event2 = build(seed=42)
        r2 = recover_with_faults(state2, event2, CarStrategy(),
                                 injector=injector)
        assert injector.history == history
        assert r1.log == r2.log


class TestDegradationLadder:
    def test_helper_crash_triggers_replan_and_recovers(self):
        state, event = build()
        r = recover_with_faults(
            state, event, CarStrategy(),
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.HELPER_CRASH,
                          stage=PipelineStage.DISK_READ)
            ]),
        )
        assert r.verified
        assert r.replans == 1
        assert not r.degraded_to_direct
        assert len(r.dead_nodes) == 1
        actions = [a.action for a in r.log.actions]
        assert ActionKind.REPLAN in actions
        # The dead helper must not serve the re-planned solution.
        (dead,) = r.dead_nodes
        for sol in r.final_solution.solutions:
            for chunk in sol.helpers:
                assert state.placement.node_of(sol.stripe_id, chunk) != dead

    def test_replan_preserves_rack_minimality_over_survivors(self):
        """Theorem 1 must hold over the survivors, not the originals."""
        from repro.recovery.selector import racks_needed

        state, event = build()
        r = recover_with_faults(
            state, event, CarStrategy(),
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.HELPER_CRASH,
                          stage=PipelineStage.DISK_READ)
            ]),
        )
        assert r.replans == 1
        k = state.code.k
        for sol in r.final_solution.solutions:
            row = state.failure_columns(
                dead_nodes=r.dead_nodes, stripes=[sol.stripe_id]
            )
            assert sol.num_intact_racks == racks_needed(row, k)[0]
            assert sol.helper_count == k

    def test_replan_weighs_racks_by_their_uplinks(self):
        """The re-plan is the same CAR composition the first plan was:
        with A1's uplink at a fifth of the others' it moves load off A1,
        where the uniform twin (same placement, same death) does not."""
        slow_a1 = (0.2, 1.0, 1.0, 1.0)
        traffic = {}
        for label, uplinks in (("twin", None), ("mixed", slow_a1)):
            state, event = build(uplinks=uplinks)
            r = recover_with_faults(
                state, event, CarStrategy(),
                injector=FaultInjector([
                    FaultSpec(kind=FaultKind.HELPER_CRASH,
                              stage=PipelineStage.DISK_READ)
                ]),
            )
            assert r.verified and r.replans == 1
            assert r.dead_nodes == {1}  # a helper in A1, both times
            traffic[label] = r.final_solution.traffic_by_rack()
        assert traffic["twin"] == [6, 5, 6, 0]
        assert traffic["mixed"][0] < traffic["twin"][0]
        assert sum(traffic["mixed"]) == sum(traffic["twin"])

    def test_delegate_crash_triggers_replan(self):
        state, event = build()
        r = recover_with_faults(
            state, event, CarStrategy(),
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.DELEGATE_CRASH,
                          stage=PipelineStage.PARTIAL_DECODE)
            ]),
        )
        assert r.verified
        assert r.replans == 1
        assert r.log.count(FaultKind.DELEGATE_CRASH) == 1

    def test_exhausted_replans_degrade_to_direct(self):
        state, event = build()
        r = recover_with_faults(
            state, event, CarStrategy(),
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.DELEGATE_CRASH,
                          stage=PipelineStage.PARTIAL_DECODE)
            ]),
            max_replans=0,
        )
        assert r.verified
        assert r.degraded_to_direct
        assert r.replans == 0
        assert not r.final_solution.aggregated
        actions = [a.action for a in r.log.actions]
        assert ActionKind.DEGRADE in actions

    def test_crash_storm_ends_in_typed_abort(self):
        state, event = build()
        with pytest.raises(RecoveryAbort) as exc_info:
            recover_with_faults(
                state, event, CarStrategy(),
                injector=FaultInjector([
                    FaultSpec(kind=FaultKind.HELPER_CRASH,
                              stage=PipelineStage.DISK_READ,
                              max_fires=None)
                ]),
            )
        abort = exc_info.value
        assert abort.dead_nodes
        assert len(abort.log.faults) == len(abort.dead_nodes)
        assert abort.log.actions[-1].action is ActionKind.ABORT


class TestTransients:
    def test_disk_stalls_waited_out_and_accounted(self):
        state, event = build()
        r = recover_with_faults(
            state, event, CarStrategy(),
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.DISK_STALL,
                          stage=PipelineStage.DISK_READ,
                          stall_seconds=2.0, max_fires=3)
            ]),
        )
        assert r.verified
        assert r.dead_nodes == frozenset()
        assert r.stall_seconds == pytest.approx(6.0)
        waits = [a for a in r.log.actions if a.action is ActionKind.WAIT]
        assert len(waits) == 3
        assert r.log.injected_delay_seconds == pytest.approx(6.0)

    def test_flow_drops_retried_with_backoff(self):
        state, event = build()
        backoff = BackoffPolicy(base_seconds=0.5, multiplier=2.0,
                                cap_seconds=10.0, max_attempts=4)
        r = recover_with_faults(
            state, event, CarStrategy(),
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.FLOW_DROP,
                          stage=PipelineStage.CROSS_TRANSFER,
                          max_fires=2)
            ]),
            backoff=backoff,
        )
        assert r.verified
        assert r.dead_nodes == frozenset()
        retries = [a for a in r.log.actions
                   if a.action is ActionKind.RETRY]
        assert len(retries) == 2
        assert r.backoff_seconds == pytest.approx(
            sum(a.wait_seconds for a in retries)
        )
        assert retries[0].wait_seconds == pytest.approx(0.5)

    def test_endless_drops_escalate_to_crash(self):
        state, event = build()
        # Find a failed-rack survivor: its raw intra-rack transfer is a
        # deterministic place to make the link permanently flaky.
        solution = CarStrategy().solve(state)
        target = None
        for sol in solution.solutions:
            for chunk in sol.chunks_from_rack(sol.failed_rack):
                target = state.placement.node_of(sol.stripe_id, chunk)
                break
            if target is not None:
                break
        assert target is not None, "scenario needs a failed-rack survivor"
        r = recover_with_faults(
            state, event, CarStrategy(),
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.FLOW_DROP,
                          stage=PipelineStage.INTRA_TRANSFER,
                          node=target, max_fires=None)
            ]),
            backoff=BackoffPolicy(max_attempts=2),
        )
        assert r.verified
        assert target in r.dead_nodes
        actions = [a.action for a in r.log.actions]
        assert ActionKind.ESCALATE in actions
        assert ActionKind.REPLAN in actions or ActionKind.DEGRADE in actions


class TestByteAccounting:
    def test_voided_attempt_bytes_not_double_counted(self):
        """A crashed attempt's traffic lands in wasted_*, not the result."""
        state, event = build()
        solution = CarStrategy().solve(state)
        # Target a stripe that retrieves survivors inside the failed rack:
        # its intra-rack transfers run before the crash at the partial
        # decode, so the voided attempt has non-zero traffic.
        target_stripe = None
        for sol in solution.solutions:
            if sol.uses_rack(sol.failed_rack) and sol.num_intact_racks:
                target_stripe = sol.stripe_id
                break
        assert target_stripe is not None
        r = recover_with_faults(
            state, event, CarStrategy(),
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.DELEGATE_CRASH,
                          stage=PipelineStage.PARTIAL_DECODE,
                          stripe_id=target_stripe)
            ]),
        )
        assert r.verified
        assert r.wasted_intra_rack_bytes >= CHUNK
        # Completed bytes equal a clean re-execution of the final plan
        # for the stripes that ran after the re-plan; globally the
        # merged result must still verify byte-exactly per stripe.
        assert all(r.result.per_stripe_ok.values())
        assert set(r.result.reconstructed) == {
            s.stripe_id for s in solution.solutions
        }


class TestPlanObjectsOnlyForTheirReaders:
    """A round executes the solution's columns; the :class:`RecoveryPlan`
    objects are built only when ``final_plan`` is read."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.faults import robust
        from repro.recovery import planner

        made = []

        def counting(*args, **kwargs):
            made.append(args)
            return plan_recovery(*args, **kwargs)

        for module in (planner, robust):
            monkeypatch.setattr(module, "plan_recovery", counting)
        return made

    def test_fault_free_session_and_ladder_build_no_plan(self, calls, tmp_path):
        from repro.durable.session import RecoverySession

        state, event = build()
        session = RecoverySession(state, event, CarStrategy(), tmp_path / "j")
        assert session.run().verified
        robust = recover_with_faults(*build(), CarStrategy())
        assert robust.verified
        assert calls == []
        first = robust.final_plan
        assert robust.final_plan is first
        assert len(calls) == 1

    def test_final_plan_after_a_replan_excludes_the_dead(self, calls):
        state, event = build()
        robust = recover_with_faults(
            state, event, CarStrategy(),
            injector=FaultInjector([
                FaultSpec(kind=FaultKind.HELPER_CRASH,
                          stage=PipelineStage.DISK_READ)
            ]),
        )
        assert robust.verified and robust.replans == 1
        assert calls == []
        expected = plan_recovery(
            state, event, robust.final_solution,
            dead_nodes=robust.dead_nodes,
        )
        assert robust.final_plan.stripe_plans == expected.stripe_plans
        assert len(calls) == 1
