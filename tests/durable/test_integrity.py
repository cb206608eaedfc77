"""End-to-end in-flight integrity: corruption detected before decode."""

import pytest

from repro.faults import (
    ActionKind,
    BackoffPolicy,
    FaultInjector,
    FaultKind,
    FaultSpec,
    InjectedCrashError,
    PipelineStage,
    RecoveryAbort,
    RobustExecutor,
    recover_with_faults,
)
from repro.obs.metrics import MetricsRegistry, telemetry_scope
from repro.obs.tracer import Tracer
from repro.recovery import CarStrategy, PlanExecutor, plan_recovery
from repro.recovery.baselines import RandomRecoveryStrategy

from tests.durable.conftest import build_failed_cluster

CORRUPT_STAGES = [PipelineStage.INTRA_TRANSFER, PipelineStage.CROSS_TRANSFER]


class CorruptingExecutor(RobustExecutor):
    """A robust executor whose network flips one bit in the first
    cross-rack payload, with no retransmission budget."""

    def __init__(self, state):
        super().__init__(
            state,
            injector=FaultInjector(
                [FaultSpec(kind=FaultKind.IN_FLIGHT_CORRUPT,
                           stage=PipelineStage.CROSS_TRANSFER, max_fires=1)],
                seed=5,
            ),
            backoff=BackoffPolicy(max_attempts=1),
        )


class TestPlainExecutorIntegrity:
    def test_default_executor_skips_verification(self, failed_cluster):
        """The plain executor's network is perfect: no delivery is
        walked, and none is checked or counted."""
        state, event = failed_cluster
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        executor = PlanExecutor(state)
        registry = MetricsRegistry()
        with telemetry_scope(registry):
            result = executor.execute(plan, solution)
        assert result.verified
        assert not executor._observed()
        assert "integrity.verified" not in registry.snapshot()["metrics"]

    def test_corruption_is_fatal_without_fault_layer(self, failed_cluster):
        """With no retransmission budget the first corrupt receipt is
        fatal to its sender: escalated as a crash, never retried, and
        the stripe it carried is repaired around that node."""
        state, event = failed_cluster
        executor = CorruptingExecutor(state)
        r = executor.run(event, CarStrategy().solve(state))
        (corrupt,) = executor.injector.history
        assert r.log.faults == (corrupt,)
        actions = [a.action for a in r.log.actions]
        assert actions[:2] == [ActionKind.ESCALATE, ActionKind.REPLAN]
        assert ActionKind.RETRY not in actions
        assert corrupt.node in r.dead_nodes
        # No corrupt buffer ever reached a decode.
        assert r.verified
        for stripe, lost in event.lost_chunks:
            assert state.data.matches(
                stripe, lost, r.result.reconstructed[stripe]
            )

    def test_clean_network_verifies_everywhere(self, failed_cluster):
        state, event = failed_cluster
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        registry = MetricsRegistry()
        with telemetry_scope(registry):
            result = RobustExecutor(state).execute(plan, solution)
        assert result.verified
        metrics = registry.snapshot()["metrics"]
        verified = sum(
            s["value"] for s in metrics["integrity.verified"]["series"]
        )
        assert verified > 0
        assert "integrity.corruptions" not in metrics


@pytest.mark.parametrize("stage", CORRUPT_STAGES,
                         ids=[s.value for s in CORRUPT_STAGES])
@pytest.mark.parametrize("strategy_name", ["car", "direct"])
class TestRobustCorruptionLadder:
    def run(self, stage, strategy_name, max_fires, tracer=None):
        state, event = build_failed_cluster()
        strategy = (CarStrategy() if strategy_name == "car"
                    else RandomRecoveryStrategy(rng=7))
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.IN_FLIGHT_CORRUPT, stage=stage,
                       max_fires=max_fires)],
            seed=5,
        )
        result = recover_with_faults(
            state, event, strategy,
            injector=injector,
            backoff=BackoffPolicy(max_attempts=3),
            tracer=tracer,
        )
        return state, event, injector, result

    def test_single_corruption_is_detected_and_retried(self, stage,
                                                       strategy_name):
        tracer = Tracer(clock=lambda: 0.0)
        registry = MetricsRegistry()
        with telemetry_scope(registry):
            state, event, injector, r = self.run(
                stage, strategy_name, max_fires=1, tracer=tracer
            )
        if not injector.history:
            pytest.skip(f"{stage.value} unreachable under {strategy_name}")
        assert r.verified
        for stripe, lost in event.lost_chunks:
            assert state.data.matches(
                stripe, lost, r.result.reconstructed[stripe]
            )
        # The injected fault surfaced as telemetry, and the ladder's
        # answer was a retransmission.
        names = [e["name"] for e in tracer.events if e["type"] == "event"]
        assert "fault.corrupt" in names
        assert "action.retry" in names
        metrics = registry.snapshot()["metrics"]
        corruptions = sum(
            s["value"]
            for s in metrics["integrity.corruptions"]["series"]
        )
        assert corruptions >= 1
        retries = [a for a in r.log.actions
                   if a.action is ActionKind.RETRY]
        assert retries and "retransmit" in retries[0].detail

    def test_unbounded_corruption_terminates_typed(self, stage,
                                                   strategy_name):
        # A corrupt-everything network must end in a typed terminal
        # state — escalation then replan around the "bad" node, or a
        # full abort — never wrong bytes.
        try:
            state, event, injector, r = self.run(
                stage, strategy_name, max_fires=None
            )
        except RecoveryAbort as abort:
            assert abort.log.actions[-1].action is ActionKind.ABORT
            return
        if not injector.history:
            pytest.skip(f"{stage.value} unreachable under {strategy_name}")
        assert r.verified
        assert ActionKind.ESCALATE in {a.action for a in r.log.actions}
        for stripe, lost in event.lost_chunks:
            assert state.data.matches(
                stripe, lost, r.result.reconstructed[stripe]
            )


class TestCorruptFaultSpec:
    def test_corrupt_only_valid_at_transfer_stages(self):
        from repro.faults.events import VALID_STAGES

        assert VALID_STAGES[FaultKind.IN_FLIGHT_CORRUPT] == frozenset(
            {PipelineStage.INTRA_TRANSFER, PipelineStage.CROSS_TRANSFER}
        )
        with pytest.raises(Exception):
            FaultSpec(kind=FaultKind.IN_FLIGHT_CORRUPT,
                      stage=PipelineStage.DISK_READ)

    def test_escalation_error_pickles(self):
        import pickle

        from repro.faults.events import FaultEvent

        event = FaultEvent(
            kind=FaultKind.IN_FLIGHT_CORRUPT,
            stage=PipelineStage.CROSS_TRANSFER,
            stripe_id=1, node=2, rack=0, attempt=3,
        )
        err = InjectedCrashError(event)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.event.kind is FaultKind.IN_FLIGHT_CORRUPT
        assert clone.event.node == 2
