"""Degraded-mode recovery: retries, re-planning, and graceful fallback.

:class:`RobustExecutor` wraps the byte-exact
:class:`~repro.recovery.executor.PlanExecutor` with the failure
handling a real clustered file system needs when the repair itself is
not safe from failures:

- **transient faults** (dropped flows) are retried with capped
  exponential backoff; **stalled disks** are waited out — both
  accounted as simulated wall-clock, never real sleeps;
- **permanent faults** (helper/delegate crashes, or transients that
  exhaust their retry budget) void the current plan for the not-yet
  repaired stripes: the strategy re-solves their columns with the dead
  nodes' chunks marked not alive (the mask a degraded read's one-row
  solve uses too), so the re-plan is Theorem-1 minimal over the
  *surviving* racks;
- after ``max_replans`` aggregated re-plans the executor **degrades**
  to direct RR-style recovery (any ``k`` survivors shipped raw), the
  last rung before a typed :class:`~repro.faults.events.RecoveryAbort`.

The degradation ladder is therefore::

    aggregated (CAR)  ->  re-planned aggregated  ->  direct  ->  abort

This is fault *policy* only.  Every round repairs its stripes through
the base executor's windowed pipeline; the hooks below decide what an
injected fault does to the stripe being shipped, and :meth:`run` decides
what happens after a stripe was voided.

Every fault and every response is recorded in a
:class:`~repro.faults.events.FaultLog`, in execution order, and the
whole run is deterministic for a fixed injector seed — and independent
of the window, because stage B ships stripes one at a time, in order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.cluster.state import ClusterState, FailureEvent
from repro.errors import CoordinatorCrashError, NoValidSolutionError
from repro.faults.backoff import BackoffPolicy
from repro.faults.events import (
    ActionKind,
    FaultEvent,
    FaultKind,
    FaultLog,
    InjectedCrashError,
    RecoveryAbort,
    RecoveryAction,
)
from repro.faults.injector import FaultInjector
from repro.faults.timeline import FaultTimeline
from repro.obs import metrics as _metrics
from repro.obs.tracer import NullTracer, Tracer
from repro.recovery.baselines import CarStrategy, _columns_solution
from repro.recovery.executor import ExecutionResult, PipelineStage, PlanExecutor
from repro.recovery.planner import (
    RecoveryPlan,
    plan_recovery,
    plan_recovery_streaming,
)
from repro.recovery.solution import MultiStripeSolution

__all__ = ["RobustExecutionResult", "RobustExecutor", "recover_with_faults"]

#: Kinds the checkpoint hook polls for.  In-flight corruption belongs to
#: the transmission hook (:meth:`RobustExecutor._transmit`) — splitting
#: the polls keeps either from draining the other's fire budgets.
_CHECKPOINT_KINDS = frozenset(FaultKind) - {FaultKind.IN_FLIGHT_CORRUPT}
_TRANSMIT_KINDS = frozenset({FaultKind.IN_FLIGHT_CORRUPT})


@dataclass
class RobustExecutionResult:
    """Outcome of a fault-tolerant recovery run.

    Attributes:
        result: merged byte-exact execution result of every stripe that
            completed (each stripe's bytes come from its *successful*
            attempt only).
        log: ordered faults + responses.
        dead_nodes: helpers that crashed (or were escalated) mid-repair.
        replans: aggregated re-plans performed.
        degraded_to_direct: whether the ladder reached direct recovery.
        rounds: execution rounds (1 = no crash interrupted anything).
        wasted_cross_rack_bytes / wasted_intra_rack_bytes: traffic of
            attempts that a crash voided (consumed bandwidth that bought
            no stripe).
        backoff_seconds: simulated wait spent on transfer retries.
        stall_seconds: simulated wait spent on disk stalls.
        final_solution / final_plan: what the last round executed —
            feed these to the timing simulator together with
            :attr:`timeline`.
    """

    result: ExecutionResult
    log: FaultLog
    dead_nodes: frozenset[int]
    replans: int
    degraded_to_direct: bool
    rounds: int
    wasted_cross_rack_bytes: int
    wasted_intra_rack_bytes: int
    backoff_seconds: float
    stall_seconds: float
    final_solution: MultiStripeSolution
    _plan: partial = field(repr=False, compare=False)

    @cached_property
    def final_plan(self) -> RecoveryPlan:
        """The last round's :class:`RecoveryPlan`, built on first read."""
        return self._plan()

    @property
    def verified(self) -> bool:
        """True iff every stripe reconstructed byte-exactly."""
        return self.result.verified

    @property
    def timeline(self) -> FaultTimeline:
        """The log's timing view, for :class:`RecoverySimulator`."""
        return FaultTimeline.from_log(self.log)


class RobustExecutor(PlanExecutor):
    """A :class:`PlanExecutor` that survives faults injected mid-repair.

    Args:
        state: the failed cluster (must hold a DataStore).
        injector: armed fault injector (default: no faults — the run
            then behaves exactly like the plain executor).
        backoff: retry schedule for transient faults.
        max_replans: aggregated re-plans before degrading to direct.
        journal: optional write-ahead journal making the run resumable
            after a coordinator crash.

    Every transferred payload is checksum-verified on receipt: a
    fault-aware executor never trusts the network, and in-flight
    corruption is injected at that receipt.
    """

    def __init__(
        self,
        state: ClusterState,
        injector: FaultInjector | None = None,
        backoff: BackoffPolicy | None = None,
        max_replans: int = 2,
        tracer: Tracer | NullTracer | None = None,
        journal=None,
    ) -> None:
        super().__init__(
            state, tracer=tracer, journal=journal, verify_integrity=True
        )
        self.injector = injector or FaultInjector()
        self.backoff = backoff or BackoffPolicy()
        self.max_replans = max_replans
        self._log: FaultLog | None = None
        self._backoff_total = 0.0
        self._stall_total = 0.0
        self._last_corrupt_event: FaultEvent | None = None
        # Bytes that completed a delivery this run, by transfer stage —
        # useful or, if a crash then voided their stripe, wasted.
        self._delivered: Counter = Counter()

    def _record(self, entry: FaultEvent | RecoveryAction) -> None:
        """Append to the FaultLog, mirroring into the trace/metrics.

        The FaultLog stays the source of truth (its determinism contract
        is unchanged); the tracer gets the same record as a structured
        ``fault.<kind>`` / ``action.<action>`` event in the one JSONL
        stream, and the registry counts faults and responses by kind.
        """
        assert self._log is not None
        self._log.record(entry)
        tracer = self.tracer
        reg = _metrics.CURRENT
        if isinstance(entry, FaultEvent):
            if tracer.enabled:
                tracer.event(
                    f"fault.{entry.kind.value}",
                    stage=entry.stage.value,
                    stripe_id=entry.stripe_id,
                    node=entry.node,
                    rack=entry.rack,
                    attempt=entry.attempt,
                    stall_seconds=entry.stall_seconds,
                )
            if reg is not None:
                reg.counter("faults.injected").inc(kind=entry.kind.value)
        else:
            if tracer.enabled:
                attrs = {
                    "wait_seconds": entry.wait_seconds,
                    "detail": entry.detail,
                }
                if entry.stripe_id is not None:
                    attrs["stripe_id"] = entry.stripe_id
                if entry.node is not None:
                    attrs["node"] = entry.node
                tracer.event(f"action.{entry.action.value}", **attrs)
            if reg is not None:
                reg.counter("faults.actions").inc(action=entry.action.value)

    # -- fault-aware pipeline hook --------------------------------------

    def _checkpoint(
        self,
        stage: PipelineStage,
        *,
        stripe_id: int,
        node: int,
        rack: int,
        chunk: int | None = None,
        is_partial: bool = False,
    ) -> None:
        super()._checkpoint(
            stage,
            stripe_id=stripe_id,
            node=node,
            rack=rack,
            chunk=chunk,
            is_partial=is_partial,
        )
        if self._log is None:  # not inside run(): behave like the base
            return
        attempt = 0
        while True:
            event = self.injector.poll(
                stage,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                attempt=attempt,
                is_partial=is_partial,
                kinds=_CHECKPOINT_KINDS,
            )
            if event is None:
                return
            self._record(event)
            if event.kind is FaultKind.COORDINATOR_CRASH:
                # Not survivable in-process: the coordinator IS this
                # executor.  Everything not yet journalled dies with it;
                # a RecoverySession resumes from the journal.
                raise CoordinatorCrashError(
                    f"coordinator crashed at {stage.value} "
                    f"(stripe {stripe_id})",
                    event=event,
                    records_written=(
                        self.journal.records_written
                        if self.journal is not None
                        else 0
                    ),
                )
            if event.kind in (FaultKind.HELPER_CRASH, FaultKind.DELEGATE_CRASH):
                raise InjectedCrashError(event)
            attempt += 1
            if attempt >= self.backoff.max_attempts:
                # A disk that never stops stalling / a link that never
                # stops dropping is dead for recovery purposes.
                self._record(
                    RecoveryAction(
                        action=ActionKind.ESCALATE,
                        stripe_id=stripe_id,
                        node=node,
                        detail=(
                            f"{event.kind.value} exceeded "
                            f"{self.backoff.max_attempts} attempts"
                        ),
                    )
                )
                raise InjectedCrashError(event)
            if event.kind is FaultKind.DISK_STALL:
                self._stall_total += event.stall_seconds
                self._record(
                    RecoveryAction(
                        action=ActionKind.WAIT,
                        stripe_id=stripe_id,
                        node=node,
                        wait_seconds=event.stall_seconds,
                        detail="disk stall waited out",
                    )
                )
            else:  # FLOW_DROP
                delay = self.backoff.delay(attempt)
                self._backoff_total += delay
                self._record(
                    RecoveryAction(
                        action=ActionKind.RETRY,
                        stripe_id=stripe_id,
                        node=node,
                        wait_seconds=delay,
                        detail=f"retransmit #{attempt} after drop",
                    )
                )

    def _deliver(self, stage: PipelineStage, buf: np.ndarray, **where):
        received = super()._deliver(stage, buf, **where)
        self._delivered[stage] += self.state.data.chunk_size
        return received

    # -- in-flight integrity ----------------------------------------------

    def _transmit(
        self,
        stage: PipelineStage,
        buf: np.ndarray,
        *,
        stripe_id: int,
        node: int,
        rack: int,
        attempt: int = 0,
        is_partial: bool = False,
    ) -> np.ndarray:
        """Deliver a payload, corrupting it if an armed fault fires.

        The corruption is a deterministic single-element bit flip (the
        position comes from the injector's seeded RNG), so a corrupt run
        replays byte-identically — and the receiver's checksum *must*
        catch it, because one flipped bit changes the CRC.
        """
        if self._log is None:
            return buf
        event = self.injector.poll(
            stage,
            stripe_id=stripe_id,
            node=node,
            rack=rack,
            attempt=attempt,
            is_partial=is_partial,
            kinds=_TRANSMIT_KINDS,
        )
        if event is None:
            return buf
        self._record(event)
        self._last_corrupt_event = event
        corrupted = np.array(buf, copy=True)
        corrupted.flat[self.injector.rng.randrange(corrupted.size)] ^= 1
        return corrupted

    def _on_corrupt(
        self,
        stage: PipelineStage,
        *,
        stripe_id: int,
        node: int,
        rack: int,
        attempt: int,
        is_partial: bool = False,
    ) -> None:
        """Corrupt receipt: retransmit with backoff, escalate when spent.

        Escalation raises :class:`InjectedCrashError` against the
        sending node — a link that corrupts every retransmission is as
        dead as a crashed helper — which routes into the existing
        REPLAN → DEGRADE ladder.
        """
        if self._log is None or self._last_corrupt_event is None:
            super()._on_corrupt(
                stage,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                attempt=attempt,
                is_partial=is_partial,
            )
            return
        if attempt >= self.backoff.max_attempts:
            self._record(
                RecoveryAction(
                    action=ActionKind.ESCALATE,
                    stripe_id=stripe_id,
                    node=node,
                    detail=(
                        f"corrupt payload survived "
                        f"{self.backoff.max_attempts} retransmissions"
                    ),
                )
            )
            raise InjectedCrashError(self._last_corrupt_event)
        delay = self.backoff.delay(attempt)
        self._backoff_total += delay
        self._record(
            RecoveryAction(
                action=ActionKind.RETRY,
                stripe_id=stripe_id,
                node=node,
                wait_seconds=delay,
                detail=f"retransmit #{attempt} after corrupt payload",
            )
        )

    # -- the robust loop -------------------------------------------------

    def run(
        self,
        event: FailureEvent,
        solution: MultiStripeSolution,
        *,
        window: int | None = None,
        progress=None,
    ) -> RobustExecutionResult:
        """Execute ``solution`` to completion, surviving injected faults.

        ``window`` and ``progress`` are those of
        :meth:`~repro.recovery.executor.PlanExecutor.execute`; heartbeat
        counters run across rounds.

        Raises:
            RecoveryAbort: if recovery is impossible (fewer than ``k``
                survivors for some stripe, the replacement node lost, or
                the round budget exhausted).  The abort carries the full
                :class:`FaultLog` — never a partial/wrong answer.
        """
        log = FaultLog()
        self._log = log
        self._backoff_total = 0.0
        self._stall_total = 0.0
        self._delivered.clear()
        self._windows_done = 0
        try:
            return self._run(event, solution, log, window, progress)
        finally:
            self._log = None

    def _run(
        self,
        event: FailureEvent,
        solution: MultiStripeSolution,
        log: FaultLog,
        window: int | None,
        progress,
    ) -> RobustExecutionResult:
        merged = ExecutionResult()
        dead: set[int] = set()
        mode_direct = not solution.aggregated
        degraded = False
        replans = 0
        rounds = 0
        current_sol = solution
        # Each round either finishes or kills at least one more node, so
        # this bound is never hit by a live scenario — it is a guard
        # against a mis-specified injector.
        max_rounds = self.max_replans + self.state.topology.num_nodes + 2

        while True:
            rounds += 1
            if rounds > max_rounds:
                self._record(
                    RecoveryAction(
                        action=ActionKind.ABORT,
                        detail="round budget exhausted",
                    )
                )
                raise RecoveryAbort("round budget exhausted", log, dead)
            try:
                # A crash voids the stripe being shipped: the pipeline
                # has recorded (and committed) exactly the stripes before
                # it, and everything after it is still pending.
                self._run_windows(
                    plan_recovery_streaming(
                        self.state, event, current_sol, dead_nodes=dead
                    ),
                    None, merged, window=window, progress=progress,
                )
                break
            except InjectedCrashError as exc:
                crash = exc
            pending = {
                s
                for s in current_sol.stripe_ids()
                if s not in merged.per_stripe_ok
            }
            if crash.node == event.replacement_node:
                self._record(
                    RecoveryAction(
                        action=ActionKind.ABORT,
                        stripe_id=crash.event.stripe_id,
                        node=crash.node,
                        detail="replacement node lost",
                    )
                )
                raise RecoveryAbort("replacement node lost", log, dead)
            dead.add(crash.node)
            try:
                if not mode_direct and replans < self.max_replans:
                    replans += 1
                    self._record(
                        RecoveryAction(
                            action=ActionKind.REPLAN,
                            stripe_id=crash.event.stripe_id,
                            node=crash.node,
                            detail=(
                                f"aggregated re-plan #{replans} excluding "
                                f"nodes {sorted(dead)}"
                            ),
                        )
                    )
                    current_sol = self._replan_aggregated(pending, dead)
                else:
                    if not mode_direct:
                        mode_direct = True
                        degraded = True
                        self._record(
                            RecoveryAction(
                                action=ActionKind.DEGRADE,
                                node=crash.node,
                                detail=(
                                    "aggregation abandoned after "
                                    f"{replans} re-plans; direct recovery"
                                ),
                            )
                        )
                    else:
                        self._record(
                            RecoveryAction(
                                action=ActionKind.REPLAN,
                                stripe_id=crash.event.stripe_id,
                                node=crash.node,
                                detail=(
                                    f"direct re-plan excluding nodes "
                                    f"{sorted(dead)}"
                                ),
                            )
                        )
                    current_sol = self._replan_direct(pending, dead)
            except NoValidSolutionError as exc:
                self._record(
                    RecoveryAction(action=ActionKind.ABORT, detail=str(exc))
                )
                raise RecoveryAbort(f"data loss: {exc}", log, dead) from exc

        if progress is not None:
            self._report_progress(progress, merged, final=True)
        # Every recorded stripe's deliveries all completed, so whatever
        # was delivered beyond the recorded traffic belonged to attempts
        # a crash voided.
        delivered = self._delivered
        return RobustExecutionResult(
            result=merged,
            log=log,
            dead_nodes=frozenset(dead),
            replans=replans,
            degraded_to_direct=degraded,
            rounds=rounds,
            wasted_cross_rack_bytes=(
                delivered[PipelineStage.CROSS_TRANSFER]
                - merged.cross_rack_bytes
            ),
            wasted_intra_rack_bytes=(
                delivered[PipelineStage.INTRA_TRANSFER]
                - merged.intra_rack_bytes
            ),
            backoff_seconds=self._backoff_total,
            stall_seconds=self._stall_total,
            final_solution=current_sol,
            _plan=partial(
                plan_recovery, self.state, event, current_sol,
                dead_nodes=frozenset(dead),
            ),
        )

    # -- re-planning ------------------------------------------------------

    def _replan_aggregated(
        self, pending: set[int], dead: set[int]
    ) -> MultiStripeSolution:
        """CAR re-plan of the pending stripes over the surviving racks:
        the same solve as the first plan, with the dead nodes' chunks
        marked not alive, so the picks are Theorem-1 minimal over what
        survives and Algorithm 2 keeps the rack loads level."""
        return CarStrategy().solve_failure(
            self.state.topology,
            self.state.code.k,
            self.state.failure_columns(dead_nodes=dead, stripes=pending),
        )

    def _replan_direct(
        self, pending: set[int], dead: set[int]
    ) -> MultiStripeSolution:
        """RR-style fallback: the first ``k`` survivors, shipped raw."""
        k = self.state.code.k
        failure = self.state.failure_columns(dead_nodes=dead, stripes=pending)
        alive = failure.alive
        survivors = alive.sum(axis=1)
        if (survivors < k).any():
            i = int((survivors < k).argmax())
            raise NoValidSolutionError(
                f"stripe {int(failure.stripe_id[i])}: only "
                f"{int(survivors[i])} survivors remain, need {k}"
            )
        return _columns_solution(
            failure, alive & (np.cumsum(alive, axis=1) <= k), False
        )


def recover_with_faults(
    state: ClusterState,
    event: FailureEvent,
    strategy,
    injector: FaultInjector | None = None,
    backoff: BackoffPolicy | None = None,
    max_replans: int = 2,
    journal=None,
    tracer=None,
) -> RobustExecutionResult:
    """Solve, plan, and robustly execute a recovery in one call.

    Args:
        strategy: any :class:`~repro.recovery.baselines.RecoveryStrategy`.

    Raises:
        RecoveryAbort: as :meth:`RobustExecutor.run`.
    """
    solution = strategy.solve(state)
    executor = RobustExecutor(
        state,
        injector=injector,
        backoff=backoff,
        max_replans=max_replans,
        journal=journal,
        tracer=tracer,
    )
    return executor.run(event, solution)
