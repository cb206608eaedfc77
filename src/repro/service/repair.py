"""The background repair service: paced, crash-resumable.

The repair runs the *existing* durable pipeline — a
:class:`~repro.durable.session.RecoverySession` shipping a few stripes
per window through
:meth:`~repro.recovery.executor.PlanExecutor.execute`'s pipeline, under
:class:`~repro.faults.robust.RobustExecutor`'s fault ladder — in a
worker thread, while the coordinator's event loop keeps serving
degraded reads.  Three small pieces adapt that pipeline to a live
service:

- :class:`RepairGovernor` rides the executor's per-window progress
  hook: it charges each window's *cross-rack byte delta* to the
  admission controller and blocks the worker thread for the modelled
  wait — the token-bucket repair cap and the shared-link queueing are
  what pace recovery against foreground reads.
- ``_DetectedDeaths`` is the session's fault injector, fed by the
  failure detector instead of by a test.  That is all the service does
  about a secondary failure: the ladder (docs/FAULTS.md) re-plans the
  pending stripes around the node and the *same* journal session
  continues.
- :class:`RepairService` owns the thread and its one session: run, or
  resume if the journal already exists on disk (committed stripes then
  replay from their commit records with zero re-shipped cross-rack
  traffic).  An injected coordinator crash (``crash_after_records``)
  escapes as :class:`~repro.errors.CoordinatorCrashError` and parks the
  service in the ``crashed`` state; a fresh coordinator pointed at the
  same journal resumes it.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.cluster.state import ClusterState, FailureEvent
from repro.durable.session import DurableRecoveryResult, RecoverySession
from repro.errors import CoordinatorCrashError, ReproError
from repro.faults.events import (
    ActionKind,
    FaultEvent,
    FaultKind,
    FaultLog,
    RecoveryAbort,
)
from repro.faults.injector import FaultInjector
from repro.service.admission import AdmissionController, ServiceClock

__all__ = ["RepairGovernor", "RepairService"]


class RepairGovernor:
    """Progress hook that paces a running repair.

    Duck-types :class:`~repro.obs.progress.ProgressReporter`: the
    executor calls :meth:`update` once per shipped window with
    absolute counters, and :meth:`finish` once at the end.

    Args:
        admission: where cross-rack byte deltas are charged.
        clock: converts the modelled wait into a worker-thread sleep.
    """

    def __init__(
        self, admission: AdmissionController, clock: ServiceClock
    ) -> None:
        self.admission = admission
        self.clock = clock
        self._charged_cross = 0
        self.model_wait_seconds = 0.0
        self.windows_paced = 0

    def update(
        self, stripes_done: int, *, cross_rack_bytes: int = 0, **_counters
    ) -> None:
        """Charge what crossed racks since the last call; wait it out."""
        delta = cross_rack_bytes - self._charged_cross
        if delta > 0:
            self._charged_cross = cross_rack_bytes
            wait = self.admission.repair_delay(delta)
            self.model_wait_seconds += wait
            self.windows_paced += 1
            self.clock.sleep_sync(wait)

    #: End of execution: settle the final delta the same way.
    finish = update


class _DetectedDeaths(FaultInjector):
    """Injector whose crashes come from the failure detector.

    A node in :attr:`dead` crashes the next time the pipeline has it
    act: a helper at its disk read (the ladder then voids that stripe
    and re-plans the pending ones, degrading to direct recovery past
    its budget), the replacement node at its fold or final combine (the
    one loss the ladder aborts on).  A dead node no pending stripe uses
    is never polled and costs nothing.  :meth:`RepairService.mark_dead`
    adds from any thread while the repair thread polls: ``set.add`` and
    ``in`` are each atomic.
    """

    def __init__(self) -> None:
        super().__init__()
        self.dead: set[int] = set()

    def poll(
        self,
        stage,
        *,
        stripe_id,
        node,
        rack,
        attempt=0,
        is_partial=False,
        kinds=None,
    ) -> FaultEvent | None:
        crash = FaultKind.HELPER_CRASH
        if node not in self.dead or (kinds is not None and crash not in kinds):
            return None
        event = FaultEvent(crash, stage, stripe_id, node, rack, attempt)
        self.history.append(event)
        return event


class RepairService:
    """Owns the repair worker thread and its one durable session.

    States (read via the attributes, synchronised by :attr:`done`):

    - running — the thread is executing;
    - finished — :attr:`result` holds the
      :class:`~repro.durable.session.DurableRecoveryResult`;
    - crashed — :attr:`crash` holds the
      :class:`~repro.errors.CoordinatorCrashError`; the journal on disk
      is the resume point for a fresh service;
    - failed — :attr:`error` holds the terminal error (data loss, or
      the replacement node lost).

    Args:
        state: the failed cluster (failure already applied).
        event: the primary failure being repaired.
        strategy: recovery strategy (must be deterministic: a resume
            re-solves with it).
        journal_path: the write-ahead journal.  If the file already
            exists the service *resumes* instead of running — that is
            the whole crash-recovery story.
        clock / admission: service pacing.
        window: stripes in flight per window (small, so pacing is
            fine-grained).
        tracer: worker-thread tracer (keep it distinct from the event
            loop's — :class:`~repro.obs.tracer.Tracer` is not
            thread-safe; merge the event lists afterwards).
        session_meta: extra journal-header keys.
        crash_after_records: arm a coordinator crash after the n-th
            journal record (test hook; mirrors the durable layer's
            crash matrix).
        on_done: callable invoked (from the worker thread) when the
            service reaches a terminal state.
    """

    def __init__(
        self,
        state: ClusterState,
        event: FailureEvent,
        strategy,
        journal_path: str | Path,
        clock: ServiceClock,
        admission: AdmissionController,
        *,
        window: int,
        tracer=None,
        session_meta: dict | None = None,
        crash_after_records: int | None = None,
        on_done=None,
    ) -> None:
        self.state = state
        self.event = event
        self.strategy = strategy
        self.journal_path = Path(journal_path)
        self.clock = clock
        self.admission = admission
        self.window = window
        self.tracer = tracer
        self.session_meta = dict(session_meta or {})
        self.crash_after_records = crash_after_records
        self.on_done = on_done

        self._deaths = _DetectedDeaths()
        self._thread: threading.Thread | None = None
        self.done = threading.Event()
        self.result: DurableRecoveryResult | None = None
        self.crash: CoordinatorCrashError | None = None
        self.error: ReproError | None = None
        self.replans = 0
        self.started_model: float | None = None
        self.finished_model: float | None = None

    # -- control ---------------------------------------------------------

    def start(self) -> None:
        """Launch the worker thread (idempotent per service)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-repair", daemon=True
        )
        self._thread.start()

    def mark_dead(self, node_id: int) -> None:
        """A node died: from now on it crashes whenever the repair uses it."""
        self._deaths.dead.add(int(node_id))

    def join(self, timeout: float | None = None) -> bool:
        """Wait for a terminal state; True iff reached in time."""
        finished = self.done.wait(timeout)
        if finished and self._thread is not None:
            self._thread.join(timeout=5.0)
        return finished

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Secondary failures reported to the repair so far."""
        return frozenset(self._deaths.dead)

    # -- worker ----------------------------------------------------------

    def _run(self) -> None:
        self.started_model = self.clock.now()
        session = RecoverySession(
            self.state, self.event, self.strategy, self.journal_path,
            injector=self._deaths,
            window=self.window,
            progress=RepairGovernor(self.admission, self.clock),
            tracer=self.tracer,
            crash_after_records=self.crash_after_records,
            session_meta={**self.session_meta, "service": "repair"},
        )
        try:
            resume = self.journal_path.exists()
            self.result = session.resume() if resume else session.run()
            if self.result.robust is not None:
                self._count_replans(self.result.robust.log)
        except CoordinatorCrashError as exc:
            self.crash = exc
        except RecoveryAbort as exc:
            self._count_replans(exc.log)
            self.error = exc
        except ReproError as exc:
            self.error = exc
        finally:
            self.finished_model = self.clock.now()
            self.done.set()
            if self.on_done is not None:
                self.on_done(self)

    def _count_replans(self, log: FaultLog) -> None:
        """Every time the ladder re-planned: aggregated, direct, degrade."""
        for action in log.actions:
            if action.action in (ActionKind.REPLAN, ActionKind.DEGRADE):
                self.replans += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "service.repair.replan",
                        node=action.node,
                        detail=action.detail,
                        replans=self.replans,
                    )

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        """Status-reply payload describing the repair's state."""
        if self.result is not None:
            status = "finished"
        elif self.crash is not None:
            status = "crashed"
        elif self.error is not None:
            status = "failed"
        elif self._thread is not None:
            status = "running"
        else:
            status = "idle"
        out = {
            "status": status,
            "failed_node": self.event.failed_node,
            "stripes": self.event.num_stripes,
            "replans": self.replans,
            "dead_nodes": sorted(self._deaths.dead),
            "started_model_s": self.started_model,
            "finished_model_s": self.finished_model,
        }
        if self.result is not None:
            out.update(
                verified=self.result.verified,
                replayed=len(self.result.replayed),
                executed=len(self.result.executed),
                cross_rack_bytes=self.result.cross_rack_bytes,
                live_cross_rack_bytes=self.result.live_cross_rack_bytes,
            )
        return out
