"""Crash-resumable recovery sessions driven by the write-ahead journal.

A :class:`RecoverySession` binds one failed cluster, one recovery
strategy, and one journal path.  :meth:`RecoverySession.run` executes
the whole recovery under a :class:`~repro.faults.robust.RobustExecutor`
with journalling on; if the coordinator dies —
:class:`~repro.errors.CoordinatorCrashError`, whether injected between
journal records or fired at a pipeline checkpoint — the journal is all
that survives.  :meth:`RecoverySession.resume` then replays it: every
committed stripe's rebuilt bytes come straight out of its commit record
(checksum-verified, zero re-shipped traffic), and only the pending
stripes execute.  Resume is itself crash-resumable, so a driver loops
``resume()`` until it returns.

The idempotence contract the property suite asserts: however many
crashes interrupt a session, the union of replayed and re-executed
stripes is byte-identical to an uninterrupted run, and the cross-rack
traffic actually transferred exceeds the uninterrupted run's only by
the stripes in flight when each crash hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.cluster.state import ClusterState, FailureEvent
from repro.durable.checksum import decode_payload
from repro.durable.journal import JournalReplay, RecoveryJournal
from repro.errors import JournalError
from repro.faults.backoff import BackoffPolicy
from repro.faults.injector import FaultInjector
from repro.faults.robust import RobustExecutionResult, RobustExecutor
from repro.recovery.executor import ExecutionResult
from repro.recovery.solution import MultiStripeSolution

__all__ = ["DurableRecoveryResult", "RecoverySession"]


@dataclass
class DurableRecoveryResult(ExecutionResult):
    """Outcome of a (possibly resumed) durable recovery session.

    The inherited :class:`~repro.recovery.executor.ExecutionResult`
    fields cover the *whole logical session*: every stripe's rebuilt
    bytes and verdict, its traffic and its compute, committed stripes
    from their commit records (charged once, with the verdict of the
    committing run) and this incarnation's stripes from its live round.

    Attributes:
        replayed: stripes restored from the journal by this incarnation.
        executed: stripes this incarnation ran live.
        live_cross_rack_bytes / live_intra_rack_bytes: what this
            incarnation actually moved (the quantity crash-overhead
            bounds sum over incarnations).
        robust: the live executor's result (``None`` when nothing was
            pending — the journal was already complete).
        journal_path: where the journal lives.
    """

    replayed: tuple[int, ...] = ()
    executed: tuple[int, ...] = ()
    live_cross_rack_bytes: int = 0
    live_intra_rack_bytes: int = 0
    robust: RobustExecutionResult | None = None
    journal_path: Path | None = None


class RecoverySession:
    """One durable recovery: run it, crash it, resume it.

    Args:
        state: the failed cluster (with a DataStore).
        event: the failure being repaired.
        strategy: any recovery strategy (must be deterministic — resume
            re-solves and trusts it produces the same per-stripe
            solutions).
        journal_path: where the write-ahead journal lives.
        injector / backoff / tracer: passed to the underlying
            :class:`RobustExecutor`.
        crash_after_records: inject a coordinator crash after the n-th
            journal record of the next incarnation (run *or* resume).
        session_meta: extra keys merged into the journal's session
            header (e.g. config name and seed, so a later process can
            rebuild the identical state from the journal alone).
        window: stripes in flight at once (default: sized from the
            chunk size, see
            :func:`~repro.recovery.streaming.default_window`).  Every
            stripe of a window gets its intent record before the window
            ships, so the window is also how many intents a crash can
            leave without a commit.
        progress: optional
            :class:`~repro.obs.progress.ProgressReporter` — heartbeats
            carry journal lag (intents without commits), the
            crash-exposure window a durable run cares about.
    """

    def __init__(
        self,
        state: ClusterState,
        event: FailureEvent,
        strategy,
        journal_path: str | Path,
        *,
        injector: FaultInjector | None = None,
        backoff: BackoffPolicy | None = None,
        tracer=None,
        crash_after_records: int | None = None,
        session_meta: dict | None = None,
        window: int | None = None,
        progress=None,
    ) -> None:
        self.state = state
        self.event = event
        self.strategy = strategy
        self.journal_path = Path(journal_path)
        self.injector = injector
        self.backoff = backoff
        self.tracer = tracer
        self.crash_after_records = crash_after_records
        self.session_meta = dict(session_meta or {})
        self.window = window
        self.progress = progress

    # -- public API ------------------------------------------------------

    def run(self) -> DurableRecoveryResult:
        """Execute the session from scratch, journalling as it goes.

        Raises:
            CoordinatorCrashError: the injected coordinator death; the
                journal on disk is the resume point.
        """
        return self._session(None)

    def resume(self) -> DurableRecoveryResult:
        """Continue a crashed session from its journal.

        Committed stripes are replayed from their commit records —
        verified bytes, no re-execution, no re-shipped traffic; pending
        stripes run live.  Safe to call repeatedly (each crash during a
        resume leaves a longer journal behind).

        Raises:
            JournalError: if the journal is complete (nothing pending)
                and did not verify, or is structurally invalid, or the
                strategy no longer covers the pending stripes.  A
                rejected resume appends nothing.
            CoordinatorCrashError: a crash injected into this resume.
        """
        return self._session(JournalReplay.load(self.journal_path))

    # -- the one journalled path -----------------------------------------

    def _executor(self, journal: RecoveryJournal) -> RobustExecutor:
        return RobustExecutor(
            self.state,
            injector=self.injector,
            backoff=self.backoff,
            tracer=self.tracer,
            journal=journal,
        )

    def _session(self, replay: JournalReplay | None) -> DurableRecoveryResult:
        """Run what ``replay`` has not committed; a fresh run is the
        resume of an empty journal (``replay=None``).

        Everything that can reject the incarnation — loading the
        journal, re-solving the pending stripes — happens before the
        journal is opened, so a rejected resume appends nothing.
        """
        out = DurableRecoveryResult(journal_path=self.journal_path)
        committed = {} if replay is None else replay.committed
        for stripe_id, record in sorted(committed.items()):
            out.record(stripe_id, decode_payload(record), bool(record["ok"]))
            computed = record["bytes_computed_by_node"]
            out.charge(
                record["cross_rack_bytes"],
                record["intra_rack_bytes"],
                {int(node): n for node, n in computed.items()},
            )
        out.replayed = tuple(sorted(committed))
        if replay is not None and replay.complete:
            return out
        solution = self._pending(replay)
        if solution is not None:
            out.executed = solution.stripe_ids()
        journal = RecoveryJournal(
            self.journal_path,
            append=replay is not None,
            crash_after_records=self.crash_after_records,
            replay=replay,
        )
        try:
            if replay is None:
                journal.begin_session(
                    {
                        "stripes": list(out.executed),
                        "strategy": type(self.strategy).__name__,
                        "aggregated": solution.aggregated,
                        "chunk_size": self.state.data.chunk_size,
                        "failed_node": self.event.failed_node,
                        "replacement_node": self.event.replacement_node,
                        **self.session_meta,
                    }
                )
            else:
                journal.resume_marker(
                    replayed=list(out.replayed), pending=list(out.executed)
                )
            if solution is not None:
                robust = out.robust = self._executor(journal).run(
                    self.event, solution,
                    window=self.window, progress=self.progress,
                )
                live = robust.result
                for stripe_id, ok in live.per_stripe_ok.items():
                    out.record(stripe_id, live.reconstructed[stripe_id], ok)
                out.charge(
                    live.cross_rack_bytes,
                    live.intra_rack_bytes,
                    live.bytes_computed_by_node,
                )
                out.live_cross_rack_bytes = (
                    live.cross_rack_bytes + robust.wasted_cross_rack_bytes
                )
                out.live_intra_rack_bytes = (
                    live.intra_rack_bytes + robust.wasted_intra_rack_bytes
                )
            journal.end_session(committed=len(out.per_stripe_ok))
        finally:
            # On a crash the journal must still be a readable artifact.
            journal.close()
        return out

    def _pending(
        self, replay: JournalReplay | None
    ) -> MultiStripeSolution | None:
        """What this incarnation executes: the strategy's whole solution
        for a fresh run, its pending stripes' part on a resume (``None``
        when every stripe committed but the session never ended).

        Raises:
            JournalError: if the strategy no longer covers the pending
                stripes.
        """
        if replay is None:
            return self.strategy.solve(self.state)
        pending = replay.pending
        if not pending:
            return None
        solution = self.strategy.solve(self.state).restricted_to(pending)
        if set(solution.stripe_ids()) != set(pending):
            raise JournalError(
                "strategy did not re-produce solutions for the "
                f"pending stripes {sorted(pending)}"
            )
        return solution
