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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster.state import ClusterState, FailureEvent
from repro.durable.journal import JournalReplay, RecoveryJournal
from repro.errors import JournalError
from repro.faults.backoff import BackoffPolicy
from repro.faults.injector import FaultInjector
from repro.faults.robust import RobustExecutionResult, RobustExecutor
from repro.recovery.solution import MultiStripeSolution

__all__ = ["DurableRecoveryResult", "RecoverySession"]


@dataclass
class DurableRecoveryResult:
    """Outcome of a (possibly resumed) durable recovery session.

    Attributes:
        reconstructed: stripe_id -> rebuilt chunk bytes, covering every
            stripe — replayed from commit records and executed live.
        per_stripe_ok: stripe_id -> byte-exact against ground truth
            (commit records store the verdict of the committing run).
        replayed: stripes restored from the journal by this incarnation.
        executed: stripes this incarnation ran live.
        cross_rack_bytes / intra_rack_bytes: traffic of the *whole
            logical session* — committed stripes charged once, from
            their commit records, plus this incarnation's live traffic.
        live_cross_rack_bytes / live_intra_rack_bytes: what this
            incarnation actually moved (the quantity crash-overhead
            bounds sum over incarnations).
        bytes_computed_by_node: whole-session compute, same convention.
        robust: the live executor's result (``None`` when nothing was
            pending — the journal was already complete).
        journal_path: where the journal lives.
    """

    reconstructed: dict[int, np.ndarray] = field(default_factory=dict)
    per_stripe_ok: dict[int, bool] = field(default_factory=dict)
    replayed: tuple[int, ...] = ()
    executed: tuple[int, ...] = ()
    cross_rack_bytes: int = 0
    intra_rack_bytes: int = 0
    live_cross_rack_bytes: int = 0
    live_intra_rack_bytes: int = 0
    bytes_computed_by_node: dict[int, int] = field(default_factory=dict)
    robust: RobustExecutionResult | None = None
    journal_path: Path | None = None

    @property
    def verified(self) -> bool:
        """True iff every stripe of the session reconstructed exactly."""
        return bool(self.per_stripe_ok) and all(self.per_stripe_ok.values())


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

    # -- internals -------------------------------------------------------

    def _executor(self, journal: RecoveryJournal) -> RobustExecutor:
        return RobustExecutor(
            self.state,
            injector=self.injector,
            backoff=self.backoff,
            tracer=self.tracer,
            journal=journal,
        )

    def _solve(self) -> MultiStripeSolution:
        return self.strategy.solve(self.state)

    def _execute(
        self, journal: RecoveryJournal, solution: MultiStripeSolution
    ) -> RobustExecutionResult:
        try:
            return self._executor(journal).run(
                self.event, solution,
                window=self.window, progress=self.progress,
            )
        finally:
            # On a crash the journal must still be a readable artifact.
            journal.close()

    # -- public API ------------------------------------------------------

    def run(self) -> DurableRecoveryResult:
        """Execute the session from scratch, journalling as it goes.

        Raises:
            CoordinatorCrashError: the injected coordinator death; the
                journal on disk is the resume point.
        """
        solution = self._solve()
        stripes = list(solution.stripe_ids())
        journal = RecoveryJournal(
            self.journal_path, crash_after_records=self.crash_after_records
        )
        journal.begin_session(
            {
                "stripes": stripes,
                "strategy": type(self.strategy).__name__,
                "aggregated": solution.aggregated,
                "chunk_size": self.state.data.chunk_size,
                "failed_node": self.event.failed_node,
                "replacement_node": self.event.replacement_node,
                **self.session_meta,
            }
        )
        robust = self._execute(journal, solution)
        journal.end_session(committed=len(robust.result.per_stripe_ok))
        return self._package(
            robust, replayed=(), executed=tuple(stripes)
        )

    def resume(self) -> DurableRecoveryResult:
        """Continue a crashed session from its journal.

        Committed stripes are replayed from their commit records —
        verified bytes, no re-execution, no re-shipped traffic; pending
        stripes run live.  Safe to call repeatedly (each crash during a
        resume leaves a longer journal behind).

        Raises:
            JournalError: if the journal is complete (nothing pending)
                and did not verify, or is structurally invalid.
            CoordinatorCrashError: a crash injected into this resume.
        """
        replay = JournalReplay.load(self.journal_path)
        committed = replay.committed
        pending = replay.pending
        if replay.complete:
            return self._package_replayed(replay)
        journal = RecoveryJournal(
            self.journal_path,
            append=True,
            crash_after_records=self.crash_after_records,
            replay=replay,
        )
        journal.resume_marker(
            replayed=sorted(committed), pending=sorted(pending)
        )
        robust = None
        if pending:
            solution = self._solve().restricted_to(pending)
            if set(solution.stripe_ids()) != set(pending):
                raise JournalError(
                    "strategy did not re-produce solutions for the "
                    f"pending stripes {sorted(pending)}"
                )
            robust = self._execute(journal, solution)
        journal.end_session(
            committed=len(committed)
            + (len(robust.result.per_stripe_ok) if robust else 0)
        )
        return self._package(
            robust,
            replayed=tuple(sorted(committed)),
            executed=tuple(sorted(pending)),
            replay=replay,
        )

    # -- result assembly -------------------------------------------------

    def _package_replayed(self, replay: JournalReplay) -> DurableRecoveryResult:
        out = DurableRecoveryResult(journal_path=self.journal_path)
        self._fold_commits(out, replay, replay.committed)
        out.replayed = tuple(sorted(replay.committed))
        return out

    def _package(
        self,
        robust: RobustExecutionResult | None,
        *,
        replayed: tuple[int, ...],
        executed: tuple[int, ...],
        replay: JournalReplay | None = None,
    ) -> DurableRecoveryResult:
        out = DurableRecoveryResult(
            journal_path=self.journal_path,
            replayed=replayed,
            executed=executed,
            robust=robust,
        )
        if replay is not None:
            self._fold_commits(
                out, replay, {s: replay.committed[s] for s in replayed}
            )
        if robust is not None:
            res = robust.result
            out.reconstructed.update(res.reconstructed)
            out.per_stripe_ok.update(res.per_stripe_ok)
            out.cross_rack_bytes += res.cross_rack_bytes
            out.intra_rack_bytes += res.intra_rack_bytes
            out.live_cross_rack_bytes = (
                res.cross_rack_bytes + robust.wasted_cross_rack_bytes
            )
            out.live_intra_rack_bytes = (
                res.intra_rack_bytes + robust.wasted_intra_rack_bytes
            )
            for node, nbytes in res.bytes_computed_by_node.items():
                out.bytes_computed_by_node[node] = (
                    out.bytes_computed_by_node.get(node, 0) + nbytes
                )
        return out

    def _fold_commits(
        self,
        out: DurableRecoveryResult,
        replay: JournalReplay,
        commits: dict[int, dict],
    ) -> None:
        for stripe_id, record in sorted(commits.items()):
            out.reconstructed[stripe_id] = replay.committed_chunk(stripe_id)
            out.per_stripe_ok[stripe_id] = bool(record["ok"])
            out.cross_rack_bytes += record["cross_rack_bytes"]
            out.intra_rack_bytes += record["intra_rack_bytes"]
            for node, nbytes in record["bytes_computed_by_node"].items():
                node = int(node)
                out.bytes_computed_by_node[node] = (
                    out.bytes_computed_by_node.get(node, 0) + nbytes
                )
