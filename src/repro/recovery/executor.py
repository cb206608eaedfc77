"""Executes recovery plans on real chunk bytes and verifies the result.

This is the end-to-end correctness check of the whole pipeline: the
selector picks racks, the planner schedules flows, and the executor
performs the actual GF(2^w) arithmetic — rack delegates compute partial
decodes (Equation 7), the replacement node combines them — and compares
every reconstructed chunk byte-for-byte against the
:class:`~repro.cluster.state.DataStore` ground truth.  It also returns
the per-node compute and per-scope transfer byte counters that the
timing model (:mod:`repro.sim`) consumes.

There is one way a stripe is repaired.  :meth:`PlanExecutor.execute`
takes the plan a *window* at a time — a
:class:`~repro.recovery.planner.WindowPlan`, the window as columns —
through two stages: **stage A**
(:func:`repro.recovery.streaming.compute_window`, pure computation, one
window ahead per worker thread, a thread per usable CPU by default)
decodes the window as one table, a kernel call for all its partials;
**stage B** (:meth:`PlanExecutor._ship_window`, this thread) takes its
stripes in order — walks each one's checkpoint/delivery events if
anything consumes them, records, sinks and commits it — and then charges
the window's traffic and compute, counted once from the columns.  A stripe's figures,
whether charged to the result or committed to the journal, come from
one place: :meth:`~repro.recovery.planner.WindowPlan.ledger`.

The event walk is organised around named *pipeline stages*
(:class:`PipelineStage`).  Before each stage the executor calls the
:meth:`PlanExecutor._checkpoint` hook with the acting node's identity —
journal records here; the fault-injection layer (:mod:`repro.faults`)
overrides it to crash helpers, stall disks, or drop flows at exactly
that point.  With no journal or overriding subclass every event would
be a no-op, so the walk is skipped; the result is the same either way.
The walk reads a stripe's flows from its row of the window
(:meth:`~repro.recovery.planner.WindowPlan.helpers`) and builds no
per-stripe plan object.  Telemetry does not need the walk, so it does
not change which code path runs: a tracer records two spans per window,
and the ``exec.*`` counters and the ship span's checkpoint counts come
from the window's columns (:func:`_count_window`).

The network is perfect: a delivery hands the receiver the sender's
buffer.  In-flight corruption, and the receipt check that catches it,
live in the one executor that injects faults
(:meth:`repro.faults.robust.RobustExecutor._deliver`).

``journal=`` makes execution crash-resumable: a
:class:`~repro.durable.journal.RecoveryJournal` receives an intent
record for every stripe of a window just before the window ahead of it
ships (at any number of stage-A threads), stage records as cross-rack
payloads ship and decodes land, and a commit record (rebuilt bytes plus
the stripe's traffic and compute, its row of the window's ledger) once
the stripe verifies, so a crash mid-window leaves exactly the
uncommitted stripes pending.  The journal is synced to disk once per
window, after the window's last commit.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.state import ClusterState
from repro.cpus import usable_cpus
from repro.errors import PlanError
from repro.obs import metrics as _metrics
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.recovery import streaming as _streaming
from repro.recovery.planner import (
    RecoveryPlan,
    StreamingRecoveryPlan,
    WindowPlan,
    plan_window,
)
from repro.recovery.solution import NO_HELPER, MultiStripeSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durable.journal import RecoveryJournal
    from repro.obs.progress import ProgressReporter

__all__ = ["PipelineStage", "ExecutionResult", "PlanExecutor"]


class PipelineStage(str, enum.Enum):
    """Named points of the per-stripe recovery pipeline.

    These are the stages a fault can be injected at.  Order within one
    stripe: every helper chunk is read (``DISK_READ``), raw chunks move
    to their delegate or the replacement node (``INTRA_TRANSFER`` /
    ``CROSS_TRANSFER``), each rack delegate partially decodes
    (``PARTIAL_DECODE``) and ships the partial across the core
    (``CROSS_TRANSFER`` with a partial payload), the replacement node
    folds the failed rack's survivors (``LOCAL_FOLD``) and combines
    everything (``FINAL_COMBINE``).
    """

    DISK_READ = "disk_read"
    INTRA_TRANSFER = "intra_transfer"
    CROSS_TRANSFER = "cross_transfer"
    PARTIAL_DECODE = "partial_decode"
    LOCAL_FOLD = "local_fold"
    FINAL_COMBINE = "final_combine"


#: Stages worth a write-ahead journal record: the expensive, externally
#: visible transitions (a payload crossed the core, a delegate decoded,
#: the replacement combined).  Disk reads and intra-rack moves are cheap
#: to redo on resume and would triple the journal for no recovery value.
_JOURNALED_STAGES = frozenset(
    {
        PipelineStage.CROSS_TRANSFER,
        PipelineStage.PARTIAL_DECODE,
        PipelineStage.FINAL_COMBINE,
    }
)


@dataclass
class ExecutionResult:
    """Outcome of executing a recovery plan on real data.

    Attributes:
        reconstructed: stripe_id -> rebuilt chunk buffer.
        per_stripe_ok: stripe_id -> byte-exact match against ground truth.
        bytes_computed_by_node: node -> GF input bytes processed (the
            quantity the computation-time model charges).
        cross_rack_bytes / intra_rack_bytes: transfer volume by scope.
    """

    reconstructed: dict[int, np.ndarray] = field(default_factory=dict)
    per_stripe_ok: dict[int, bool] = field(default_factory=dict)
    bytes_computed_by_node: dict[int, int] = field(default_factory=dict)
    cross_rack_bytes: int = 0
    intra_rack_bytes: int = 0

    @property
    def verified(self) -> bool:
        """True iff every stripe reconstructed byte-exactly."""
        return bool(self.per_stripe_ok) and all(self.per_stripe_ok.values())

    @property
    def total_compute_bytes(self) -> int:
        """Total GF input bytes across all nodes."""
        return sum(self.bytes_computed_by_node.values())

    def record(
        self, stripe_id: int, rebuilt: np.ndarray, ok: bool, sink=None
    ) -> None:
        """Fold one repaired stripe in; with a ``sink`` the rebuilt
        chunk is handed off instead of retained."""
        if sink is not None:
            sink(stripe_id, rebuilt, ok)
        else:
            self.reconstructed[stripe_id] = rebuilt
        self.per_stripe_ok[stripe_id] = ok

    def charge(
        self, cross_bytes: int, intra_bytes: int, charges: dict[int, int]
    ) -> None:
        """Add traffic and per-node compute."""
        self.cross_rack_bytes += cross_bytes
        self.intra_rack_bytes += intra_bytes
        computed = self.bytes_computed_by_node
        for node, nbytes in charges.items():
            computed[node] = computed.get(node, 0) + nbytes


class PlanExecutor:
    """Runs a :class:`RecoveryPlan` against a cluster's stored bytes."""

    def __init__(
        self,
        state: ClusterState,
        tracer: Tracer | NullTracer | None = None,
        *,
        journal: "RecoveryJournal | None" = None,
    ) -> None:
        if state.data is None:
            raise PlanError("executing a plan requires a DataStore")
        self.state = state
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal
        self._windows_done = 0  # of the run in progress (heartbeats)

    def execute(
        self,
        plan: RecoveryPlan | StreamingRecoveryPlan,
        solution: MultiStripeSolution | None = None,
        *,
        window: int | None = None,
        sink=None,
        progress: "ProgressReporter | None" = None,
        workers: int | None = None,
        shm: bool | None = None,
    ) -> ExecutionResult:
        """Execute and verify every stripe of the plan.

        Stripes are consumed ``window`` at a time from a lazy iterator,
        so coordinator memory is O(window) rather than O(stripes) (pair
        a :class:`~repro.recovery.planner.StreamingRecoveryPlan` with a
        ``sink`` to keep even million-stripe runs flat).  The stage A /
        stage B overlap is recorded as ``exec.stream.aggregate`` /
        ``exec.stream.ship`` spans when tracing is on.  The result does
        not depend on ``window`` or ``workers``.

        Args:
            plan: a :class:`RecoveryPlan` (pass the ``solution`` it was
                built from — it supplies the helper grouping for the
                repair-vector split) or a lazy
                :class:`StreamingRecoveryPlan` (pass ``solution=None``).
            window: stripes in flight at once (the memory bound); by
                default :func:`repro.recovery.streaming.default_window`
                of the chunk size.
            sink: optional ``sink(stripe_id, rebuilt, ok)`` callback.
                When given, rebuilt chunks are handed off instead of
                accumulated in ``result.reconstructed``.
            progress: optional
                :class:`~repro.obs.progress.ProgressReporter`, updated
                once per shipped window (stripes done, windows, traffic,
                journal lag) and finished when the run completes.
            workers: stage-A threads; by default one per usable CPU
                (:func:`repro.cpus.usable_cpus`).  Each decodes a whole
                window and stage B still ships every window in order on
                this thread, so journalling and the fault hooks work at
                any count, and the journal, the checkpoint sequence and
                the heartbeats are the same at every count.  At most ``workers + 1`` windows are in
                memory at once.
            shm: ignored.  It named the retired process pool's chunk
                transport and stays only because the benchmark harness
                passes it; it goes when that harness is re-cut.

        Raises:
            PlanError: a window or ``workers`` that is not a positive
                int, a plan/solution mismatch, or a solution that ships
                fractional chunk units (refused before that window is
                submitted).
        """
        result = ExecutionResult()
        self._windows_done = 0
        self._run_windows(
            plan, solution, result, window=window, sink=sink,
            progress=progress, workers=workers,
        )
        if progress is not None:
            self._report_progress(progress, result, final=True)
        return result

    #: The name the windowed pipeline had while there was a second path.
    execute_streaming = execute

    def _window_source(
        self,
        plan: RecoveryPlan | StreamingRecoveryPlan,
        solution: MultiStripeSolution | None,
        window: int,
    ):
        """Either plan form as lazy windows of columns."""
        if isinstance(plan, StreamingRecoveryPlan):
            if solution is not None:
                raise PlanError(
                    "a streaming plan carries its own solutions; "
                    "pass solution=None"
                )
            return plan.iter_windows(window)
        if solution is None:
            raise PlanError(
                "executing a RecoveryPlan needs the MultiStripeSolution "
                "it was built from"
            )
        planned = {sp.stripe_id for sp in plan.stripe_plans}

        def columns():
            for rows in solution.columns().windows(window):
                for stripe in rows.stripe_id.tolist():
                    if stripe not in planned:
                        raise PlanError(f"no stripe plan for stripe {stripe}")
                yield plan_window(
                    self.state, plan.replacement_node, rows,
                    aggregated=plan.aggregated,
                )

        return columns()

    def _observed(self) -> bool:
        """Whether anything acts on a stripe's checkpoint/delivery events.

        With no journal, and no subclass hooking checkpoints or
        deliveries (fault injection), every event of the walk is a
        strict no-op.  A tracer is not asked: it records windows, so it
        cannot change which code path runs.
        """
        return (
            self.journal is not None
            or type(self)._checkpoint is not PlanExecutor._checkpoint
            or type(self)._deliver is not PlanExecutor._deliver
        )

    def _run_windows(
        self,
        plan: RecoveryPlan | StreamingRecoveryPlan,
        solution: MultiStripeSolution | None,
        result: ExecutionResult,
        *,
        window: int | None,
        sink=None,
        progress: "ProgressReporter | None" = None,
        workers: int | None = None,
    ) -> None:
        """The pipeline: repair the plan into ``result``, window by window.

        Two cursors walk the windows.  The *submit cursor* hands stage A
        up to ``workers + 1`` windows, ``workers`` of them decoding
        while stage B ships the oldest.  The *journal cursor* writes a
        window's intents just before the window ahead of it ships, and
        raises a window the plan refused (a plan/solution mismatch,
        fractional chunk units) just before that window would be
        journalled; so the journal, the checkpoint sequence, the
        heartbeats and where an exception leaves the run depend on the
        plan and the window, never on the thread count.  A stripe is in
        ``result`` (and sunk, and committed) only once stage B has
        shipped it, so an exception leaves ``result`` holding exactly
        the stripes that completed.
        """
        code, data = self.state.code, self.state.data
        if window is None:
            window = _streaming.default_window(data.chunk_size)
        _check_count("window", window)
        depth = usable_cpus() if workers is None else workers
        _check_count("workers", depth)
        walk = self._observed()
        stage_a = _streaming.thread_stage(
            code, data, keep_partials=walk, workers=depth
        )
        windows = iter(self._window_source(plan, solution, window))

        inflight: deque = deque()  # (window, future), oldest first
        refused: list[Exception] = []  # what the plan raised, if it did
        shipped = 0  # windows stage B has shipped
        journalled = 0  # windows whose intents are written
        uncommitted = 0  # journal intents whose commits have not landed

        def pull() -> bool:
            """Advance the submit cursor by one window, if there is one."""
            try:
                win = next(windows)
                win.require_whole_chunks()
            except StopIteration:
                return False
            except Exception as exc:
                # Held until the journal cursor reaches this window.
                refused.append(exc)
                return False
            inflight.append((win, submit(win)))
            return True

        def journal_through(last: int) -> None:
            """Advance the journal cursor past window ``last``."""
            nonlocal journalled, uncommitted
            while journalled <= last:
                ahead = journalled - shipped
                if ahead == len(inflight):
                    if refused:
                        raise refused[0]
                    return
                win = inflight[ahead][0]
                if self.journal is not None:
                    # Intent for every stripe of the window up front:
                    # on a crash mid-window the un-committed stripes are
                    # exactly the journal's pending set.
                    for stripe, lost in zip(
                        win.stripe_id.tolist(), win.lost_chunk.tolist()
                    ):
                        self.journal.stripe_intent(
                            stripe, aggregated=win.aggregated, lost_chunk=lost
                        )
                    uncommitted += len(win)
                journalled += 1

        with stage_a as submit:
            more = True
            while True:
                while more and len(inflight) <= depth:
                    more = pull()
                journal_through(shipped + 1)
                if not inflight:
                    break
                win, computed = inflight.popleft()
                self._ship_window(
                    shipped, win, computed.result(), result, sink, walk
                )
                shipped += 1
                self._windows_done += 1
                if self.journal is not None:
                    uncommitted -= len(win)
                if progress is not None and inflight:
                    # Journal lag is the crash-exposure window.
                    self._report_progress(progress, result, lag=uncommitted)

    def _report_progress(
        self,
        progress: "ProgressReporter",
        result: ExecutionResult,
        lag: int = 0,
        final: bool = False,
    ) -> None:
        """One rate-limited heartbeat from the current result totals."""
        update = progress.finish if final else progress.update
        update(
            len(result.per_stripe_ok),
            windows_done=self._windows_done,
            cross_rack_bytes=result.cross_rack_bytes,
            intra_rack_bytes=result.intra_rack_bytes,
            journal_lag=lag,
        )

    def _ship_window(
        self, idx: int, win: WindowPlan, outcome, result, sink, walk
    ) -> None:
        """Stage B for window ``idx``: walk, record, commit, charge.

        Stripes ship in order.  If a hook raises, that stripe is neither
        recorded nor sunk nor committed; either way the window's traffic
        and compute are then charged, from its columns, for exactly the
        stripes that shipped, and a tracer gets the window's
        ``exec.stream.aggregate`` / ``exec.stream.ship`` spans, the
        latter carrying those stripes' bytes and checkpoint counts.  A
        commit's figures are its row's ledger.
        """
        b0 = time.perf_counter()
        chunk_bytes = self.state.data.chunk_size
        shipped = 0
        try:
            for i, stripe in enumerate(win.stripe_id.tolist()):
                if walk:
                    self._walk_stripe(stripe, outcome, i, win)
                result.record(stripe, outcome.rebuilt[i], outcome.ok[i], sink)
                if self.journal is not None:
                    cross, intra, charges = win.ledger(
                        chunk_bytes, slice(i, i + 1)
                    )
                    self.journal.stripe_commit(
                        stripe,
                        outcome.rebuilt[i],
                        lost_chunk=int(win.lost_chunk[i]),
                        ok=outcome.ok[i],
                        cross_rack_bytes=cross,
                        intra_rack_bytes=intra,
                        bytes_computed_by_node=charges,
                    )
                shipped += 1
            if self.journal is not None:
                # Group commit: one disk sync makes the whole window's
                # commits durable.
                self.journal.sync()
        finally:
            cross, intra, charges = win.ledger(chunk_bytes, slice(0, shipped))
            result.charge(cross, intra, charges)
            checkpoints = _count_window(_metrics.CURRENT, win, shipped)
            if self.tracer.enabled:
                self.tracer.emit_span(
                    "exec.stream.aggregate", outcome.started,
                    outcome.finished, window=idx, stripes=len(win),
                    thread=outcome.thread,
                )
                self.tracer.emit_span(
                    "exec.stream.ship", b0, time.perf_counter(),
                    window=idx, stripes=shipped, cross_rack_bytes=cross,
                    intra_rack_bytes=intra, **checkpoints,
                )

    def _walk_stripe(
        self, sid: int, outcome, i: int, win: WindowPlan
    ) -> None:
        """Fire one stripe's checkpoints and deliveries in pipeline order.

        ``sid`` is the stripe of row ``i`` of ``win``.  Every helper chunk
        is read, raw chunks move to their delegate or the replacement
        node, the replacement node folds each group it combines itself
        (the failed rack's survivors, say), each delegate partially
        decodes and ships its partial, and the replacement node
        combines.  The decode itself already happened in stage A; a
        delivery ships a buffer stage A read or produced, so its bytes
        are the ones that were decoded.
        """
        repl = win.replacement_node
        data, topology = self.state.data, self.state.topology
        for c, node in sorted(zip(win.chunk[i].tolist(), win.node[i].tolist())):
            if c == NO_HELPER:
                continue
            self._checkpoint(
                PipelineStage.DISK_READ,
                stripe_id=sid, node=node, rack=topology.rack_of(node),
                chunk=c,
            )
        helpers = win.helpers(i)
        for rack, c, node, _, raw, _, crossing in helpers:
            if raw:
                self._deliver(
                    _scope(crossing), data.chunk(sid, c),
                    stripe_id=sid, node=node, rack=rack, chunk=c,
                )
        for _ in range(int(win.local_folds[i])):
            self._checkpoint(
                PipelineStage.LOCAL_FOLD,
                stripe_id=sid, node=repl, rack=win.replacement_rack,
            )
        buffers = outcome.partials_of(i)
        for rack, _, _, delegate, _, partial, crossing in helpers:
            if not partial:
                continue
            self._checkpoint(
                PipelineStage.PARTIAL_DECODE,
                stripe_id=sid, node=delegate, rack=rack, is_partial=True,
            )
            self._deliver(
                _scope(crossing), buffers[rack],
                stripe_id=sid, node=delegate, rack=rack, is_partial=True,
            )
        self._checkpoint(
            PipelineStage.FINAL_COMBINE,
            stripe_id=sid, node=repl, rack=win.replacement_rack,
        )

    # -- hooks ------------------------------------------------------------

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
        """Stage hook; the fault-injection executor extends this.

        The base writes a journal record at the journalled stages; it is
        a strict no-op otherwise.
        """
        if self.journal is not None and stage in _JOURNALED_STAGES:
            self.journal.stage(
                stripe_id,
                stage.value,
                node=node,
                rack=rack,
                chunk=chunk,
                is_partial=is_partial,
            )

    def _deliver(
        self,
        stage: PipelineStage,
        buf: np.ndarray,
        *,
        stripe_id: int,
        node: int,
        rack: int,
        chunk: int | None = None,
        is_partial: bool = False,
    ) -> None:
        """Ship one buffer through a transfer stage.

        The stage checkpoint fires (the fault layer's crash/stall/drop
        point, and the journal's stage record).  The network is perfect,
        so the sender's buffer arrives as it is.  Nothing is returned:
        the decode already ran in stage A, so a receipt gates the
        stripe's record and commit by raising, never by what it hands
        back.  The fault-injection executor extends this with in-flight
        corruption and a checksum on receipt.
        """
        self._checkpoint(
            stage,
            stripe_id=stripe_id,
            node=node,
            rack=rack,
            chunk=chunk,
            is_partial=is_partial,
        )


def _check_count(name: str, value) -> None:
    """Refuse a window or thread count that is not a positive int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise PlanError(f"{name} must be a positive int, got {value!r}")


def _scope(crossing: bool) -> PipelineStage:
    """The transfer stage of a flow that does or does not cross the core."""
    return (
        PipelineStage.CROSS_TRANSFER if crossing
        else PipelineStage.INTRA_TRANSFER
    )


def _count_window(reg, win: WindowPlan, shipped: int) -> dict[str, int]:
    """The checkpoints of a window's first ``shipped`` stripes, by stage.

    Counted from the columns, once per window: the checkpoints each
    shipped stripe's walk fires (or would fire) at every stage, keyed
    ``<stage>_checkpoints`` as the ship span carries them.  With a
    registry ``reg`` they also bump ``exec.stripes`` and
    ``exec.stage.checkpoints``.
    """
    counts = {
        stage: int(column[:shipped].sum())
        for stage, column in (
            (PipelineStage.DISK_READ, win.reads),
            (PipelineStage.INTRA_TRANSFER, win.intra),
            (PipelineStage.CROSS_TRANSFER, win.cross),
            (PipelineStage.PARTIAL_DECODE, win.partial_decodes),
            (PipelineStage.LOCAL_FOLD, win.local_folds),
        )
    }
    counts[PipelineStage.FINAL_COMBINE] = shipped
    if reg is not None and shipped:
        mode = "aggregated" if win.aggregated else "direct"
        reg.counter("exec.stripes").inc(shipped, mode=mode)
        checkpoints = reg.counter("exec.stage.checkpoints")
        for stage, n in counts.items():
            if n:
                checkpoints.inc(n, stage=stage.value)
    return {f"{stage.value}_checkpoints": n for stage, n in counts.items()}
