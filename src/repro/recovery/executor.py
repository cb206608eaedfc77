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
takes ``(solution, stripe_plan)`` pairs a *window* at a time through two
stages: **stage A** (:func:`repro.recovery.streaming.compute_window`,
pure computation, one window ahead on a worker thread) decodes the
window as one table, a kernel call for all its partials; **stage B**
(:meth:`PlanExecutor._ship_stripe`, this thread) takes its stripes in
order — derives each one's traffic and compute once, walks its
checkpoint/delivery events if anything consumes them, and only then
records, sinks and commits it.

The event walk is organised around named *pipeline stages*
(:class:`PipelineStage`).  Before each stage the executor calls the
:meth:`PlanExecutor._checkpoint` hook with the acting node's identity —
telemetry and journal records here; the fault-injection layer
(:mod:`repro.faults`) overrides it to crash helpers, stall disks, or
drop flows at exactly that point.  With no tracer, metrics registry,
journal, integrity check or overriding subclass every event would be a
no-op, so the walk is skipped; the result is the same either way.

Two orthogonal durability features (both off by default):

- ``verify_integrity=True`` routes every transferred buffer — raw
  helper chunks and partially decoded aggregates alike — through
  :meth:`PlanExecutor._deliver`: checksummed at creation, passed
  through the :meth:`_transmit` hook (where the fault layer can corrupt
  bytes in flight), and verified on receipt.  A mismatch invokes
  :meth:`_on_corrupt` — here a hard :class:`IntegrityError`, in the
  robust executor a retransmit ladder — so no stripe is recorded, sunk
  or committed on an unverified byte.
- ``journal=`` makes execution crash-resumable: a
  :class:`~repro.durable.journal.RecoveryJournal` receives an intent
  record for every stripe of a window as the window enters the
  pipeline, stage records as cross-rack payloads ship and decodes land,
  and a commit record (rebuilt bytes plus the stripe's traffic and
  compute) once the stripe verifies, so a crash mid-window leaves
  exactly the uncommitted stripes pending.  The journal is synced to
  disk once per window, after the window's last commit.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.state import ClusterState
from repro.durable.checksum import chunk_checksum
from repro.errors import ConfigurationError, IntegrityError, PlanError
from repro.obs import metrics as _metrics
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.recovery import streaming as _streaming
from repro.recovery.planner import RecoveryPlan, StreamingRecoveryPlan
from repro.recovery.solution import MultiStripeSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durable.journal import RecoveryJournal
    from repro.obs.profile import ResourceSampler
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
        self,
        stripe_id: int,
        rebuilt: np.ndarray,
        ok: bool,
        cross_bytes: int,
        intra_bytes: int,
        charges: dict[int, int],
        sink=None,
    ) -> None:
        """Fold one repaired stripe in; with a ``sink`` the rebuilt
        chunk is handed off instead of retained."""
        if sink is not None:
            sink(stripe_id, rebuilt, ok)
        else:
            self.reconstructed[stripe_id] = rebuilt
        self.per_stripe_ok[stripe_id] = ok
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
        verify_integrity: bool = False,
        profiler: "ResourceSampler | None" = None,
    ) -> None:
        if state.data is None:
            raise PlanError("executing a plan requires a DataStore")
        self.state = state
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal
        self.verify_integrity = verify_integrity
        # Optional background resource sampler bracketing a run.  One
        # ``is None`` check per call; stripes never see it.
        self.profiler = profiler
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
        ``exec.stream.ship`` spans when tracing is on; because the
        metrics registry is not thread-safe, an active registry runs the
        two stages one after the other (on the same two threads).  The
        result does not depend on ``window`` or ``workers``.

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
            workers: fan stage A over this many *processes* (chunk data
                is shared zero-copy via :mod:`repro.io_shm` unless
                ``shm=False``).
            shm: force shared-memory (True) or pickled (False) chunk
                transport for ``workers > 1``; None picks shared memory.

        Raises:
            PlanError: bad window, or plan/solution mismatch.
            ConfigurationError: ``workers > 1`` with a journal or
                integrity verification attached.
        """
        result = ExecutionResult()
        with self._run_scope():
            self._run_windows(
                plan, solution, result, window=window, sink=sink,
                progress=progress, workers=workers, shm=shm,
            )
            if progress is not None:
                self._report_progress(progress, result, final=True)
        return result

    #: The name the windowed pipeline had while there was a second path.
    execute_streaming = execute

    def _run_scope(self):
        """Bracket one run: heartbeat counters reset, profiler sampling."""
        self._windows_done = 0
        return self.profiler if self.profiler is not None else nullcontext()

    def _pairs(
        self,
        plan: RecoveryPlan | StreamingRecoveryPlan,
        solution: MultiStripeSolution | None,
    ):
        """Either plan form as one lazy ``(sol, sp)`` iterator."""
        if isinstance(plan, StreamingRecoveryPlan):
            if solution is not None:
                raise PlanError(
                    "a streaming plan carries its own solutions; "
                    "pass solution=None"
                )
            yield from plan.iter_stripe_plans()
            return
        if solution is None:
            raise PlanError(
                "executing a RecoveryPlan needs the MultiStripeSolution "
                "it was built from"
            )
        by_id = {sp.stripe_id: sp for sp in plan.stripe_plans}
        for sol in solution.solutions:
            if sol.stripe_id not in by_id:
                raise PlanError(f"no stripe plan for stripe {sol.stripe_id}")
            yield sol, by_id[sol.stripe_id]

    def _observed(self) -> bool:
        """Whether anything consumes a stripe's checkpoint/delivery events.

        With no tracer, registry, journal or integrity check, and no
        subclass hooking checkpoints or deliveries (fault injection),
        every event of the walk is a strict no-op.
        """
        return (
            self.tracer.enabled
            or _metrics.CURRENT is not None
            or self.journal is not None
            or self.verify_integrity
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
        shm: bool | None = None,
    ) -> None:
        """The pipeline: repair the plan into ``result``, window by window.

        Stage A runs ``depth`` windows ahead of stage B; a stripe is in
        ``result`` (and sunk, and committed) only once stage B has
        shipped it, so an exception leaves ``result`` holding exactly
        the stripes that completed.
        """
        code, data = self.state.code, self.state.data
        if window is None:
            window = _streaming.default_window(data.chunk_size)
        if window < 1:
            raise PlanError(f"window must be >= 1, got {window}")
        aggregated, repl = plan.aggregated, plan.replacement_node
        observed = self._observed()
        if workers is not None and workers > 1:
            if self.journal is not None or self.verify_integrity:
                raise ConfigurationError(
                    "workers > 1 can neither journal nor verify integrity: "
                    "the write-ahead journal is single-writer and workers "
                    "skip the in-flight delivery pipeline (run workers=1)"
                )
            stage_a = _streaming.process_stage(
                code, data, aggregated, repl, workers=workers, shm=shm
            )
            depth = 2 * workers

            def ship(shipment) -> None:
                result.record(*shipment, sink)
        else:
            stage_a = _streaming.thread_stage(
                code, data, aggregated, keep_partials=observed
            )
            depth = 1

            def ship(outcome) -> None:
                self._ship_stripe(
                    outcome, result, aggregated, repl, sink, observed
                )

        uncommitted = 0  # journal intents whose commits have not landed
        inflight: deque = deque()

        def ship_oldest(last: bool = False) -> None:
            nonlocal uncommitted
            idx, computed = inflight.popleft()
            outcomes, a0, a1 = computed.result()
            b0 = time.perf_counter()
            before_cross = result.cross_rack_bytes
            before_intra = result.intra_rack_bytes
            for outcome in outcomes:
                ship(outcome)
            if self.journal is not None:
                # Group commit: one disk sync makes the whole window's
                # commits durable.
                self.journal.sync()
            if self.tracer.enabled:
                n = len(outcomes)
                self.tracer.emit_span(
                    "exec.stream.aggregate", a0, a1, window=idx, stripes=n
                )
                self.tracer.emit_span(
                    "exec.stream.ship", b0, time.perf_counter(),
                    window=idx, stripes=n,
                    cross_rack_bytes=result.cross_rack_bytes - before_cross,
                    intra_rack_bytes=result.intra_rack_bytes - before_intra,
                )
            self._windows_done += 1
            if self.journal is not None:
                uncommitted -= len(outcomes)
            if progress is not None and not last:
                # Journal lag is the crash-exposure window.
                self._report_progress(progress, result, lag=uncommitted)

        with stage_a as submit:
            pairs = self._pairs(plan, solution)
            for idx, win in enumerate(_streaming.windows(pairs, window)):
                if self.journal is not None:
                    # Intent for every stripe of the window up front:
                    # on a crash mid-window the un-committed stripes are
                    # exactly the journal's pending set.
                    for sol, _sp in win:
                        self.journal.stripe_intent(
                            sol.stripe_id,
                            aggregated=aggregated,
                            lost_chunk=sol.lost_chunk,
                        )
                    uncommitted += len(win)
                inflight.append((idx, submit(win)))
                if len(inflight) > depth:
                    ship_oldest()
            while inflight:
                ship_oldest(last=len(inflight) == 1)

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

    def _ship_stripe(
        self, outcome, result, aggregated, repl, sink, observed
    ) -> None:
        """Stage B for one decoded stripe: walk, record, commit.

        The stripe's traffic and compute are derived once, from its
        plan; the event walk (checkpoints, verified deliveries) only
        decides *whether* the stripe completes.  If a hook raises, the
        stripe is neither recorded nor sunk nor committed.
        """
        sol = outcome.sol
        cross, intra, charges = _streaming.stripe_accounting(
            outcome, aggregated, repl, self.state.data.chunk_size
        )
        if observed:
            with self.tracer.span(
                "exec.stripe", stripe_id=sol.stripe_id, aggregated=aggregated
            ):
                self._walk_stripe(outcome, aggregated, repl)
            reg = _metrics.CURRENT
            if reg is not None:
                mode = "aggregated" if aggregated else "direct"
                reg.counter("exec.stripes").inc(mode=mode)
        result.record(
            sol.stripe_id, outcome.rebuilt, outcome.ok,
            cross, intra, charges, sink,
        )
        if self.journal is not None:
            self.journal.stripe_commit(
                sol.stripe_id,
                outcome.rebuilt,
                lost_chunk=sol.lost_chunk,
                ok=outcome.ok,
                cross_rack_bytes=cross,
                intra_rack_bytes=intra,
                bytes_computed_by_node=charges,
            )

    def _walk_stripe(self, outcome, aggregated: bool, repl: int) -> None:
        """Fire one stripe's checkpoints and deliveries in pipeline order.

        Every helper chunk is read, raw chunks move to their delegate or
        the replacement node, each delegate partially decodes and ships
        its partial, the replacement node folds the failed rack's
        survivors and combines.  The decode itself already happened in
        stage A; a delivery hands back the verified copy of a buffer
        stage A read, so its bytes are the ones that were decoded.
        """
        sol, sp = outcome.sol, outcome.sp
        sid = sol.stripe_id
        data, topology = self.state.data, self.state.topology
        for c in sol.helpers:
            node = self.state.placement.node_of(sid, c)
            self._checkpoint(
                PipelineStage.DISK_READ,
                stripe_id=sid, node=node, rack=topology.rack_of(node),
                chunk=c,
            )
        partial_from = {}
        for t in sp.transfers:
            if t.is_partial:
                # Shipped with its decode, below, to keep pipeline order.
                partial_from[t.src_node] = t
                continue
            self._deliver(
                _transfer_stage(t),
                data.chunk(sid, t.chunk_index),
                stripe_id=sid, node=t.src_node, rack=t.src_rack,
                chunk=t.chunk_index,
            )
        if aggregated:
            for group in sorted(
                outcome.groups,
                key=lambda g: (g.group_key != sol.failed_rack, g.group_key),
            ):
                rack = group.group_key
                if rack == sol.failed_rack:
                    self._checkpoint(
                        PipelineStage.LOCAL_FOLD,
                        stripe_id=sid, node=repl,
                        rack=topology.rack_of(repl),
                    )
                    continue
                node = sp.delegates[rack]
                self._checkpoint(
                    PipelineStage.PARTIAL_DECODE,
                    stripe_id=sid, node=node, rack=rack, is_partial=True,
                )
                if node not in partial_from:
                    raise PlanError(
                        f"no partial transfer leaves delegate {node}"
                    )
                self._deliver(
                    _transfer_stage(partial_from[node]),
                    outcome.partials[rack],
                    stripe_id=sid, node=node, rack=rack, is_partial=True,
                )
        self._checkpoint(
            PipelineStage.FINAL_COMBINE,
            stripe_id=sid, node=repl, rack=topology.rack_of(repl),
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

        The base emits one ``exec.stage`` trace event (and a per-stage
        counter) per checkpoint when telemetry is enabled; it is a
        strict no-op otherwise.
        """
        if self.tracer.enabled:
            self.tracer.event(
                "exec.stage",
                stage=stage.value,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                chunk=chunk,
                is_partial=is_partial,
            )
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("exec.stage.checkpoints").inc(stage=stage.value)
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
    ) -> np.ndarray:
        """Ship one buffer through a transfer stage, verified on receipt.

        The stage checkpoint fires first (preserving the fault layer's
        crash/stall/drop semantics and checkpoint ordering).  With
        integrity verification off this is the whole story and the
        sender's buffer is returned untouched.  With it on, the buffer
        is checksummed at creation, pushed through :meth:`_transmit`
        (where the fault layer may corrupt it), and re-checksummed on
        receipt; every mismatch calls :meth:`_on_corrupt` and, if that
        returns, retransmits.  Only a buffer whose received checksum
        matches the sender's is ever returned to a decode.
        """
        self._checkpoint(
            stage,
            stripe_id=stripe_id,
            node=node,
            rack=rack,
            chunk=chunk,
            is_partial=is_partial,
        )
        if not self.verify_integrity:
            return buf
        expected = chunk_checksum(buf)
        attempt = 0
        while True:
            received = self._transmit(
                stage,
                buf,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                attempt=attempt,
                is_partial=is_partial,
            )
            if chunk_checksum(received) == expected:
                reg = _metrics.CURRENT
                if reg is not None:
                    reg.counter("integrity.verified").inc(stage=stage.value)
                return received
            attempt += 1
            reg = _metrics.CURRENT
            if reg is not None:
                reg.counter("integrity.corruptions").inc(stage=stage.value)
            self._on_corrupt(
                stage,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                attempt=attempt,
                is_partial=is_partial,
            )

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
        """Network hook: what the receiver sees.

        The base network is perfect — the sender's buffer arrives as
        is.  The fault layer overrides this to corrupt bytes in flight
        (:attr:`~repro.faults.events.FaultKind.IN_FLIGHT_CORRUPT`).
        """
        return buf

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
        """Checksum-mismatch hook; returning means "retransmit".

        Without a fault-handling layer a corrupt receipt is fatal — the
        plain executor has no retry policy, and silently re-reading
        would hide real faults.  The robust executor overrides this
        with the RETRY/ESCALATE ladder.
        """
        raise IntegrityError(
            f"checksum mismatch at {stage.value}: payload from node {node} "
            f"(stripe {stripe_id}, attempt {attempt})"
        )


def _transfer_stage(transfer) -> PipelineStage:
    return (
        PipelineStage.CROSS_TRANSFER
        if transfer.cross_rack
        else PipelineStage.INTRA_TRANSFER
    )
