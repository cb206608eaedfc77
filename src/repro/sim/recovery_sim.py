"""Recovery-time simulation: plan -> task DAG -> fluid network simulation.

Converts a :class:`~repro.recovery.planner.RecoveryPlan` into the task
DAG the fluid simulator executes:

- every raw chunk leaving a node is preceded by a sequential **disk
  read** on that node (serial per-disk resource);
- a rack delegate's **partial decode** (CPU, serial per node) waits for
  its own read plus the intra-rack flows delivering the other chunks;
- the delegate's **cross-rack flow** carries the partially decoded
  chunk and waits for the decode;
- the replacement node's **final combine** waits for everything the
  stripe sent it, then a **disk write** persists the rebuilt chunk.

The result is summarised as a :class:`RecoveryTiming` with the three
quantities the evaluation uses: total recovery time (Figure 9),
decoding computation time, and the network-bottleneck transmission time
(Figure 10).

A :class:`~repro.faults.timeline.FaultTimeline` (from a fault-injected
robust run) can be threaded through: injected disk stalls become serial
tasks on the stalled disk that the stripe's reads queue behind, and
dropped flows become retransmitted full-size flows the real flow waits
for — so fault recovery time lands in ``total_time`` and is broken out
as ``fault_time``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.state import ClusterState
from repro.errors import PlanError
from repro.network.flow import SimTask, flow_task, serial_task
from repro.network.links import FabricModel
from repro.network.simulator import FluidNetworkSimulator, SimResult
from repro.obs import metrics as _metrics
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.recovery.planner import RecoveryPlan, StripePlan
from repro.sim.hardware import HardwareModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.timeline import FaultTimeline

__all__ = [
    "DurabilityCostModel",
    "RecoveryTiming",
    "RecoverySimulator",
    "build_tasks",
]


@dataclass(frozen=True)
class DurabilityCostModel:
    """Simulated-time cost of the durability layer.

    When threaded into :class:`RecoverySimulator`, every stripe pays a
    write-ahead intent append before any work and a commit append (plus
    the payload checksum) after its disk write, both serialised on the
    coordinator's journal disk; every received payload pays a CRC
    verification on the receiving CPU before anything may consume it.

    The real journal (:class:`~repro.durable.journal.RecoveryJournal`)
    appends each record with one ``writev`` and syncs the disk once per
    *window*, after the window's last commit.  The model keeps the
    upper bound instead — every intent and every commit pays a full
    sync — which is exact for paper-sized chunks' commits (one stripe
    per window) and conservative everywhere else.

    Attributes:
        journal_append_seconds: one synced append on the journal disk
            (dominated by the sync, not the bytes).
        checksum_bytes_per_second: CRC32 throughput of one core; both
            receipt verification and the commit-payload checksum are
            charged at this rate.
    """

    journal_append_seconds: float = 2e-3
    checksum_bytes_per_second: float = 3e9

    def verify_seconds(self, nbytes: int) -> float:
        """CPU seconds to checksum ``nbytes``."""
        return nbytes / self.checksum_bytes_per_second

    def commit_seconds(self, nbytes: int) -> float:
        """Journal-disk seconds for a commit carrying an nbytes payload."""
        return self.journal_append_seconds + self.verify_seconds(nbytes)


@dataclass(frozen=True)
class RecoveryTiming:
    """Timing summary of one simulated recovery.

    Attributes:
        total_time: simulated makespan, seconds (Figure 9's metric is
            this divided by ``num_chunks``).
        computation_time: summed CPU seconds of every decoding task
            (partial decodes + local folds + final combines) — the
            quantity Figure 10 tracks; CAR redistributes it across
            delegates but barely changes its total.
        transmission_time: network-bottleneck time — bytes through the
            busiest link divided by its capacity; the transmission
            component of Figure 10(a)'s breakdown.
        disk_time: summed disk read/write seconds (not part of the
            paper's breakdown; reported for completeness).
        num_chunks: lost chunks recovered.
        fault_time: busy time attributable to injected faults — disk
            stalls plus retransmitted flows (zero without a timeline).
        num_retries: retransmitted flows the timeline injected.
        durability_time: busy time of the durability layer — journal
            appends and receipt checksums (zero without a cost model).
    """

    total_time: float
    computation_time: float
    transmission_time: float
    disk_time: float
    num_chunks: int
    fault_time: float = 0.0
    num_retries: int = 0
    durability_time: float = 0.0

    @property
    def time_per_chunk(self) -> float:
        """Recovery time per lost chunk (Figure 9's y-axis).

        Zero when nothing was recovered — a zero-stripe plan must not
        blow up reporting code with a division by zero.
        """
        if not self.num_chunks:
            return 0.0
        return self.total_time / self.num_chunks

    @property
    def computation_ratio(self) -> float:
        """Computation share of the transmission+computation breakdown."""
        denom = self.computation_time + self.transmission_time
        return self.computation_time / denom if denom else 0.0

    @property
    def transmission_ratio(self) -> float:
        """Transmission share of the breakdown (Figure 10(a))."""
        return 1.0 - self.computation_ratio


def build_tasks(
    state: ClusterState,
    plan: RecoveryPlan,
    fabric: FabricModel,
    hardware: HardwareModel,
    chunk_size: int,
    include_disk: bool = True,
    timeline: "FaultTimeline | None" = None,
    durability: DurabilityCostModel | None = None,
) -> list[SimTask]:
    """Expand a recovery plan into the simulator's task DAG.

    Args:
        timeline: optional fault perturbations (disk stalls, flow
            retransmissions) to weave into the DAG.
        durability: optional durability costs — per-stripe journal
            intent/commit appends and per-flow receipt checksums.
    """
    tasks: list[SimTask] = []
    for sp in plan.stripe_plans:
        tasks.extend(
            _stripe_tasks(
                state, plan, sp, fabric, hardware, chunk_size, include_disk,
                timeline, durability,
            )
        )
    return tasks


def _stripe_tasks(
    state: ClusterState,
    plan: RecoveryPlan,
    sp: StripePlan,
    fabric: FabricModel,
    hardware: HardwareModel,
    chunk_size: int,
    include_disk: bool,
    timeline: "FaultTimeline | None" = None,
    durability: DurabilityCostModel | None = None,
) -> list[SimTask]:
    s = sp.stripe_id
    repl = plan.replacement_node
    tasks: list[SimTask] = []
    read_ids: dict[int, str] = {}  # chunk index -> disk-read task id
    stall_ids: dict[int, str] = {}  # node -> injected-stall task id

    # The write-ahead intent lands on the coordinator's journal disk
    # before any of the stripe's work may start.
    intent_deps: list[str] = []
    if durability is not None:
        intent_tid = f"s{s}:durable:intent"
        tasks.append(
            serial_task(
                intent_tid,
                resource=("disk", repl),
                duration=durability.journal_append_seconds,
                tag="durable:journal",
            )
        )
        intent_deps = [intent_tid]

    def stall_dep(node: int) -> list[str]:
        """Injected disk stall this stripe's work on ``node`` queues behind."""
        if timeline is None:
            return []
        seconds = timeline.stall_for(s, node)
        if seconds <= 0:
            return []
        if node not in stall_ids:
            tid = f"s{s}:fault:stall:n{node}"
            stall_ids[node] = tid
            tasks.append(
                serial_task(
                    tid,
                    resource=("disk", node),
                    duration=seconds,
                    tag="fault:stall",
                )
            )
        return [stall_ids[node]]

    def read_task(chunk: int, node: int) -> list[str]:
        """Disk read preceding any use of a raw chunk (deduplicated)."""
        if not include_disk:
            # Without modelled disks a stall still delays the node's flows.
            return stall_dep(node)
        if chunk not in read_ids:
            tid = f"s{s}:read:c{chunk}"
            read_ids[chunk] = tid
            tasks.append(
                serial_task(
                    tid,
                    resource=("disk", node),
                    duration=hardware.profile(node).disk_read_seconds(chunk_size),
                    deps=stall_dep(node) + intent_deps,
                    tag="disk:read",
                )
            )
        return [read_ids[chunk]]

    def make_flow(
        tid: str, src_node: int, dst_node: int, path, deps: list[str],
        tag: str,
    ) -> str:
        """A flow, preceded by its injected retransmissions (if any).

        Returns the task id consumers must depend on: the flow itself,
        or — under a durability model — the receiver's checksum
        verification, so nothing downstream touches an unverified
        payload (mirroring the executor's delivery contract).
        """
        retries = timeline.retries_for(s, src_node) if timeline else 0
        prev = list(deps) + intent_deps
        for i in range(1, retries + 1):
            rid = f"{tid}:retry{i}"
            tasks.append(
                flow_task(
                    rid,
                    path=path,
                    size_bytes=chunk_size,
                    deps=prev,
                    tag="xfer:retry",
                )
            )
            prev = [rid]
        tasks.append(
            flow_task(tid, path=path, size_bytes=chunk_size, deps=prev, tag=tag)
        )
        if durability is None:
            return tid
        vid = f"{tid}:verify"
        tasks.append(
            serial_task(
                vid,
                resource=("cpu", dst_node),
                duration=durability.verify_seconds(chunk_size),
                deps=[tid],
                tag="durable:verify",
            )
        )
        return vid

    # Raw chunk flows (intra-rack to delegates / replacement, or the
    # direct RR flows).  Partial flows are added with their decode below.
    raw_flow_ids: dict[int, str] = {}  # chunk -> flow id
    inbound_to_repl: list[str] = []
    inbound_to_delegate: dict[int, list[str]] = {}
    for t in sp.transfers:
        if t.is_partial:
            continue  # handled with its compute task below
        assert t.chunk_index is not None
        deps = read_task(t.chunk_index, t.src_node)
        tid = f"s{s}:xfer:c{t.chunk_index}"
        tag = "xfer:cross" if t.cross_rack else "xfer:intra"
        got = make_flow(
            tid, t.src_node, t.dst_node,
            fabric.path(t.src_node, t.dst_node), deps, tag,
        )
        raw_flow_ids[t.chunk_index] = got
        if t.dst_node == repl:
            inbound_to_repl.append(got)
        else:
            inbound_to_delegate.setdefault(t.dst_node, []).append(got)

    # Compute tasks.  The GF combine-efficiency width is the stripe's
    # full decode width: CAR's pieces stream with the efficiency of the
    # whole k-input decode they jointly implement.
    decode_width = sum(
        ct.input_chunks for ct in sp.compute if ct.kind in ("partial", "local")
    )
    final_deps: list[str] = list(inbound_to_repl)
    partial_transfers = [t for t in sp.transfers if t.is_partial]
    for ct in sp.compute:
        duration = hardware.profile(ct.node).gf_seconds(
            ct.input_chunks * chunk_size, inputs=decode_width or ct.input_chunks
        )
        if ct.kind == "partial":
            rack = state.topology.rack_of(ct.node)
            # Inputs: the delegate's own chunk reads + intra-rack flows.
            deps: list[str] = list(inbound_to_delegate.get(ct.node, []))
            delivered = {
                t.chunk_index for t in sp.transfers if t.chunk_index is not None
            }
            for chunk in ct.chunks:
                if chunk not in delivered:
                    deps.extend(read_task(chunk, ct.node))
            ctid = f"s{s}:partial:r{rack}"
            tasks.append(
                serial_task(
                    ctid,
                    resource=("cpu", ct.node),
                    duration=duration,
                    deps=deps,
                    tag="compute:partial",
                )
            )
            xfer = _find_partial_transfer(partial_transfers, ct.node)
            ftid = f"s{s}:xfer:partial:r{rack}"
            final_deps.append(
                make_flow(
                    ftid,
                    xfer.src_node,
                    xfer.dst_node,
                    fabric.path(xfer.src_node, xfer.dst_node),
                    [ctid],
                    "xfer:cross" if xfer.cross_rack else "xfer:intra",
                )
            )
        elif ct.kind == "local":
            ltid = f"s{s}:local-fold"
            tasks.append(
                serial_task(
                    ltid,
                    resource=("cpu", ct.node),
                    duration=duration,
                    deps=list(inbound_to_repl),
                    tag="compute:local",
                )
            )
            final_deps.append(ltid)
        elif ct.kind == "final":
            pass  # added last, below, once all deps are known
        else:  # pragma: no cover - planner only emits the three kinds
            raise PlanError(f"unknown compute kind {ct.kind!r}")

    final = next(ct for ct in sp.compute if ct.kind == "final")
    profile = hardware.profile(final.node)
    final_bytes = final.input_chunks * chunk_size
    # In an aggregated plan the final combine only XORs partially decoded
    # buffers; in a direct plan it is a full GF decode of k raw chunks.
    final_duration = (
        profile.xor_seconds(final_bytes)
        if plan.aggregated
        else profile.gf_seconds(final_bytes)
    )
    ftid = f"s{s}:final"
    tasks.append(
        serial_task(
            ftid,
            resource=("cpu", final.node),
            duration=final_duration,
            deps=final_deps,
            tag="compute:final",
        )
    )
    last = ftid
    if include_disk:
        last = f"s{s}:write"
        tasks.append(
            serial_task(
                last,
                resource=("disk", repl),
                duration=hardware.profile(repl).disk_write_seconds(chunk_size),
                deps=[ftid],
                tag="disk:write",
            )
        )
    if durability is not None:
        # The commit record — checksummed payload included — seals the
        # stripe on the journal disk once the rebuilt chunk is durable.
        tasks.append(
            serial_task(
                f"s{s}:durable:commit",
                resource=("disk", repl),
                duration=durability.commit_seconds(chunk_size),
                deps=[last],
                tag="durable:journal",
            )
        )
    return tasks


def _find_partial_transfer(transfers, delegate: int):
    for t in transfers:
        if t.src_node == delegate:
            return t
    raise PlanError(f"no partial transfer leaves delegate {delegate}")


class RecoverySimulator:
    """Simulates the wall-clock timing of a recovery plan."""

    def __init__(
        self,
        state: ClusterState,
        hardware: HardwareModel | None = None,
        include_disk: bool = True,
        tracer: Tracer | NullTracer | None = None,
        durability: DurabilityCostModel | None = None,
    ) -> None:
        self.state = state
        self.fabric = FabricModel(state.topology)
        self.hardware = hardware or HardwareModel(state.topology)
        self.include_disk = include_disk
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.durability = durability

    def simulate(
        self,
        plan: RecoveryPlan,
        chunk_size: int,
        timeline: "FaultTimeline | None" = None,
    ) -> RecoveryTiming:
        """Run the fluid simulation and summarise its timing.

        Args:
            timeline: optional fault perturbations from a robust run
                (see :attr:`repro.faults.robust.RobustExecutionResult.timeline`);
                injected stalls and retransmissions then count toward
                ``total_time`` and are broken out as ``fault_time``.
        """
        tasks = build_tasks(
            self.state, plan, self.fabric, self.hardware, chunk_size,
            include_disk=self.include_disk, timeline=timeline,
            durability=self.durability,
        )
        num_retries = sum(1 for t in tasks if t.tag == "xfer:retry")
        sim = FluidNetworkSimulator(self.fabric)
        result = sim.run(tasks)
        if self.tracer.enabled:
            self._emit_stripe_spans(tasks, result)
        timing = self._summarise(result, plan, num_retries)
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("sim.runs").inc()
            reg.counter("sim.stripes").inc(len(plan.stripe_plans))
            reg.counter("sim.retries").inc(num_retries)
            reg.gauge("sim.makespan_seconds").set(result.makespan)
            reg.histogram("sim.time_per_chunk_seconds").observe(
                timing.time_per_chunk
            )
        return timing

    #: Task-tag prefix -> sim-time family reported per stripe.  Order
    #: matters: the first matching prefix wins (``xfer:retry`` is fault
    #: time, not transfer time; the final combine is decode, the partial
    #: decodes and local folds are aggregation).
    _TAG_FAMILIES: tuple[tuple[str, str], ...] = (
        ("disk", "read"),
        ("xfer:retry", "fault"),
        ("fault", "fault"),
        ("xfer", "transfer"),
        ("compute:final", "decode"),
        ("compute", "aggregate"),
        ("durable", "durable"),
    )

    def _emit_stripe_spans(
        self, tasks: Sequence[SimTask], result: SimResult
    ) -> None:
        """One ``sim.stripe`` span per stripe, in simulated seconds.

        The span interval is the stripe's first task start to its last
        task finish; attributes break its busy time into the read /
        transfer / aggregate / decode / fault families Figure 10 uses.
        """
        per_stripe: dict[int, dict] = {}
        for task in tasks:
            tid = task.task_id
            if not tid.startswith("s") or ":" not in tid:
                continue  # pragma: no cover - all builder ids match
            head = tid.split(":", 1)[0]
            try:
                stripe = int(head[1:])
            except ValueError:  # pragma: no cover - defensive
                continue
            start = result.start_times.get(tid)
            end = result.finish_times.get(tid)
            if start is None or end is None:
                continue  # pragma: no cover - every task completes
            acc = per_stripe.setdefault(
                stripe,
                {
                    "start": start, "end": end, "tasks": 0,
                    "read_s": 0.0, "transfer_s": 0.0, "aggregate_s": 0.0,
                    "decode_s": 0.0, "fault_s": 0.0, "durable_s": 0.0,
                },
            )
            acc["start"] = min(acc["start"], start)
            acc["end"] = max(acc["end"], end)
            acc["tasks"] += 1
            tag = task.tag or ""
            for prefix, family in self._TAG_FAMILIES:
                if tag.startswith(prefix):
                    acc[f"{family}_s"] += end - start
                    break
        for stripe in sorted(per_stripe):
            acc = per_stripe[stripe]
            self.tracer.emit_span(
                "sim.stripe",
                acc["start"],
                acc["end"],
                stripe_id=stripe,
                tasks=acc["tasks"],
                read_s=acc["read_s"],
                transfer_s=acc["transfer_s"],
                aggregate_s=acc["aggregate_s"],
                decode_s=acc["decode_s"],
                fault_s=acc["fault_s"],
                durable_s=acc["durable_s"],
            )

    def _summarise(
        self, result: SimResult, plan: RecoveryPlan, num_retries: int = 0
    ) -> RecoveryTiming:
        transmission = 0.0
        for link_id, nbytes in result.link_bytes.items():
            transmission = max(
                transmission, nbytes / self.fabric.link(link_id).capacity
            )
        return RecoveryTiming(
            total_time=result.makespan,
            computation_time=result.tagged_time("compute:"),
            transmission_time=transmission,
            disk_time=result.tagged_time("disk:"),
            num_chunks=len(plan.stripe_plans),
            fault_time=(
                result.tagged_time("fault:") + result.tagged_time("xfer:retry")
            ),
            num_retries=num_retries,
            durability_time=result.tagged_time("durable:"),
        )
