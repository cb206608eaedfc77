"""Recovery-time simulation: plan -> task DAG -> fluid network simulation.

Converts a :class:`~repro.recovery.planner.RecoveryPlan` into the task
DAG the fluid simulator executes, reading each stripe's flows and
decodes from its row of the plan's window
(:meth:`~repro.recovery.planner.WindowPlan.helpers`):

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
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.cluster.state import ClusterState
from repro.network.flow import SimTask, flow_task, serial_task
from repro.network.links import FabricModel
from repro.network.simulator import FluidNetworkSimulator, SimResult
from repro.obs import metrics as _metrics
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.recovery.planner import RecoveryPlan, WindowPlan
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

    Raises:
        PlanError: if the plan's solution ships fractional chunk units.
    """
    tasks: list[SimTask] = []
    for sp in plan.stripe_plans:
        sp.window.require_whole_chunks()
        tasks.extend(
            _stripe_tasks(
                state, sp.window, sp.row, fabric, hardware, chunk_size,
                include_disk, timeline, durability,
            )
        )
    return tasks


def _stripe_tasks(
    state: ClusterState,
    win: WindowPlan,
    i: int,
    fabric: FabricModel,
    hardware: HardwareModel,
    chunk_size: int,
    include_disk: bool,
    timeline: "FaultTimeline | None" = None,
    durability: DurabilityCostModel | None = None,
) -> list[SimTask]:
    """Row ``i`` of ``win`` as tasks, in the order the simulator queues
    them."""
    s = int(win.stripe_id[i])
    repl = win.replacement_node
    helpers = win.helpers(i)
    tasks: list[SimTask] = []
    read_ids: dict[int, str] = {}  # chunk index -> disk-read task id
    stall_ids: dict[int, str] = {}  # node -> injected-stall task id

    def serial(tid: str, resource, duration: float, deps=(), tag="") -> str:
        tasks.append(serial_task(tid, resource, duration, deps, tag))
        return tid

    # The write-ahead intent lands on the coordinator's journal disk
    # before any of the stripe's work may start.
    intent_deps: list[str] = []
    if durability is not None:
        intent_deps = [serial(
            f"s{s}:durable:intent", ("disk", repl),
            durability.journal_append_seconds, tag="durable:journal",
        )]

    def stall_dep(node: int) -> list[str]:
        """Injected disk stall this stripe's work on ``node`` queues behind."""
        seconds = timeline.stall_for(s, node) if timeline is not None else 0
        if seconds <= 0:
            return []
        if node not in stall_ids:
            stall_ids[node] = serial(
                f"s{s}:fault:stall:n{node}", ("disk", node), seconds,
                tag="fault:stall",
            )
        return [stall_ids[node]]

    def read_task(chunk: int, node: int) -> list[str]:
        """Disk read preceding any use of a raw chunk (deduplicated)."""
        if not include_disk:
            # Without modelled disks a stall still delays the node's flows.
            return stall_dep(node)
        if chunk not in read_ids:
            read_ids[chunk] = serial(
                f"s{s}:read:c{chunk}", ("disk", node),
                hardware.profile(node).disk_read_seconds(chunk_size),
                stall_dep(node) + intent_deps, "disk:read",
            )
        return [read_ids[chunk]]

    def make_flow(
        tid: str, src_node: int, dst_node: int, deps: list[str],
        crossing: bool,
    ) -> str:
        """A flow, preceded by its injected retransmissions (if any).

        Returns the task id consumers must depend on: the flow itself,
        or — under a durability model — the receiver's checksum
        verification, so nothing downstream touches an unverified
        payload (mirroring the executor's delivery contract).
        """
        path = fabric.path(src_node, dst_node)
        retries = timeline.retries_for(s, src_node) if timeline else 0
        prev = list(deps) + intent_deps
        for n in range(1, retries + 1):
            rid = f"{tid}:retry{n}"
            tasks.append(flow_task(rid, path, chunk_size, prev, "xfer:retry"))
            prev = [rid]
        tag = "xfer:cross" if crossing else "xfer:intra"
        tasks.append(flow_task(tid, path, chunk_size, prev, tag))
        if durability is None:
            return tid
        return serial(
            f"{tid}:verify", ("cpu", dst_node),
            durability.verify_seconds(chunk_size), [tid], "durable:verify",
        )

    # Raw chunk flows (intra-rack to delegates / replacement, or the
    # direct RR flows).  Partial flows are added with their decode below.
    inbound_to_repl: list[str] = []
    inbound_to_delegate: dict[int, list[str]] = {}
    for _, chunk, node, dest, raw, _, crossing in helpers:
        if raw:
            got = make_flow(
                f"s{s}:xfer:c{chunk}", node, dest, read_task(chunk, node),
                crossing,
            )
            if dest == repl:
                inbound_to_repl.append(got)
            else:
                inbound_to_delegate.setdefault(dest, []).append(got)

    # Compute tasks, one per rack group.  The GF combine-efficiency width
    # is the stripe's full decode width: CAR's pieces stream with the
    # efficiency of the whole k-input decode they jointly implement.
    final_deps: list[str] = list(inbound_to_repl)
    reads = int(win.reads[i])
    groups = groupby(helpers, key=itemgetter(0)) if win.aggregated else ()
    failed_rack = int(win.source.failed_rack[i])
    for group_rack, group in groups:
        group = list(group)
        _, _, _, dest, _, partial, crossing = group[0]
        duration = hardware.profile(dest).gf_seconds(
            len(group) * chunk_size, inputs=reads
        )
        if not partial:
            # The failed rack's fold, or the fold of the rack the
            # replacement node would have been the delegate of.
            fold = f"s{s}:local-fold" + (
                "" if group_rack == failed_rack else f":r{group_rack}"
            )
            final_deps.append(serial(
                fold, ("cpu", dest), duration,
                list(inbound_to_repl), "compute:local",
            ))
            continue
        rack = state.topology.rack_of(dest)
        # Inputs: the delegate's own chunk reads + intra-rack flows.
        deps = list(inbound_to_delegate.get(dest, []))
        for _, chunk, _, _, raw, _, _ in group:
            if not raw:
                deps.extend(read_task(chunk, dest))
        ctid = serial(
            f"s{s}:partial:r{rack}", ("cpu", dest), duration, deps,
            "compute:partial",
        )
        final_deps.append(make_flow(
            f"s{s}:xfer:partial:r{rack}", dest, repl, [ctid], crossing
        ))

    profile = hardware.profile(repl)
    # In an aggregated plan the final combine only XORs one partially
    # decoded buffer per rack group; in a direct plan it is a full GF
    # decode of every raw chunk.
    final_duration = (
        profile.xor_seconds(
            int(win.partial_decodes[i] + win.local_folds[i]) * chunk_size
        )
        if win.aggregated
        else profile.gf_seconds(reads * chunk_size)
    )
    last = serial(
        f"s{s}:final", ("cpu", repl), final_duration, final_deps,
        "compute:final",
    )
    if include_disk:
        last = serial(
            f"s{s}:write", ("disk", repl),
            profile.disk_write_seconds(chunk_size), [last], "disk:write",
        )
    if durability is not None:
        # The commit record — checksummed payload included — seals the
        # stripe on the journal disk once the rebuilt chunk is durable.
        serial(
            f"s{s}:durable:commit", ("disk", repl),
            durability.commit_seconds(chunk_size), [last], "durable:journal",
        )
    return tasks


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

        Raises:
            PlanError: if the plan's solution ships fractional chunk
                units.
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
            tid = task.task_id  # "s{stripe}:..."
            start, end = result.start_times[tid], result.finish_times[tid]
            acc = per_stripe.setdefault(int(tid[1:tid.index(":")]), {
                "start": start, "end": end, "tasks": 0,
                "read_s": 0.0, "transfer_s": 0.0, "aggregate_s": 0.0,
                "decode_s": 0.0, "fault_s": 0.0, "durable_s": 0.0,
            })
            acc["start"] = min(acc["start"], start)
            acc["end"] = max(acc["end"], end)
            acc["tasks"] += 1
            for prefix, family in self._TAG_FAMILIES:
                if task.tag.startswith(prefix):
                    acc[f"{family}_s"] += end - start
                    break
        for stripe in sorted(per_stripe):
            acc = per_stripe[stripe]
            start, end = acc.pop("start"), acc.pop("end")
            self.tracer.emit_span(
                "sim.stripe", start, end, stripe_id=stripe, **acc
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
