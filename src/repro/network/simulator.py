"""Discrete-event fluid simulator with max-min fair bandwidth sharing.

The simulator advances time between *events* (a flow draining, a serial
task finishing, a dependent task becoming ready).  Between events, every
active flow transmits at the rate assigned by **progressive filling**
(water-filling): repeatedly find the most-contended link, freeze all its
unfrozen flows at the fair share, subtract, repeat — the classic
max-min fair allocation.  Flows on one link path share one fate, so a
run maps each flow to its **path class** and builds one link x class
incidence up front (a whole node failure's tens of thousands of flows
have tens of classes); an event weights it by the active flows per
class, and every flow's ETA and drain is one vector operation.

Serial tasks (CPU partial decodes, disk reads) occupy their resource
exclusively and are queued FIFO.

Outputs per task finish times, the makespan, and per-tag busy time so
the experiment layer can split transmission vs computation time
(Figure 10).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FlowError, SimulationError
from repro.network.flow import ResourceKey, SimTask
from repro.network.links import FabricModel

__all__ = ["SimResult", "FluidNetworkSimulator", "maxmin_rates"]

_EPS = 1e-9


def maxmin_rates(
    incidence: np.ndarray, capacities: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Max-min fair rates for flows over shared links.

    A column stands for ``weights[c]`` identical flows; one flow per
    column is the case of all-ones weights.  Every link load is a count
    of flows, so the shares, ties and freeze order do not depend on how
    the flows are grouped into columns.

    Args:
        incidence: boolean ``(num_links, num_columns)`` matrix; entry
            ``(l, c)`` is True iff column ``c``'s flows traverse link
            ``l``.
        capacities: per-link capacity (bytes/s).
        weights: flows per column (non-negative integers).

    Returns:
        Per-column rate of one of its flows (bytes/s); 0 for a column of
        weight 0.
    """
    inc = incidence.astype(np.float64)
    rates = np.zeros(incidence.shape[1])
    weights = np.asarray(weights)
    unfrozen = weights > 0
    counts = inc @ weights  # unfrozen flows per link
    remaining = capacities.astype(np.float64)
    # Each pass freezes the bottleneck link's flows: one pass per link at
    # most.
    for _ in range(incidence.shape[0]):
        if not counts.any():
            break
        share = np.divide(
            remaining, counts, out=np.full_like(remaining, np.inf),
            where=counts > 0,
        )
        bottleneck = int(share.argmin())
        r = max(share[bottleneck], 0.0)
        # Freeze every link tied at the bottleneck share in one pass: a
        # tied link's own share is unchanged by removing another tied
        # link's flows (both sides of remaining/count scale by the same
        # fair share), so this matches one-at-a-time freezing.
        to_freeze = unfrozen & (inc.T @ (share == share[bottleneck]) > 0)
        rates[to_freeze] = r
        # Subtract the newly frozen flows' rate from every link they use.
        frozen = inc @ (weights * to_freeze)
        counts -= frozen
        remaining -= r * frozen
        np.maximum(remaining, 0.0, out=remaining)
        unfrozen &= ~to_freeze
    if unfrozen.any():  # pragma: no cover - defensive
        raise SimulationError("water-filling failed to converge")
    return rates


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Attributes:
        finish_times: task id -> completion time (seconds).
        start_times: task id -> time it began transmitting/executing
            (flows: first admitted; serial tasks: service start) — with
            ``finish_times`` this gives the real sim-time interval of
            every task, which the telemetry layer turns into spans.
        makespan: time the last task finished.
        busy_time_by_tag: tag -> summed service time of serial tasks and
            summed active duration of flows carrying that tag.
        link_bytes: link id -> total bytes carried.
    """

    finish_times: dict[str, float] = field(default_factory=dict)
    start_times: dict[str, float] = field(default_factory=dict)
    makespan: float = 0.0
    busy_time_by_tag: dict[str, float] = field(default_factory=dict)
    link_bytes: dict[int, float] = field(default_factory=dict)

    def finish(self, task_id: str) -> float:
        """Finish time of one task.

        Raises:
            SimulationError: if the task never completed.
        """
        try:
            return self.finish_times[task_id]
        except KeyError:
            raise SimulationError(f"task {task_id!r} did not finish") from None

    def tagged_time(self, prefix: str) -> float:
        """Summed busy time of every tag starting with ``prefix``.

        The reporting convention is hierarchical tags (``compute:partial``,
        ``disk:read``, ``fault:stall``, ``xfer:retry``); this rolls a
        whole family up, e.g. ``tagged_time("fault:")`` is the injected
        stall time and ``tagged_time("xfer:retry")`` the retransmission
        time a fault scenario added.
        """
        return sum(
            v
            for tag, v in self.busy_time_by_tag.items()
            if tag.startswith(prefix)
        )


class FluidNetworkSimulator:
    """Runs a DAG of flow/serial tasks over a :class:`FabricModel`."""

    def __init__(self, fabric: FabricModel) -> None:
        self.fabric = fabric

    def run(self, tasks: Sequence[SimTask]) -> SimResult:
        """Simulate to completion and return the :class:`SimResult`.

        Raises:
            SimulationError: on dependency cycles or unknown deps.
            FlowError: if a flow references an out-of-range link.
        """
        index = {t.task_id: i for i, t in enumerate(tasks)}
        if len(index) != len(tasks):
            raise SimulationError("duplicate task ids")
        # Task i's dependents, unmet dependency count and path class.
        dependents: list[list[int]] = [[] for _ in tasks]
        missing_deps = [len(t.deps) for t in tasks]
        path_class = np.zeros(len(tasks), dtype=np.intp)
        classes: dict[tuple[int, ...], int] = {}
        for i, t in enumerate(tasks):
            for d in t.deps:
                if d not in index:
                    raise SimulationError(
                        f"task {t.task_id!r} depends on unknown {d!r}"
                    )
                dependents[index[d]].append(i)
            if t.is_flow:
                for link in t.path:
                    if not 0 <= link < self.fabric.num_links:
                        raise FlowError(
                            f"task {t.task_id!r} uses unknown link {link}"
                        )
                path_class[i] = classes.setdefault(t.path, len(classes))
        incidence = np.zeros((self.fabric.num_links, len(classes)), dtype=bool)
        for path, c in classes.items():
            incidence[list(path), c] = True
        sizes = np.array([t.size_bytes for t in tasks])
        drain_floor = _EPS * np.maximum(1.0, sizes)

        result = SimResult()
        now = 0.0
        # Active flows as task indices in activation order, their bytes
        # left and drain floors aligned with them, and the flows readied
        # since the last event; rates are stale once one arrived or ended.
        active = np.zeros(0, dtype=np.intp)
        left = floor = rates = np.zeros(0)
        arrived: list[int] = []
        stale = False
        resource_queue: dict[ResourceKey, list[int]] = {}
        resource_running: set[ResourceKey] = set()
        serial_heap: list[tuple[float, int, int, ResourceKey]] = []
        tie = itertools.count()

        def start_serial(i: int) -> None:
            task = tasks[i]
            result.start_times[task.task_id] = now
            resource_running.add(task.resource)
            heapq.heappush(
                serial_heap, (now + task.duration, next(tie), i, task.resource)
            )

        def make_ready(i: int) -> None:
            task = tasks[i]
            if task.is_flow:
                arrived.append(i)
                result.start_times[task.task_id] = now
            elif task.resource in resource_running:
                resource_queue.setdefault(task.resource, []).append(i)
            else:
                start_serial(i)

        for i in range(len(tasks)):
            if missing_deps[i] == 0:
                make_ready(i)

        def complete(i: int) -> None:
            task = tasks[i]
            result.finish_times[task.task_id] = now
            if task.tag:
                dur = (now - result.start_times[task.task_id]
                       if task.is_flow else task.duration)
                result.busy_time_by_tag[task.tag] = (
                    result.busy_time_by_tag.get(task.tag, 0.0) + dur
                )
            if task.is_flow:
                for link in task.path:
                    result.link_bytes[link] = (
                        result.link_bytes.get(link, 0.0) + task.size_bytes
                    )
            for j in dependents[i]:
                missing_deps[j] -= 1
                if missing_deps[j] == 0:
                    make_ready(j)

        for _ in range(10 * len(tasks) + 10):
            if len(result.finish_times) == len(tasks):
                break
            if arrived or stale:
                if arrived:
                    new = np.array(arrived, dtype=np.intp)
                    active = np.concatenate([active, new])
                    left = np.concatenate([left, sizes[new]])
                    floor = np.concatenate([floor, drain_floor[new]])
                    arrived.clear()
                stale = False
                flow_class = path_class[active]
                rates = maxmin_rates(
                    incidence, self.fabric.capacities,
                    np.bincount(flow_class, minlength=len(classes)),
                )[flow_class]
            # Earliest flow completion under current constant rates.
            moving = rates > 0
            flow_eta = (left[moving] / rates[moving]).min(initial=np.inf)
            serial_eta = serial_heap[0][0] - now if serial_heap else np.inf
            dt = min(flow_eta, serial_eta)
            if not np.isfinite(dt):
                raise SimulationError(
                    "simulation stalled: tasks remain but nothing progresses"
                )
            dt = max(dt, 0.0)
            now += dt
            # Drain flows; the drained ones complete in activation order.
            left = left - rates * dt
            drained = left <= floor
            if drained.any():
                finished, kept, stale = active[drained], ~drained, True
                active, left, floor = active[kept], left[kept], floor[kept]
                for i in finished.tolist():
                    complete(i)
            # Finish serial tasks due now.
            while serial_heap and serial_heap[0][0] <= now + _EPS:
                _, _, i, res = heapq.heappop(serial_heap)
                resource_running.remove(res)
                # Hand the resource to the next queued task *before*
                # signalling completion: complete() may ready a dependent
                # on this same resource, which must queue behind it.
                queue = resource_queue.get(res)
                if queue:
                    start_serial(queue.pop(0))
                complete(i)
        else:
            raise SimulationError("simulation exceeded its step budget")

        result.makespan = now
        return result
