"""Differential test: the path-class simulator against the per-flow loop.

:class:`ReferenceSimulator` is the simulator as it ran before path
classes: it rebuilt a link x flow incidence at every event, water-filled
it one column per flow, and drained flows one dict entry at a time.  It
is kept here, and only here, as the oracle.  Random DAGs go through
both, and every :class:`SimResult` field must agree exactly: the same
floats of the same types (``repr`` shows an ``np.float64`` where the
reference produced one), with the dicts in the same order, since the
float sums in ``busy_time_by_tag`` and ``link_bytes`` depend on it.
"""

import heapq
import itertools
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.network.flow import flow_task, serial_task
from repro.network.simulator import FluidNetworkSimulator, SimResult

_EPS = 1e-9


def per_flow_maxmin_rates(incidence, capacities):
    """Water-filling with one column per flow, as it ran per event."""
    num_links, num_flows = incidence.shape
    if num_flows == 0:
        return np.zeros(0)
    rates = np.zeros(num_flows)
    unfrozen = np.ones(num_flows, dtype=bool)
    remaining = capacities.astype(np.float64).copy()
    inc = incidence.astype(np.float64)
    for _ in range(num_links + 1):
        counts = inc @ unfrozen
        contended = counts > 0
        if not contended.any():
            break
        share = np.full(num_links, np.inf)
        share[contended] = remaining[contended] / counts[contended]
        bottleneck = int(np.argmin(share))
        r = max(share[bottleneck], 0.0)
        tied = contended & (share == share[bottleneck])
        to_freeze = incidence[tied].any(axis=0) & unfrozen
        rates[to_freeze] = r
        remaining -= r * (inc[:, to_freeze].sum(axis=1))
        np.maximum(remaining, 0.0, out=remaining)
        unfrozen &= ~to_freeze
        if not unfrozen.any():
            break
    if unfrozen.any():
        raise SimulationError("water-filling failed to converge")
    return rates


class ReferenceSimulator:
    """The per-event incidence rebuild and the per-flow dict loop."""

    def __init__(self, fabric) -> None:
        self.fabric = fabric

    def run(self, tasks):
        by_id = {t.task_id: t for t in tasks}
        if len(by_id) != len(tasks):
            raise SimulationError("duplicate task ids")
        for t in tasks:
            for d in t.deps:
                if d not in by_id:
                    raise SimulationError(
                        f"task {t.task_id!r} depends on unknown {d!r}"
                    )

        dependents = {t.task_id: [] for t in tasks}
        missing_deps = {t.task_id: len(t.deps) for t in tasks}
        for t in tasks:
            for d in t.deps:
                dependents[d].append(t.task_id)

        result = SimResult()
        now = 0.0
        active_flows = {}
        flow_started_at = {}
        resource_queue = {}
        resource_running = {}
        serial_heap = []
        tie = itertools.count()
        completed = 0

        def start_serial(task_id):
            task = by_id[task_id]
            result.start_times[task_id] = now
            finish_at = now + task.duration
            resource_running[task.resource] = (task_id, finish_at)
            heapq.heappush(
                serial_heap, (finish_at, next(tie), task_id, task.resource)
            )

        def make_ready(task_id):
            task = by_id[task_id]
            if task.is_flow:
                active_flows[task_id] = task.size_bytes
                flow_started_at[task_id] = now
                result.start_times[task_id] = now
            else:
                res = task.resource
                if res in resource_running:
                    resource_queue.setdefault(res, []).append(task_id)
                else:
                    start_serial(task_id)

        for t in tasks:
            if missing_deps[t.task_id] == 0:
                make_ready(t.task_id)

        def complete(task_id):
            nonlocal completed
            result.finish_times[task_id] = now
            completed += 1
            task = by_id[task_id]
            if task.tag:
                if task.is_flow:
                    dur = now - flow_started_at[task_id]
                else:
                    dur = task.duration
                result.busy_time_by_tag[task.tag] = (
                    result.busy_time_by_tag.get(task.tag, 0.0) + dur
                )
            if task.is_flow:
                for link in task.path:
                    result.link_bytes[link] = (
                        result.link_bytes.get(link, 0.0) + task.size_bytes
                    )
            for dep_id in dependents[task_id]:
                missing_deps[dep_id] -= 1
                if missing_deps[dep_id] == 0:
                    make_ready(dep_id)

        max_steps = 10 * len(tasks) + 10
        for _ in range(max_steps):
            if completed == len(tasks):
                break
            rates = self._current_rates(by_id, active_flows)
            flow_eta = np.inf
            for fid, remaining in active_flows.items():
                r = rates[fid]
                if r <= 0:
                    continue
                flow_eta = min(flow_eta, remaining / r)
            serial_eta = np.inf
            if serial_heap:
                serial_eta = serial_heap[0][0] - now
            dt = min(flow_eta, serial_eta)
            if not np.isfinite(dt):
                raise SimulationError(
                    "simulation stalled: tasks remain but nothing progresses"
                )
            dt = max(dt, 0.0)
            now += dt
            finished_flows = []
            for fid in list(active_flows):
                active_flows[fid] -= rates[fid] * dt
                if active_flows[fid] <= _EPS * max(1.0, by_id[fid].size_bytes):
                    finished_flows.append(fid)
            for fid in finished_flows:
                del active_flows[fid]
                complete(fid)
            while serial_heap and serial_heap[0][0] <= now + _EPS:
                _, _, task_id, res = heapq.heappop(serial_heap)
                del resource_running[res]
                queue = resource_queue.get(res)
                if queue:
                    start_serial(queue.pop(0))
                complete(task_id)
        else:
            raise SimulationError("simulation exceeded its step budget")

        result.makespan = now
        return result

    def _current_rates(self, by_id, active_flows):
        ids = list(active_flows)
        if not ids:
            return {}
        incidence = np.zeros((self.fabric.num_links, len(ids)), dtype=bool)
        for col, fid in enumerate(ids):
            incidence[list(by_id[fid].path), col] = True
        rates = per_flow_maxmin_rates(incidence, self.fabric.capacities)
        return dict(zip(ids, rates))


FIELDS = ("finish_times", "start_times", "makespan", "busy_time_by_tag",
          "link_bytes")


def assert_same_result(got, want):
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(w, dict):
            assert list(g.items()) == list(w.items()), name
        else:
            assert g == w, name
        assert repr(g) == repr(w), name


@st.composite
def dag_case(draw):
    """A small fabric and a random task DAG over it.

    Few links, few integer capacities and a small pool of paths make
    flows share paths and links tie; sizes from a short list make flows
    drain at one event; serial tasks share three resources, and some
    take no time at all.
    """
    num_links = draw(st.integers(1, 6))
    capacities = np.array(
        draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 7.5]),
                      min_size=num_links, max_size=num_links))
    )
    fabric = SimpleNamespace(num_links=num_links, capacities=capacities)
    link = st.integers(0, num_links - 1)
    paths = draw(st.lists(
        st.lists(link, min_size=1, max_size=4, unique=True).map(tuple),
        min_size=1, max_size=4,
    ))
    resources = [("cpu", 0), ("cpu", 1), ("disk", 0)]
    tags = ["", "xfer:cross", "compute:partial", "disk:read"]
    num_tasks = draw(st.integers(1, 18))
    tasks = []
    for i in range(num_tasks):
        deps = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        dep_ids = [f"t{d}" for d in deps]
        tag = draw(st.sampled_from(tags))
        if draw(st.booleans()):
            tasks.append(flow_task(
                f"t{i}", draw(st.sampled_from(paths)),
                draw(st.sampled_from([1.0, 2.0, 3.0, 6.0, 1e6])),
                deps=dep_ids, tag=tag,
            ))
        else:
            tasks.append(serial_task(
                f"t{i}", draw(st.sampled_from(resources)),
                draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0 / 3.0])),
                deps=dep_ids, tag=tag,
            ))
    order = draw(st.permutations(range(num_tasks)))
    return fabric, [tasks[i] for i in order]


class TestAgainstThePerFlowLoop:
    @settings(max_examples=300, deadline=None)
    @given(case=dag_case())
    def test_every_field_matches(self, case):
        fabric, tasks = case
        got = FluidNetworkSimulator(fabric).run(tasks)
        want = ReferenceSimulator(fabric).run(tasks)
        assert_same_result(got, want)

    def test_equal_flows_on_one_path_finish_at_one_event(self):
        fabric = SimpleNamespace(num_links=2, capacities=np.array([2.0, 3.0]))
        tasks = [flow_task(f"f{i}", (0, 1), 4.0, tag="xfer") for i in range(3)]
        tasks.append(flow_task("g", (1,), 4.0, tag="xfer"))
        got = FluidNetworkSimulator(fabric).run(tasks)
        assert_same_result(got, ReferenceSimulator(fabric).run(tasks))
        assert len({got.finish_times[f"f{i}"] for i in range(3)}) == 1

    def test_a_serial_task_readied_on_the_resource_just_freed(self):
        """``b`` becomes ready when ``a`` frees ``cpu 0``; ``c`` was queued
        there first, so ``b`` queues behind it — and a zero-time task
        on the same resource does not jump the queue."""
        fabric = SimpleNamespace(num_links=1, capacities=np.array([1.0]))
        cpu = ("cpu", 0)
        tasks = [
            serial_task("a", cpu, 1.0, tag="compute"),
            serial_task("c", cpu, 2.0, tag="compute"),
            serial_task("b", cpu, 0.5, deps=["a"], tag="compute"),
            serial_task("z", cpu, 0.0, deps=["a"]),
            flow_task("f", (0,), 1.5, deps=["b"], tag="xfer"),
        ]
        got = FluidNetworkSimulator(fabric).run(tasks)
        assert_same_result(got, ReferenceSimulator(fabric).run(tasks))
        assert got.start_times["b"] == got.finish_times["c"] == 3.0
