"""Per-layer measurements taken from outside the program.

Three kinds, all used only by the traced pass:

- *size probes*: one public function of one layer, called standalone on
  fixed sizes (they do not depend on the workload and run on every one);
- the *coordination probe*: views, selector, balancer, solve, plan and
  the timing simulator, each called once more on the workload's state;
- *recorded calls*: the harness swaps ``dot_rows`` / the frame helpers
  for wrappers that note each call, so the GF work of one operation can
  be replayed alone and the bytes on the wire counted.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

import repro.gf.vector as gf_vector
import repro.service.coordinator as coordinator_module
from repro.durable import RecoveryJournal, chunk_checksum
from repro.erasure.repair import (
    combine_partials,
    execute_partial_decode,
    split_repair_vector,
)
from repro.erasure.rs import RSCode
from repro.experiments.configs import MB
from repro.gf.field import gf
from repro.obs.metrics import cache_stats
from repro.recovery.balancer import GreedyLoadBalancer
from repro.recovery.baselines import CarStrategy
from repro.recovery.planner import plan_recovery
from repro.recovery.selector import CarSelector
from repro.recovery.solution import MultiStripeSolution
from repro.service.protocol import (
    FrameReader,
    MsgType,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.sim import RecoverySimulator, build_tasks


def median_seconds(fn, budget_s: float, min_calls: int = 3) -> float:
    """Median wall time of ``fn()`` over one warm-up call plus as many
    timed calls as fit in ``budget_s`` (at least ``min_calls``)."""
    fn()
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- size probes -----------------------------------------------------------


def size_probes(budget_s: float, workdir, src_dir) -> dict:
    """Standalone layer probes at fixed sizes (k = 6, GF(2^8))."""
    rng = np.random.default_rng(0)
    field = gf(8)
    out = {}

    def buffers(size):
        return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(6)]

    coeffs = [3, 7, 11, 19, 29, 53]
    for label, size in (
        ("4k", 4096), ("64k", 65536), ("1m", MB), ("4m", 4 * MB)
    ):
        bufs = buffers(size)
        seconds = median_seconds(
            lambda: gf_vector.dot_rows(field, coeffs, bufs), budget_s
        )
        out[f"gf.dot_rows_MiBps_{label}"] = 6 * size / MB / seconds
    rows = np.arange(1, 19).reshape(3, 6)
    bufs = buffers(4 * MB)
    seconds = median_seconds(
        lambda: gf_vector.matrix_apply(field, rows, bufs), budget_s
    )
    out["gf.matrix_apply_MiBps_4m"] = 6 * 4 / seconds

    # Repair vector: first lookup on a fresh code object, then the hit.
    helpers = [1, 2, 3, 4, 5, 6]
    cold, warm = [], []
    for _ in range(20):
        code = RSCode(6, 3)
        for sink in (cold, warm):
            t0 = time.perf_counter()
            code.repair_vector(0, helpers)
            sink.append(time.perf_counter() - t0)
    out["erasure.repair_vector_cold_us"] = statistics.median(cold) * 1e6
    out["erasure.repair_vector_warm_us"] = statistics.median(warm) * 1e6

    code = RSCode(6, 3)
    chunks = dict(zip(helpers, buffers(MB)))
    racks = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2}

    def partial_decode():
        plan = split_repair_vector(code, 0, helpers, racks)
        combine_partials(code, execute_partial_decode(code, plan, chunks))

    out["erasure.partial_decode_ms_1m"] = (
        median_seconds(partial_decode, budget_s) * 1e3
    )

    chunk = chunks[1]
    stripe_ids = iter(range(10**9))
    with RecoveryJournal(workdir / "probe.journal") as journal:
        journal.begin_session({})

        def commit():
            journal.stripe_commit(
                next(stripe_ids), chunk, lost_chunk=0, ok=True,
                cross_rack_bytes=0, intra_rack_bytes=0,
                bytes_computed_by_node={},
            )

        seconds = median_seconds(commit, budget_s)
    out["durable.commit_append_ms_1m"] = seconds * 1e3
    out["durable.journal_MiBps"] = 1.0 / seconds
    out["durable.checksum_MiBps"] = 1.0 / median_seconds(
        lambda: chunk_checksum(chunk), budget_s
    )

    blob = chunk.tobytes()
    header = {"type": MsgType.CHUNK_DATA, "stripe": 0, "chunk": 0, "node": 0}
    out["service.frame_encode_MiBps_1m"] = 1.0 / median_seconds(
        lambda: encode_frame(header, blob), budget_s
    )
    frame = encode_frame(header, blob)
    out["service.frame_decode_MiBps_1m"] = 1.0 / median_seconds(
        lambda: FrameReader().feed(frame), budget_s
    )

    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, check=True
        )
        imports.append(time.perf_counter() - t0)
    out["cli.import_s"] = statistics.median(imports)
    return out


# -- coordination probe ----------------------------------------------------


def coordination_probe(rec, state, event, chunk: int, sim_stripes: int) -> dict:
    """Call each coordination layer once more, alone, on this state."""

    def timed(name, fn):
        with rec.span(name):
            t0 = time.perf_counter()
            value = fn()
            return value, time.perf_counter() - t0

    rec.rep = "probe"
    views, views_s = timed("cluster.views", state.views)
    selector = CarSelector(state.topology, state.code.k)
    picks, select_s = timed(
        "selector.select", lambda: [selector.initial_solution(v) for v in views]
    )
    initial = MultiStripeSolution(
        picks, num_racks=state.topology.num_racks, aggregated=True
    )
    (_, trace), balance_s = timed(
        "balancer.balance",
        lambda: GreedyLoadBalancer(iterations=50).balance(
            {v.stripe_id: v for v in views}, initial, selector
        ),
    )
    solution, solve_s = timed("recovery.solve", lambda: CarStrategy().solve(state))
    plan, plan_s = timed(
        "planner.plan", lambda: plan_recovery(state, event, solution)
    )
    head = dataclasses.replace(plan, stripe_plans=plan.stripe_plans[:sim_stripes])
    simulator = RecoverySimulator(state)
    timing, simulate_s = timed(
        "sim.simulate", lambda: simulator.simulate(head, chunk)
    )
    tasks = build_tasks(state, head, simulator.fabric, simulator.hardware, chunk)
    return {
        "cluster.views_s": views_s,
        "selector.select_s": select_s,
        "selector.stripes_per_s": len(views) / select_s,
        "balancer.balance_s": balance_s,
        "balancer.substitutions": trace.substitutions,
        "balancer.lambda_initial": trace.initial_lambda,
        "recovery.solve_s": solve_s,
        "planner.plan_s": plan_s,
        "planner.stripes_per_s": len(views) / plan_s,
        "planner.cross_rack_transfers": plan.cross_rack_chunks(),
        "sim.simulate_s": simulate_s,
        "sim.tasks": len(tasks),
        "sim.transmission_ratio": float(timing.transmission_ratio),
    }


# -- recorded calls --------------------------------------------------------


@contextmanager
def recorded_dot_rows():
    """Swap ``dot_rows`` in every module that imported it for a wrapper
    that keeps each call's arguments (references, no copies)."""
    original = gf_vector.dot_rows
    calls: list[tuple] = []

    def wrapper(field, coeffs, bufs):
        calls.append((field, coeffs, bufs))
        return original(field, coeffs, bufs)

    holders = [
        module for name, module in list(sys.modules.items())
        if name.startswith("repro")
        and getattr(module, "dot_rows", None) is original
    ]
    for module in holders:
        module.dot_rows = wrapper
    try:
        yield calls
    finally:
        for module in holders:
            module.dot_rows = original


def repair_cache_counts() -> tuple[int, int]:
    """(hits, misses) of the repair-vector caches: the code's own and the
    streaming path's per-signature memo in front of it."""
    stats = cache_stats()
    # The streaming memo registers itself only once that module is loaded.
    caches = [
        stats[n] for n in ("rs.repair_vector", "exec.repair_groups") if n in stats
    ]
    return sum(c["hits"] for c in caches), sum(c["misses"] for c in caches)


async def gf_replay(workload, rec, ops: int, op_s: float) -> dict:
    """Run ``ops`` operations recording their ``dot_rows`` calls, then
    replay exactly those calls alone.  ``gf.share`` is the replay over
    ``ops`` times the untraced median ``op_s``: the share of an operation
    spent inside the layer's public function, per-call dispatch included."""
    before = repair_cache_counts()
    rec.rep = "gf-record"
    with recorded_dot_rows() as calls:
        for _ in range(ops):
            await workload.op(rec)
    hits, misses = (a - b for a, b in zip(repair_cache_counts(), before))

    def replay():
        for field, coeffs, bufs in calls:
            gf_vector.dot_rows(field, coeffs, bufs)

    replay_s = median_seconds(replay, 0.0)
    return {
        "gf.replay_s": replay_s,
        "gf.share": replay_s / (ops * op_s),
        "gf.calls": len(calls),
        "gf.bytes_in": sum(
            len(bufs) * bufs[0].shape[0] * bufs[0].itemsize
            for _, _, bufs in calls
        ),
        "erasure.repair_cache_hit_rate": hits / (hits + misses),
    }


@contextmanager
def counted_coordinator_frames():
    """Count the blob bytes the coordinator reads and writes."""
    counted = {"bytes": 0}
    originals = (coordinator_module.read_frame, coordinator_module.write_frame)

    async def counting_read(reader):
        frame = await read_frame(reader)
        if frame is not None:
            counted["bytes"] += len(frame[1])
        return frame

    async def counting_write(writer, msg, blob=b""):
        counted["bytes"] += len(blob)
        await write_frame(writer, msg, blob)

    coordinator_module.read_frame = counting_read
    coordinator_module.write_frame = counting_write
    try:
        yield counted
    finally:
        coordinator_module.read_frame, coordinator_module.write_frame = originals


async def fetch_chunk_ms(workload, budget_s: float) -> float:
    """One READ_CHUNK round trip to a chunkserver, as the coordinator
    does it: connect, request, read the blob, close."""
    state = workload.state
    stripe = next(iter(workload.lost))
    chunk, node = next(iter(state.stripe_view(stripe).surviving.items()))
    server = next(
        cs for cs in workload.cluster.chunkservers if node in cs.live_nodes
    )
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        reader, writer = await asyncio.open_connection(*server.address)
        await write_frame(
            writer,
            {"type": MsgType.READ_CHUNK, "stripe": stripe, "chunk": chunk,
             "node": node},
        )
        _, blob = await read_frame(reader)
        writer.close()
        times.append(time.perf_counter() - t0)
        if len(blob) != workload.chunk:
            raise RuntimeError("fetch_chunk probe: short blob")
    return statistics.median(times) * 1e3
