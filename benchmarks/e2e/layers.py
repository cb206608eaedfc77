"""Per-layer figures that only one workload can supply (traced pass).

Each function takes the workload after its timed loop (the service
cluster still running) and returns metric name -> value.  A layer the
workload does not cross is simply absent; ``run.py`` reports it as 0.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc

from repro.experiments.configs import MB
from repro.faults.events import ActionKind
from repro.obs.metrics import MetricsRegistry, telemetry_scope
from repro.obs.tracer import Tracer
from repro.recovery.baselines import CarStrategy
from repro.recovery.executor import PlanExecutor
from repro.recovery.planner import plan_recovery
from repro.service.bench import quantile

from probes import counted_coordinator_frames, fetch_chunk_ms
from spans import Recorder
from workloads import STREAM_WINDOW


async def op_seconds(workload, ops: int) -> float:
    """Median wall seconds of ``ops`` more untraced operations."""
    quiet = Recorder(enabled=False)
    for _ in range(ops):
        await workload.op(quiet)
    return statistics.median(s[1] for s in workload.samples[-ops:])


async def bulk(workload, rec, gf_replay_s: float) -> dict:
    state, event = workload.state, workload.event
    execute_s = rec.median("executor.execute")

    def stream_MiBps(workers: int) -> float:
        # window=4 so that the ~14 affected stripes make several windows
        # for the process pool to share.
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        t0 = time.perf_counter()
        result = PlanExecutor(state).execute_streaming(
            plan, solution, window=4,
            workers=workers if workers > 1 else None,
            shm=True if workers > 1 else None,
        )
        seconds = time.perf_counter() - t0
        for stripe in workload.lost:
            workload.check_stripe(stripe, result.reconstructed.get(stripe))
        return workload.rebuilt_bytes_per_rep / MB / seconds

    one = statistics.median(stream_MiBps(1) for _ in range(3))
    two = statistics.median(stream_MiBps(2) for _ in range(3))
    return {
        "executor.execute_s": execute_s,
        "executor.overhead_s": execute_s - gf_replay_s,
        "executor.overhead_share": (execute_s - gf_replay_s) / execute_s,
        "io_shm.workers2_ratio": two / one,
    }


async def fleet(workload, rec, gf_replay_s: float) -> dict:
    stripes = workload.event.num_stripes
    execute_s = rec.median("streaming.execute")
    off_s = await op_seconds(workload, 2)
    workload.tracer = Tracer()
    with telemetry_scope(MetricsRegistry()):
        on_s = await op_seconds(workload, 2)
    workload.tracer = None
    tracemalloc.start()
    await workload.op(Recorder(enabled=False))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "streaming.execute_s": execute_s,
        "streaming.stripes_per_s": stripes / execute_s,
        "streaming.windows": math.ceil(stripes / STREAM_WINDOW),
        "streaming.peak_alloc_MiB": peak / MB,
        "obs.telemetry_on_ratio": on_s / off_s,
    }


async def durable(workload, rec, gf_replay_s: float) -> dict:
    state, event = workload.state, workload.event
    session_s = rec.median("durable.session_run")

    def quiet_execute() -> float:
        t0 = time.perf_counter()
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        result = PlanExecutor(state).execute(plan, solution)
        seconds = time.perf_counter() - t0
        for stripe in workload.lost:
            workload.check_stripe(stripe, result.reconstructed.get(stripe))
        return seconds

    quiet_s = statistics.median(quiet_execute() for _ in range(4))
    robust = workload.last_result.robust
    return {
        "durable.session_run_s": session_s,
        "durable.overhead_ratio": session_s / quiet_s,
        "faults.retries": sum(
            a.action is ActionKind.RETRY for a in robust.log.actions
        ),
        "faults.replans": robust.replans,
    }


async def service(workload, rec, gf_replay_s: float) -> dict:
    degraded = [s[1] * 1e3 for s in workload.timed if s[0] == "degraded"]
    healthy = [s[1] * 1e3 for s in workload.timed if s[0] == "healthy"]
    repair_s = rec.median("service.repair")
    stripes = list(workload.lost)[:10]
    with counted_coordinator_frames() as wire:
        for stripe in stripes:
            reply = await workload.client.read(stripe)
            truth = workload.state.data.chunk(stripe, workload.lost[stripe])
            workload.check(reply["data"] == truth.tobytes())
    return {
        "service.boot_s": rec.median("service.boot"),
        "service.detect_s": rec.median("service.detect"),
        "service.repair_s": repair_s,
        "service.repair_MiBps": workload.rebuilt_bytes_per_rep / MB / repair_s,
        "service.fetch_chunk_ms_1m": await fetch_chunk_ms(workload, 0.3),
        "service.read_ms_p50": statistics.median(degraded),
        "service.read_ms_p95": quantile(degraded, 0.95),
        "service.read_ms_p99": quantile(degraded, 0.99),
        "service.read_ms_max": max(degraded),
        "service.normal_read_ms_p50": (
            statistics.median(healthy) if healthy else 0.0
        ),
        "service.reads_timed": len(degraded) + len(healthy),
        "service.degraded_share": len(degraded) / (len(degraded) + len(healthy)),
        "service.wire_bytes_per_degraded_read": wire["bytes"] / len(stripes),
    }


EXTRAS = {
    "bulk_repair_4m": bulk,
    "fleet_stream_256b": fleet,
    "durable_repair_1m": durable,
    "service_read_1m": service,
}
