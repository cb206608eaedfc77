"""Service drivers: one full run, and the repair-cap contention sweep.

:func:`run_service` is the engine behind ``repro-car serve`` and the CI
service-smoke job: boot a :class:`~repro.service.cluster.LocalCluster`,
kill a node, let the failure detector notice, run foreground clients
against the degraded stripes while the background repair streams, wait
for the repair to finish, and return one summary dict (optionally
writing the validated service trace).

:func:`run_bench_service` is ``repro-car bench-service``: the same run
swept over repair-bandwidth caps, producing the paper-motivating curve
— *recovery throughput vs foreground p99 latency* as the repair cap
loosens.  All latencies and throughputs are in **modelled** units, so
the numbers describe the modelled cluster, not the host machine.
"""

from __future__ import annotations

import asyncio
import math
from pathlib import Path

from repro.errors import ServiceError
from repro.service.cluster import LocalCluster

__all__ = [
    "quantile",
    "run_service",
    "run_bench_service",
    "render_service_table",
]


def quantile(values, q: float) -> float:
    """The q-quantile (nearest-rank) of a non-empty sequence."""
    if not values:
        raise ServiceError("quantile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


async def _client_load(
    cluster: LocalCluster,
    stripes,
    *,
    clients: int,
    min_reads: int,
) -> tuple[list[float], list[float]]:
    """Run ``clients`` concurrent readers until the repair finishes.

    Each client cycles through the degraded stripes; everyone issues at
    least ``min_reads`` reads even if the repair finishes instantly, so
    the latency sample is never empty.

    Returns:
        ``(all_latencies, contended_latencies)`` — the second lists only
        reads that completed while the repair was still running, which
        is the sample the contention curve quotes (reads after the
        repair finished see an idle link and would dilute p99).
    """
    repair_done = asyncio.Event()

    async def _watch_repair() -> None:
        while True:
            coord = cluster.coordinator
            if (
                coord is not None
                and coord.repair is not None
                and coord.repair.done.is_set()
            ):
                repair_done.set()
                return
            await asyncio.sleep(0.005)

    async def _one_client(offset: int) -> tuple[list[float], list[float]]:
        client = await cluster.client()
        contended: list[float] = []
        try:
            i = 0
            while i < min_reads or not repair_done.is_set():
                in_flight_during_repair = not repair_done.is_set()
                stripe = stripes[(offset + i) % len(stripes)]
                reply = await client.read(stripe)
                if not reply["ok"]:
                    raise ServiceError(
                        f"degraded read of stripe {stripe} returned "
                        "bytes that do not match ground truth"
                    )
                if in_flight_during_repair:
                    contended.append(client.latencies[-1])
                i += 1
                if i >= min_reads * 8:  # runaway guard
                    break
            return client.latencies, contended
        finally:
            await client.close()

    watcher = asyncio.create_task(_watch_repair())
    try:
        samples = await asyncio.gather(
            *(_one_client(j) for j in range(clients))
        )
    finally:
        watcher.cancel()
    return (
        [lat for all_lat, _ in samples for lat in all_lat],
        [lat for _, contended in samples for lat in contended],
    )


async def _run_once(
    *,
    workdir: Path,
    trace_path: Path | None,
    clients: int,
    min_reads: int,
    repair_timeout: float,
    **cluster_kwargs,
) -> dict:
    cluster = LocalCluster(workdir=workdir, **cluster_kwargs)
    await cluster.start()
    try:
        victim = cluster.pick_victim()
        cluster.kill_node(victim)
        # The detector must notice (timeout, not notification) before
        # degraded stripes exist to read.
        deadline = asyncio.get_running_loop().time() + repair_timeout
        while cluster.coordinator.repair is None:
            if asyncio.get_running_loop().time() > deadline:
                raise ServiceError(
                    f"failure of node {victim} was never detected"
                )
            await asyncio.sleep(0.005)
        stripes = list(cluster.state.affected_stripes())
        latencies, contended = await _client_load(
            cluster, stripes, clients=clients, min_reads=min_reads
        )
        # Quote contention numbers from reads that raced the repair;
        # fall back to the whole sample if the repair won outright.
        quoted = contended or latencies
        await cluster.wait_repair(timeout=repair_timeout)
        repair = cluster.coordinator.repair
        if repair.error is not None:
            raise repair.error
        if repair.crash is not None:
            raise repair.crash
        result = repair.result
        chunk_size = cluster.state.data.chunk_size
        model_s = max(
            1e-9, (repair.finished_model or 0) - (repair.started_model or 0)
        )
        summary = {
            "config": cluster.config.name,
            "strategy": cluster.strategy,
            "failed_node": victim,
            "stripes": len(stripes),
            "chunk_size": chunk_size,
            "verified": result.verified,
            "replayed": len(result.replayed),
            "executed": len(result.executed),
            "repair_cross_rack_bytes": result.cross_rack_bytes,
            "recovery_model_s": model_s,
            "recovery_throughput_bytes_per_s": (
                len(stripes) * chunk_size / model_s
            ),
            "reads": len(latencies),
            "contended_reads": len(contended),
            "degraded_reads": cluster.coordinator.degraded_reads,
            "wire_cross_rack_bytes": cluster.coordinator.wire_cross_rack_bytes,
            "client_p50_model_s": quantile(quoted, 0.50),
            "client_p99_model_s": quantile(quoted, 0.99),
            "client_mean_model_s": sum(quoted) / len(quoted),
            "admission": cluster.admission.snapshot(),
        }
        if trace_path is not None:
            summary["trace_path"] = str(cluster.write_trace(trace_path))
        return summary
    finally:
        await cluster.stop()


def run_service(
    *,
    workdir: str | Path,
    trace_path: str | Path | None = None,
    config: str = "CFS2",
    seed: int = 7,
    num_stripes: int = 10,
    chunk_size: int = 2048,
    chunkservers: int = 3,
    strategy: str = "car",
    clients: int = 3,
    min_reads: int = 6,
    speedup: float = 50.0,
    link_capacity: float = 8 * (1 << 20),
    repair_cap: float | None = None,
    client_priority: float = 1.0,
    repair_window: int = 4,
    crash_after_records: int | None = None,
    repair_timeout: float = 120.0,
) -> dict:
    """One full service run; returns the summary dict."""
    return asyncio.run(
        _run_once(
            workdir=Path(workdir),
            trace_path=Path(trace_path) if trace_path else None,
            clients=clients,
            min_reads=min_reads,
            repair_timeout=repair_timeout,
            config=config,
            seed=seed,
            num_stripes=num_stripes,
            chunk_size=chunk_size,
            chunkservers=chunkservers,
            strategy=strategy,
            speedup=speedup,
            link_capacity=link_capacity,
            repair_cap=repair_cap,
            client_priority=client_priority,
            repair_window=repair_window,
            crash_after_records=crash_after_records,
        )
    )


#: Default repair-bandwidth caps for the sweep, modelled bytes/s.
#: ``None`` = uncapped (repair still queues on the shared link).
DEFAULT_CAPS: tuple[float | None, ...] = (16 * 1024, 64 * 1024, None)


def run_bench_service(
    caps=DEFAULT_CAPS,
    *,
    workdir: str | Path,
    config: str = "CFS2",
    seed: int = 7,
    num_stripes: int = 12,
    chunk_size: int = 4096,
    clients: int = 4,
    min_reads: int = 8,
    client_priority: float = 2.0,
    strategy: str = "car",
    speedup: float = 10.0,
    link_capacity: float = 256 * 1024,
) -> list[dict]:
    """Sweep the repair-bandwidth cap; one summary row per cap."""
    workdir = Path(workdir)
    rows = []
    for i, cap in enumerate(caps):
        summary = run_service(
            workdir=workdir / f"cap{i}",
            config=config,
            seed=seed,
            num_stripes=num_stripes,
            chunk_size=chunk_size,
            strategy=strategy,
            clients=clients,
            min_reads=min_reads,
            speedup=speedup,
            link_capacity=link_capacity,
            repair_cap=cap,
            client_priority=client_priority,
        )
        summary["repair_cap_bytes_per_s"] = cap
        rows.append(summary)
    return rows


def _fmt_cap(cap) -> str:
    if cap is None:
        return "uncapped"
    if cap >= 1 << 20:
        return f"{cap / (1 << 20):.0f} MiB/s"
    return f"{cap / 1024:.0f} KiB/s"


def render_service_table(rows) -> str:
    """The bench-service sweep as a fixed-width text table."""
    header = (
        f"{'repair cap':>12} {'recovery B/s':>14} {'recovery s':>11} "
        f"{'client p50 s':>13} {'client p99 s':>13} {'reads':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{_fmt_cap(row.get('repair_cap_bytes_per_s')):>12} "
            f"{row['recovery_throughput_bytes_per_s']:>14.0f} "
            f"{row['recovery_model_s']:>11.3f} "
            f"{row['client_p50_model_s']:>13.5f} "
            f"{row['client_p99_model_s']:>13.5f} "
            f"{row['reads']:>6d}"
        )
    return "\n".join(lines)
