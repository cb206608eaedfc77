"""In-process service harness: one coordinator + N chunkserver daemons.

:class:`LocalCluster` boots the whole control/data plane inside one
asyncio event loop — real sockets on localhost, real frames, modelled
time — which is what `repro-car serve`, `bench-service`, the CI
service-smoke job, and the service tests all drive.  Racks are dealt to
chunkserver daemons whole, so "coordinator + 3 chunkservers" works for
every CFS config and a rack's partial decode finds its helpers on one
daemon; ask for more daemons than racks and each rack is spread over
daemons of its own (one per node at the limit), which is what makes a
delegate pull chunks from its rack-mates.

:class:`ServiceClient` is the foreground workload: a persistent client
connection issuing (degraded) reads and recording their *modelled*
latencies.

The crash-recovery drill the acceptance test runs:

1. ``LocalCluster(..., crash_after_records=n)`` — the first repair
   incarnation dies after ``n`` journal records
   (:class:`~repro.errors.CoordinatorCrashError`);
2. :meth:`LocalCluster.restart_coordinator` — tears the dead
   coordinator down, boots a fresh one on the *same* cluster state and
   journal path, re-registers the chunkservers, and calls
   :meth:`~repro.service.coordinator.Coordinator.start_repair`, which
   resumes from the journal;
3. committed stripes replay byte-identically with zero re-shipped
   cross-rack traffic; only pending stripes execute live.
"""

from __future__ import annotations

import asyncio
import ctypes
from pathlib import Path

from repro.cluster.failure import FailureInjector
from repro.errors import ConfigurationError, ServiceError
from repro.experiments.configs import CFSConfig, build_state, config_by_name
from repro.obs.tracer import validate_events
from repro.service.admission import (
    AdmissionController,
    ModeledLink,
    ServiceClock,
)
from repro.service.chunkserver import Chunkserver
from repro.service.coordinator import Coordinator
from repro.service.protocol import (
    Connection,
    MsgType,
    read_frame,
    write_frame,
)

__all__ = ["ServiceClient", "LocalCluster"]


class ServiceClient:
    """One foreground client connection to the coordinator."""

    def __init__(self, conn: Connection) -> None:
        self._conn = conn
        #: Modelled latency of every read this client issued, in order.
        self.latencies: list[float] = []

    @classmethod
    async def connect(cls, address: tuple[str, int]) -> "ServiceClient":
        """Dial the coordinator and complete the hello handshake."""
        conn = await Connection.open(address)
        await write_frame(conn, {"type": MsgType.HELLO, "role": "client"})
        ack = await read_frame(conn)
        if ack is None or ack[0].get("type") != MsgType.HELLO_ACK:
            conn.close()
            raise ServiceError("client hello was not acked")
        return cls(conn)

    async def read(self, stripe: int) -> dict:
        """Read one stripe's chunk (degraded if it was lost).

        Returns the reply header with the raw bytes under ``data``.
        """
        await write_frame(
            self._conn, {"type": MsgType.READ, "stripe": int(stripe)}
        )
        frame = await read_frame(self._conn)
        if frame is None:
            raise ServiceError("coordinator closed during read")
        msg, blob = frame
        if msg.get("type") != MsgType.READ_REPLY:
            raise ServiceError(
                f"read of stripe {stripe} failed: {msg.get('error')}"
            )
        self.latencies.append(float(msg["latency_model_s"]))
        return {**msg, "data": blob}

    async def status(self) -> dict:
        """Fetch the coordinator's status snapshot."""
        await write_frame(self._conn, {"type": MsgType.STATUS})
        frame = await read_frame(self._conn)
        if frame is None or frame[0].get("type") != MsgType.STATUS_REPLY:
            raise ServiceError("status request failed")
        return frame[0]

    async def shutdown(self) -> None:
        """Ask the coordinator to stop (acked, then both sides close)."""
        await write_frame(self._conn, {"type": MsgType.SHUTDOWN})
        await read_frame(self._conn)
        await self.close()

    async def close(self) -> None:
        self._conn.close()


#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for the serving process.

    A 1 MiB degraded read allocates and frees seven chunk-sized buffers
    (three partials, their three receive buffers, the client's), 3 MiB
    of them live at once.  glibc's thresholds are dynamic — the mmap
    threshold is the largest mmapped block the process has freed so
    far, the trim threshold twice that — so whether those buffers come
    from retained heap or are page-faulted in and given back on every
    read (0.2 against ~450 faults per read, 6 % of its latency) depends
    on what the process happened to free before it started serving.
    Pinning both at the top of the dynamic range, where glibc itself
    ends up after one 32 MiB block is freed, makes a read cost the same
    whatever ran before it (docs/SERVICE.md has the measurements).  The
    heap then keeps up to 64 MiB of freed memory instead of returning it.

    Process-wide and idempotent; a no-op where the C library has no
    ``mallopt`` (musl, macOS, Windows).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


#: Labels whose repairs rebuild RS-coded bytes (``rack-msr`` only
#: models traffic: :func:`~repro.recovery.baselines.strategy_from_label`).
_EXECUTABLE_STRATEGIES = ("car", "rr", "direct")


class LocalCluster:
    """Boot a full service (coordinator + chunkservers) in-process.

    Args:
        config: CFS config (object or name, e.g. ``"CFS2"``).
        seed: placement/data/failure seed.
        num_stripes / chunk_size: data-store shape (small defaults —
            this is a live service, not a throughput kernel).
        chunkservers: how many daemons the racks are dealt to.
        workdir: directory for the journal (and any trace dumps).
        strategy: repair strategy label (``car``, ``rr`` or ``direct``).
        speedup: modelled seconds per wall second.
        link_capacity: shared cross-rack core, modelled bytes/s.
        repair_cap / client_priority:
            admission-control knobs (see
            :class:`~repro.service.admission.AdmissionController`).
        heartbeat_interval / suspect_after / dead_after /
        detector_interval: failure-detection cadence, modelled seconds.
        repair_window: stripes per repair window.
        crash_after_records: arm a coordinator crash in the first repair
            incarnation (the crash-resume drill).
    """

    def __init__(
        self,
        *,
        config: str | CFSConfig = "CFS2",
        seed: int = 7,
        num_stripes: int = 12,
        chunk_size: int = 4096,
        chunkservers: int = 3,
        workdir: str | Path,
        strategy: str = "car",
        speedup: float = 400.0,
        link_capacity: float = 4 * (1 << 20),
        repair_cap: float | None = None,
        client_priority: float = 1.0,
        heartbeat_interval: float = 0.25,
        suspect_after: float = 1.0,
        dead_after: float = 2.5,
        detector_interval: float = 0.2,
        repair_window: int = 4,
        crash_after_records: int | None = None,
    ) -> None:
        if chunkservers < 1:
            raise ConfigurationError("need at least one chunkserver")
        if strategy not in _EXECUTABLE_STRATEGIES:
            raise ConfigurationError(
                f"the service cannot execute strategy {strategy!r} "
                f"(expected one of {', '.join(_EXECUTABLE_STRATEGIES)})"
            )
        self.num_chunkservers = chunkservers
        self.config = config_by_name(config)
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.workdir / "repair.journal"
        self.strategy = strategy
        self.state = build_state(
            self.config,
            seed=seed,
            with_data=True,
            chunk_size=chunk_size,
            num_stripes=num_stripes,
        )
        self.clock = ServiceClock(speedup=speedup)
        self.link = ModeledLink(link_capacity)
        self.admission = AdmissionController(
            self.link,
            self.clock,
            repair_cap_bytes_per_s=repair_cap,
            client_priority=client_priority,
        )
        self._coordinator_kwargs = dict(
            strategy=strategy,
            seed=seed,
            suspect_after=suspect_after,
            dead_after=dead_after,
            detector_interval=detector_interval,
            repair_window=repair_window,
        )
        self.heartbeat_interval = heartbeat_interval
        self.crash_after_records = crash_after_records
        self.coordinator: Coordinator | None = None
        self.chunkservers: list[Chunkserver] = []
        self._events_from_dead_coordinators: list[dict] = []

    # -- lifecycle -------------------------------------------------------

    def _deal_nodes(self, count: int) -> list[list[int]]:
        """Node ids per daemon.  Racks go whole to the daemons in turn;
        once there are daemons to spare, each further one goes to the
        rack with the most nodes per daemon, and a rack's nodes are
        spread over its own daemons only (one per node at the limit).
        """
        topology = self.state.topology
        racks = [sorted(rack.node_ids) for rack in topology.racks]
        if count <= len(racks):
            return [sum(racks[i::count], []) for i in range(count)]
        shares = [1] * len(racks)
        for _ in range(min(count, topology.num_nodes) - len(racks)):
            crowded = max(
                range(len(racks)), key=lambda r: len(racks[r]) / shares[r]
            )
            shares[crowded] += 1
        return [
            nodes[j::share]
            for nodes, share in zip(racks, shares)
            for j in range(share)
        ]

    async def start(self, chunkservers: int | None = None) -> None:
        """Boot the coordinator, then register every chunkserver."""
        _pin_malloc_thresholds()
        count = chunkservers or self.num_chunkservers
        self.coordinator = Coordinator(
            self.state,
            self.clock,
            self.admission,
            journal_path=self.journal_path,
            crash_after_records=self.crash_after_records,
            **self._coordinator_kwargs,
        )
        self.crash_after_records = None
        await self._boot_chunkservers(await self.coordinator.start(), count)

    async def _boot_chunkservers(self, address, count, killed=()) -> None:
        for i, nodes in enumerate(self._deal_nodes(count)):
            cs = Chunkserver(
                f"cs{i}",
                nodes,
                self.state.data,
                self.state.placement,
                self.state.topology,
                self.clock,
                heartbeat_interval=self.heartbeat_interval,
            )
            # Kill before registering so a dead node never re-announces
            # itself ALIVE to a fresh coordinator's detector.
            for node in cs.nodes.intersection(killed):
                cs.kill_node(node)
            await cs.start(address)
            self.chunkservers.append(cs)

    async def stop(self) -> None:
        """Stop every daemon (chunkservers first, then the coordinator)."""
        for cs in self.chunkservers:
            await cs.stop()
        self.chunkservers = []
        if self.coordinator is not None:
            await self.coordinator.stop()

    async def restart_coordinator(self) -> Coordinator:
        """Replace a (crashed) coordinator; the repair journal survives.

        The dead coordinator's trace events are preserved, chunkservers
        are restarted against the new address, and if a primary failure
        was in flight the repair *resumes* from the journal.
        """
        assert self.coordinator is not None
        count = len(self.chunkservers) or self.num_chunkservers
        killed = set()
        for cs in self.chunkservers:
            killed.update(cs.nodes - cs.live_nodes)
        await self.stop_remember_events()
        self.coordinator = Coordinator(
            self.state,
            self.clock,
            self.admission,
            journal_path=self.journal_path,
            **self._coordinator_kwargs,
        )
        await self._boot_chunkservers(
            await self.coordinator.start(), count, killed
        )
        if self.state.failed_node is not None:
            self.coordinator.start_repair()
        return self.coordinator

    async def stop_remember_events(self) -> None:
        """Tear down, folding the old coordinator's trace into history."""
        if self.coordinator is not None:
            self._events_from_dead_coordinators.extend(
                self.coordinator.all_events()
            )
        await self.stop()

    # -- drive -----------------------------------------------------------

    async def client(self) -> ServiceClient:
        """A new foreground client connection."""
        assert self.coordinator is not None and self.coordinator.address
        return await ServiceClient.connect(self.coordinator.address)

    def kill_node(self, node_id: int) -> None:
        """Kill one node: it silently vanishes from heartbeats."""
        for cs in self.chunkservers:
            if node_id in cs.nodes:
                cs.kill_node(node_id)
                return
        raise ServiceError(f"no chunkserver hosts node {node_id}")

    def kill_chunkserver(self, server_id: str) -> None:
        """Kill a whole chunkserver daemon abruptly."""
        for cs in self.chunkservers:
            if cs.server_id == server_id:
                cs.kill()
                return
        raise ServiceError(f"no chunkserver named {server_id!r}")

    def pick_victim(self) -> int:
        """A deterministic node to fail (same pick as the durable runs)."""
        probe = build_state(
            self.config,
            seed=self.seed,
            with_data=False,
            num_stripes=self.state.placement.num_stripes,
        )
        return FailureInjector(rng=self.seed).fail_random_node(
            probe
        ).failed_node

    async def wait_repair(self, timeout: float = 60.0) -> None:
        """Block until the repair reaches a terminal state.

        Raises:
            ServiceError: no repair started within the timeout.
        """
        deadline = asyncio.get_running_loop().time() + timeout
        while self.coordinator is not None and self.coordinator.repair is None:
            if asyncio.get_running_loop().time() > deadline:
                raise ServiceError("no repair started before the timeout")
            await asyncio.sleep(0.005)
        repair = self.coordinator.repair
        remaining = max(0.1, deadline - asyncio.get_running_loop().time())
        finished = await asyncio.to_thread(repair.join, remaining)
        if not finished:
            raise ServiceError("repair did not finish before the timeout")

    # -- artefacts -------------------------------------------------------

    def all_events(self) -> list[dict]:
        """Full service trace: dead coordinators' events plus current."""
        events = list(self._events_from_dead_coordinators)
        if self.coordinator is not None:
            events.extend(self.coordinator.all_events())
        return events

    def write_trace(self, path: str | Path | None = None) -> Path:
        """Validate and write the merged service trace as JSONL."""
        import json

        events = self.all_events()
        validate_events(events)
        path = Path(path) if path else self.workdir / "trace.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in events:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path
