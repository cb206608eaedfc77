"""The coordinator daemon: membership, degraded reads, repair control.

One asyncio server owns the whole control plane:

- **membership** — chunkservers register (``hello``) and heartbeat;
  a :class:`~repro.service.heartbeat.FailureDetector` poll loop turns
  silence into SUSPECT/DEAD transitions (timeout, never notification).
  The loop measures the gap between its own polls: time this process
  spent not observing (a stalled event loop, a suspended host) is
  excused, not counted as every node's silence;
- **failure → repair** — the first DEAD node becomes the cluster's
  single failure (:meth:`~repro.cluster.state.ClusterState.fail_node`)
  and starts a background :class:`~repro.service.repair.RepairService`;
  later deaths are secondary: the running repair is told, and its
  fault ladder re-plans around the node inside the same session;
- **degraded reads** — clients ask for a stripe's chunk; if it lived on
  the failed node the coordinator picks the helpers (Algorithm 2's
  initial pick), splits the repair vector by rack, and sends each
  rack's delegate chunkserver one ``partial-decode``: the rack combines
  its own helpers (Equation 7) and ships *one* chunk-sized partial.
  The coordinator XORs the partials — it plays the replacement node —
  and replies with the rebuilt bytes.  The cross-rack bytes of a read
  are counted from the frames that arrived and must equal what the
  solution planned.  A helper that dies inside its lease costs one
  re-plan of that stripe.  Both read classes charge the shared
  modelled link through the admission controller, so their latency
  includes queueing behind repair traffic — the paper's contention.

The repair itself runs in a worker thread (see
:mod:`repro.service.repair`); the coordinator only starts it, relays
death notices to it, and folds its trace events into the service trace
on :meth:`Coordinator.stop`.  A coordinator killed mid-repair leaves
the write-ahead journal behind; constructing a fresh coordinator on the
same state and journal path and calling :meth:`Coordinator.start_repair`
resumes — committed stripes replay byte-identically with no re-shipped
cross-rack traffic.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.cluster.state import ClusterState, FailureEvent
from repro.erasure.repair import split_repair_vector
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.gf.field import gf
from repro.gf.vector import buffer_dtype
from repro.obs.tracer import Tracer
from repro.recovery.baselines import CarStrategy, strategy_from_label
from repro.recovery.solution import PerStripeSolution
from repro.service.admission import AdmissionController
from repro.service.heartbeat import FailureDetector, NodeHealth
from repro.service.protocol import (
    Connection,
    ConnectionPool,
    FrameServer,
    MsgType,
    read_frame,
    write_frame,
)
from repro.service.repair import RepairService

__all__ = ["Coordinator"]


class _HelpersLost(ServiceError):
    """Partial decodes were refused or torn; ``nodes`` are the helpers
    to plan around: the ones a refusal names (else its whole group), the
    ones hosted by a daemon that dropped the connection."""

    def __init__(self, message: str, nodes) -> None:
        super().__init__(message)
        self.nodes = frozenset(nodes)


class Coordinator:
    """The control-plane daemon for one modelled cluster.

    Args:
        state: the cluster (with a :class:`~repro.cluster.state.DataStore`
            so repairs verify byte-for-byte).
        clock: the service's modelled clock.
        admission: shared-link admission controller.
        journal_path: write-ahead journal for the repair service.
        strategy: label (see
            :func:`~repro.recovery.baselines.strategy_from_label`) or
            strategy object.
        seed: forwarded to seeded strategies and the journal header.
        suspect_after / dead_after: failure-detector lease timeouts, in
            modelled seconds.
        detector_interval: poll period of the detector loop (modelled).
        repair_window: stripes per repair window (small keeps the
            pacing fine-grained).
        crash_after_records: arm a coordinator crash inside the *next*
            repair session (the durable layer's crash hook).
        tracer: event-loop tracer (defaults to a fresh one).
    """

    def __init__(
        self,
        state: ClusterState,
        clock,
        admission: AdmissionController,
        *,
        journal_path,
        strategy="car",
        seed: int = 0,
        suspect_after: float = 1.0,
        dead_after: float = 2.5,
        detector_interval: float = 0.2,
        repair_window: int = 4,
        crash_after_records: int | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if state.data is None:
            raise ConfigurationError(
                "the service needs a ClusterState with a DataStore "
                "(build_state(..., with_data=True))"
            )
        self.state = state
        self.clock = clock
        self.admission = admission
        self.journal_path = journal_path
        self.seed = seed
        self.strategy = (
            strategy_from_label(strategy, seed)
            if isinstance(strategy, str)
            else strategy
        )
        self.strategy_label = (
            strategy if isinstance(strategy, str)
            else type(strategy).__name__
        )
        self.detector = FailureDetector(suspect_after, dead_after)
        self.detector_interval = float(detector_interval)
        self.repair_window = repair_window
        self.crash_after_records = crash_after_records
        self.tracer = tracer if tracer is not None else Tracer()
        self._dtype = buffer_dtype(gf(state.code.w))

        self._server: FrameServer | None = None
        self._detector_task: asyncio.Task | None = None
        self._servers: dict[str, tuple[str, int]] = {}
        self._pool = ConnectionPool()
        self.repair: RepairService | None = None
        self._repair_tracer: Tracer | None = None
        self.address: tuple[str, int] | None = None
        self.reads_served = 0
        self.degraded_reads = 0
        #: Bytes of every partial received from a rack other than the
        #: failed one, summed over the degraded reads served.
        self.wire_cross_rack_bytes = 0
        self._stopped = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the control socket and start the detector loop."""
        self._server = FrameServer(self._handle_connection)
        self.address = self._server.start()
        self._detector_task = asyncio.create_task(self._detector_loop())
        self.tracer.event(
            "service.coordinator.start",
            host=self.address[0],
            port=self.address[1],
            strategy=self.strategy_label,
        )
        return self.address

    async def stop(self) -> None:
        """Graceful shutdown: detector off, sockets closed, traces merged.

        A still-running repair thread is left to finish on its own (it
        is a daemon thread journalling durably); its trace events up to
        now are folded in regardless.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._detector_task is not None:
            self._detector_task.cancel()
            try:
                await self._detector_task
            except asyncio.CancelledError:
                pass
        self._pool.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.tracer.event(
            "service.coordinator.stop",
            reads=self.reads_served,
            degraded_reads=self.degraded_reads,
        )

    def all_events(self) -> list[dict]:
        """Event-loop trace plus the repair thread's, in one stream.

        The repair worker records into its own tracer (tracers are not
        thread-safe); this is the merge point for export/validation.
        """
        events = list(self.tracer.events)
        if self._repair_tracer is not None:
            events.extend(self._repair_tracer.events)
        return events

    # -- failure detection ----------------------------------------------

    async def _detector_loop(self) -> None:
        last = self.clock.now()
        while True:
            await asyncio.sleep(self.clock.to_real(self.detector_interval))
            now = self.clock.now()
            # A poll this late means *this* process was away (a blocked
            # event loop, a suspended host) and heard nobody: charged to
            # the nodes, one such stall takes every lease ALIVE ->
            # SUSPECT -> DEAD in a single check, and DEAD is sticky.
            # Lateness below suspect_after cannot expire a fresh lease
            # by itself, so only a longer absence is excused.
            late = now - last - self.detector_interval
            if late > self.detector.suspect_after:
                self.detector.excuse(late)
                self.tracer.event(
                    "service.detector.pause", seconds=late, model_t=now
                )
            last = now
            for tr in self.detector.check(now):
                self._trace_lease(tr)
                if tr.new is NodeHealth.DEAD:
                    self._on_node_dead(tr.node_id)

    def _trace_lease(self, tr) -> None:
        self.tracer.event(
            "service.lease",
            node=tr.node_id,
            server=tr.server_id,
            old=tr.old.value if tr.old else None,
            new=tr.new.value,
            model_t=tr.at,
        )

    def _on_node_dead(self, node_id: int) -> None:
        if self.state.failed_node is None:
            event = self.state.fail_node(node_id)
            self.tracer.event(
                "service.failure.primary",
                node=node_id,
                rack=event.failed_rack,
                stripes=event.num_stripes,
            )
            self.start_repair(event)
        elif node_id != self.state.failed_node:
            self.tracer.event("service.failure.secondary", node=node_id)
            if self.repair is not None and not self.repair.done.is_set():
                self.repair.mark_dead(node_id)

    # -- repair ----------------------------------------------------------

    def start_repair(self, event: FailureEvent | None = None) -> RepairService:
        """Start (or resume — the journal decides) the background repair.

        Call explicitly with no event on a fresh coordinator that took
        over an existing journal after a crash: the cluster state must
        already carry the primary failure.
        """
        if self.repair is not None and not self.repair.done.is_set():
            return self.repair
        if event is None:
            if self.state.failed_node is None:
                raise ServiceError(
                    "start_repair without an event needs a failed node "
                    "already applied to the cluster state"
                )
            event = self.state.fail_node(self.state.failed_node)
        self._repair_tracer = Tracer()
        loop = asyncio.get_running_loop()

        def _on_done(service: RepairService) -> None:
            try:
                loop.call_soon_threadsafe(self._repair_finished, service)
            except RuntimeError:
                # The event loop is already gone (coordinator torn down
                # while the daemon repair thread drained); the result is
                # still readable via repair.snapshot().
                pass

        self.repair = RepairService(
            self.state,
            event,
            self.strategy,
            self.journal_path,
            self.clock,
            self.admission,
            window=self.repair_window,
            tracer=self._repair_tracer,
            session_meta={
                "seed": self.seed,
                "strategy_label": self.strategy_label,
                "chunk_size": self.state.data.chunk_size,
            },
            crash_after_records=self.crash_after_records,
            on_done=_on_done,
        )
        self.crash_after_records = None
        self.repair.start()
        return self.repair

    def _repair_finished(self, service: RepairService) -> None:
        snap = service.snapshot()
        self.tracer.event("service.repair.done", **snap)

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, conn: Connection) -> None:
        while True:
            try:
                frame = await read_frame(conn)
            except ProtocolError as exc:
                await write_frame(
                    conn, {"type": MsgType.ERROR, "error": str(exc)}
                )
                return
            if frame is None:
                return
            msg, _ = frame
            mtype = msg.get("type")
            if mtype == MsgType.HELLO:
                await self._handle_hello(conn, msg)
            elif mtype == MsgType.HEARTBEAT:
                self._handle_heartbeat(msg)
            elif mtype == MsgType.READ:
                await self._handle_read(conn, msg)
            elif mtype == MsgType.STATUS:
                await write_frame(
                    conn, {"type": MsgType.STATUS_REPLY, **self.status()}
                )
            elif mtype == MsgType.SHUTDOWN:
                await write_frame(conn, {"type": MsgType.SHUTDOWN})
                asyncio.get_running_loop().create_task(self.stop())
                return
            else:
                await write_frame(
                    conn,
                    {
                        "type": MsgType.ERROR,
                        "error": f"unexpected frame {mtype!r}",
                    },
                )

    async def _handle_hello(self, conn: Connection, msg: dict) -> None:
        role = msg.get("role", "client")
        now = self.clock.now()
        if role == "chunkserver":
            server = str(msg["server"])
            self._servers[server] = (str(msg["host"]), int(msg["port"]))
            try:
                self.detector.register(server, msg["nodes"], now)
            except ServiceError as exc:
                await write_frame(
                    conn, {"type": MsgType.ERROR, "error": str(exc)}
                )
                return
            self.tracer.event(
                "service.register", server=server, nodes=list(msg["nodes"])
            )
        await write_frame(
            conn, {"type": MsgType.HELLO_ACK, "t": now, "role": role}
        )

    def _handle_heartbeat(self, msg: dict) -> None:
        now = self.clock.now()
        for tr in self.detector.beat(str(msg["server"]), msg["nodes"], now):
            self._trace_lease(tr)

    # -- read path -------------------------------------------------------

    async def _handle_read(self, conn: Connection, msg: dict) -> None:
        stripe = int(msg["stripe"])
        start = self.clock.now()
        try:
            buf, chunk, degraded, racks = await self._read_stripe(stripe)
        except ReproError as exc:
            await write_frame(
                conn,
                {"type": MsgType.ERROR, "stripe": stripe, "error": str(exc)},
            )
            return
        # Cross-rack charge: one aggregated partial per intact rack
        # accessed (degraded), or the single chunk itself (direct).
        chunk_size = self.state.data.chunk_size
        delay = self.admission.client_delay(chunk_size * max(1, racks))
        await asyncio.sleep(self.clock.to_real(delay))
        end = start + delay
        ok = self.state.data.matches(
            stripe, chunk, np.frombuffer(buf, dtype=self._dtype)
        )
        self.reads_served += 1
        if degraded:
            self.degraded_reads += 1
        self.tracer.emit_span(
            "service.read",
            start,
            end,
            stripe=stripe,
            chunk=chunk,
            degraded=degraded,
            racks=racks,
            ok=ok,
        )
        await write_frame(
            conn,
            {
                "type": MsgType.READ_REPLY,
                "stripe": stripe,
                "chunk": chunk,
                "degraded": degraded,
                "racks": racks,
                "ok": ok,
                "latency_model_s": delay,
            },
            buf,
        )

    async def _read_stripe(self, stripe: int):
        """Return (buffer, chunk_index, degraded, intact_racks_accessed)."""
        layout = self.state.placement.stripe_layout(stripe)
        failed = self.state.failed_node
        if failed is not None and failed in layout.values():
            return await self._degraded_read(stripe)
        # Healthy stripe: serve its first chunk on a live node directly.
        dead = self.detector.dead_nodes()
        for chunk, node in sorted(layout.items()):
            if node not in dead:
                request = {"stripe": stripe, "chunk": chunk, "node": node}
                reply, blob = await self._request(
                    node, {"type": MsgType.READ_CHUNK, **request}
                )
                if reply["type"] != MsgType.CHUNK_DATA:
                    raise ServiceError(
                        f"read of stripe {stripe} chunk {chunk} failed: "
                        f"{reply.get('error', reply['type'])}"
                    )
                return blob, chunk, False, 1
        raise ServiceError(f"stripe {stripe}: no live node holds a chunk")

    async def _degraded_read(self, stripe: int):
        """Rebuild the lost chunk from one partial per rack, CAR-style.

        The solve is a one-row failure: Algorithm 2's initial pick over
        ``failure_columns(stripes=[stripe])``, with every node the
        detector buried — and, on a re-plan, every helper lost inside
        its lease — marked not alive.
        """
        dead = self.detector.dead_nodes() - {self.state.failed_node}
        solution = self._solve_read(stripe, dead)
        try:
            rebuilt = await self._decode_by_rack(solution)
        except _HelpersLost as lost:
            # A helper died inside its lease (the detector has not
            # buried it yet): plan once more around that request's nodes.
            self.tracer.event(
                "service.read.replan", stripe=stripe, nodes=sorted(lost.nodes)
            )
            solution = self._solve_read(stripe, dead | lost.nodes)
            rebuilt = await self._decode_by_rack(solution)
        racks = len(solution.intact_racks_accessed)
        return rebuilt, solution.lost_chunk, True, racks

    def _solve_read(self, stripe: int, dead) -> PerStripeSolution:
        """The read's helpers: CAR's initial pick over the stripe's row
        (Algorithm 2 has nothing to move in a single row)."""
        failure = self.state.failure_columns(dead_nodes=dead, stripes=[stripe])
        return CarStrategy(load_balance=False).solve_failure(
            self.state.topology, self.state.code.k, failure
        ).solutions[0]

    async def _decode_by_rack(self, solution) -> bytearray:
        """One ``partial-decode`` per rack of ``solution``, XORed together.

        Raises:
            _HelpersLost: a request was refused or its connection tore.
            ServiceError: the cross-rack bytes that arrived are not the
                one chunk per intact rack the solution planned.
        """
        plan = split_repair_vector(
            self.state.code, solution.lost_chunk, solution.helpers,
            solution.rack_map(),
        )
        partials = await asyncio.gather(
            *(self._partial(solution.stripe_id, g) for g in plan.groups),
            return_exceptions=True,
        )
        failures = [p for p in partials if isinstance(p, BaseException)]
        for failure in failures:
            if not isinstance(failure, _HelpersLost):
                raise failure
        if failures:
            raise _HelpersLost(
                "; ".join(map(str, failures)),
                frozenset().union(*(f.nodes for f in failures)),
            )
        cross = sum(
            len(blob) for rack, blob in partials if rack != solution.failed_rack
        )
        planned = (
            len(solution.intact_racks_accessed) * self.state.data.chunk_size
        )
        if cross != planned:
            raise ServiceError(
                f"stripe {solution.stripe_id}: {cross} cross-rack bytes "
                f"arrived, the solution planned {planned}"
            )
        self.wire_cross_rack_bytes += cross
        rebuilt = partials[0][1]
        acc = np.frombuffer(rebuilt, dtype=np.uint8)
        for _, blob in partials[1:]:
            np.bitwise_xor(acc, np.frombuffer(blob, dtype=np.uint8), out=acc)
        return rebuilt

    async def _partial(self, stripe: int, group) -> tuple[int, bytearray]:
        """``(rack, partial)`` as one rack's delegate answered it."""
        table = self.state.placement.node_table()
        nodes = table[stripe, list(group.helper_indices)].tolist()
        servers = [self.detector.server_of(n) for n in nodes]
        # The delegate's daemon hosts as much of the group as any does;
        # what it does not host, it pulls from its rack-mates.
        home = max(servers, key=servers.count)
        delegate = nodes[servers.index(home)]
        request = {
            "type": MsgType.PARTIAL_DECODE,
            "stripe": stripe,
            "w": self.state.code.w,
            "delegate": delegate,
            "helpers": list(
                zip(group.helper_indices, nodes, group.coefficients)
            ),
            "peers": {
                str(n): self._servers[s]
                for n, s in zip(nodes, servers)
                if s != home and s in self._servers
            },
        }
        try:
            reply, blob = await self._request(delegate, request)
        except ServiceError as exc:
            # The daemon is out of reach, and with it the nodes it hosts.
            gone = [n for n, s in zip(nodes, servers) if s == home]
            raise _HelpersLost(str(exc), gone) from exc
        if reply["type"] != MsgType.PARTIAL_DATA:
            # A refusal that names the node it could not read costs the
            # next plan that node, not the whole group.
            raise _HelpersLost(
                f"stripe {stripe}: {reply.get('error', reply['type'])}",
                reply.get("nodes") or nodes,
            )
        return reply["rack"], blob

    async def _request(self, node: int, msg: dict):
        """One request/reply with the daemon serving ``node``."""
        server = self.detector.server_of(node)
        address = self._servers.get(server) if server else None
        if address is None:
            raise ServiceError(f"no chunkserver is registered for node {node}")
        try:
            async with self._pool.lease(address) as conn:
                await write_frame(conn, msg)
                frame = await read_frame(conn)
                if frame is None:
                    raise ServiceError(
                        f"chunkserver {server!r} closed during the request"
                    )
        except OSError as exc:
            raise ServiceError(f"chunkserver {server!r}: {exc}") from exc
        return frame

    # -- status ----------------------------------------------------------

    def status(self) -> dict:
        """Status-reply payload: membership, admission, repair, reads."""
        return {
            "model_t": self.clock.now(),
            "failed_node": self.state.failed_node,
            "nodes": {
                str(n): h for n, h in self.detector.snapshot().items()
            },
            "admission": self.admission.snapshot(),
            "repair": self.repair.snapshot() if self.repair else None,
            "reads": self.reads_served,
            "degraded_reads": self.degraded_reads,
            "wire_cross_rack_bytes": self.wire_cross_rack_bytes,
        }
