"""The chunkserver daemon: chunk reads, partial decodes, heartbeats.

One :class:`Chunkserver` hosts a *set* of modelled nodes (like a host
with several disks).  It runs two things on the shared event loop:

- a frame server answering ``read-chunk`` with ``chunk-data`` (the
  stored chunk itself as the frame blob — a view, never a copy) and
  ``partial-decode`` with ``partial-data``: the linear combination of
  one rack's helper chunks (Equation 7), computed where the chunks are.
  Helpers on nodes this daemon hosts are read from the store; the
  others are pulled from their daemons with ``read-chunk`` over
  persistent connections, and only from the delegate's own rack;
- a heartbeat task that registers with the coordinator (``hello``) and
  then sends a ``heartbeat`` frame every ``heartbeat_interval``
  *modelled* seconds, listing the nodes it still considers live.

Failure injection is subtractive: :meth:`Chunkserver.kill_node` drops
one node from both serving and heartbeats (a dead disk on a live host),
:meth:`Chunkserver.kill` silences the whole daemon abruptly (process
death) — either way the coordinator's failure detector notices by
timeout, never by notification, exactly like a real cluster.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.cluster.placement import Placement
from repro.cluster.state import DataStore
from repro.cluster.topology import ClusterTopology
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.gf.field import gf
from repro.gf.vector import buffer_dtype, dot_rows
from repro.service.admission import ServiceClock
from repro.service.protocol import (
    Connection,
    ConnectionPool,
    FrameServer,
    MsgType,
    read_frame,
    write_frame,
)

__all__ = ["Chunkserver"]


class _NodeGone(ServiceError):
    """A chunk is out of reach with its node; the ``error`` frame names
    the node, so the coordinator can plan around it alone."""

    def __init__(self, node: int, why: str) -> None:
        super().__init__(f"node {node} {why}")
        self.node = node


class Chunkserver:
    """One chunkserver daemon hosting ``node_ids``.

    Args:
        server_id: stable name (goes into heartbeats and traces).
        node_ids: modelled node ids this daemon serves.
        data: the shared chunk store (in-process stand-in for disks).
        placement: the cluster's chunk placement, used to refuse reads
            for chunks a node does not actually hold.
        topology: the cluster's racks, used to refuse a partial decode
            that would pull a chunk across racks.
        clock: the service's modelled clock.
        heartbeat_interval: modelled seconds between heartbeats.
    """

    def __init__(
        self,
        server_id: str,
        node_ids,
        data: DataStore,
        placement: Placement,
        topology: ClusterTopology,
        clock: ServiceClock,
        *,
        heartbeat_interval: float = 0.25,
    ) -> None:
        self.server_id = server_id
        self.nodes = frozenset(int(n) for n in node_ids)
        if not self.nodes:
            raise ServiceError(f"chunkserver {server_id!r} hosts no nodes")
        self.data = data
        self.placement = placement
        self.topology = topology
        self.clock = clock
        self.heartbeat_interval = float(heartbeat_interval)
        self._live: set[int] = set(self.nodes)
        self._server: FrameServer | None = None
        self._hb_task: asyncio.Task | None = None
        self._coordinator: Connection | None = None
        self._peers = ConnectionPool()
        self.address: tuple[str, int] | None = None
        self.reads_served = 0
        #: Chunks pulled from other daemons for partial decodes (0 while
        #: every rack lives on one daemon).
        self.chunks_pulled = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self, coordinator_addr: tuple[str, int]) -> None:
        """Open the data server, register, and start heartbeating."""
        self._server = FrameServer(self._serve_connection)
        self.address = host, port = self._server.start()
        conn = self._coordinator = await Connection.open(coordinator_addr)
        await write_frame(
            conn,
            {
                "type": MsgType.HELLO,
                "role": "chunkserver",
                "server": self.server_id,
                "nodes": sorted(self._live),
                "host": host,
                "port": port,
            },
        )
        ack = await read_frame(conn)
        if ack is None or ack[0].get("type") != MsgType.HELLO_ACK:
            raise ServiceError(
                f"chunkserver {self.server_id!r}: registration not acked"
            )
        self._hb_task = asyncio.create_task(self._heartbeat_loop())

    async def stop(self) -> None:
        """Graceful shutdown: stop heartbeats and close every socket."""
        self.kill()
        if self._hb_task is not None:
            try:
                await self._hb_task
            except asyncio.CancelledError:
                pass
            self._hb_task = None
        if self._server is not None:
            await self._server.wait_closed()

    def kill(self) -> None:
        """Abrupt daemon death: heartbeats stop, every connection drops.

        Nothing is sent to the coordinator — its failure detector must
        discover the loss by lease timeout.
        """
        self._live.clear()
        if self._hb_task is not None:
            self._hb_task.cancel()
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None
        self._peers.close()
        if self._server is not None:
            self._server.close()

    def kill_node(self, node_id: int) -> None:
        """Drop one node: it leaves heartbeats and stops serving reads."""
        if node_id not in self.nodes:
            raise ServiceError(
                f"chunkserver {self.server_id!r} does not host node {node_id}"
            )
        self._live.discard(int(node_id))

    @property
    def live_nodes(self) -> frozenset[int]:
        """Nodes this daemon still serves and heartbeats."""
        return frozenset(self._live)

    # -- heartbeats ------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        conn = self._coordinator
        try:
            while conn is not None:
                await asyncio.sleep(
                    self.clock.to_real(self.heartbeat_interval)
                )
                await write_frame(
                    conn,
                    {
                        "type": MsgType.HEARTBEAT,
                        "server": self.server_id,
                        "nodes": sorted(self._live),
                        "t": self.clock.now(),
                    },
                )
        except (OSError, asyncio.CancelledError):
            return

    # -- data plane ------------------------------------------------------

    async def _serve_connection(self, conn: Connection) -> None:
        handlers = {
            MsgType.READ_CHUNK: self._read_chunk,
            MsgType.PARTIAL_DECODE: self._partial_decode,
        }
        while True:
            try:
                frame = await read_frame(conn)
            except ProtocolError:
                return
            if frame is None or frame[0]["type"] == MsgType.SHUTDOWN:
                return
            msg = frame[0]
            try:
                handler = handlers.get(msg["type"])
                if handler is None:
                    raise ServiceError(f"unexpected frame {msg['type']!r}")
                reply, blob = await handler(msg)
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                # A refusal answers the request; the connection lives on.
                reply, blob = {
                    "type": MsgType.ERROR,
                    "stripe": msg.get("stripe"),
                    "error": (
                        str(exc) if isinstance(exc, ReproError)
                        else f"malformed request: {exc!r}"
                    ),
                }, b""
                if isinstance(exc, _NodeGone):
                    reply["nodes"] = [exc.node]
            await write_frame(conn, reply, blob)

    def _stored(self, stripe: int, chunk: int, node: int) -> np.ndarray:
        """The chunk ``node`` holds, refused unless it is served here live."""
        if node not in self._live:
            raise _NodeGone(node, "is not served here")
        if self.placement.node_of(stripe, chunk) != node:
            raise ServiceError(
                f"stripe {stripe} chunk {chunk} is not on node {node}"
            )
        return self.data.chunk(stripe, chunk)

    async def _read_chunk(self, msg: dict):
        where = {key: int(msg[key]) for key in ("stripe", "chunk", "node")}
        blob = self._stored(**where)
        self.reads_served += 1
        return {"type": MsgType.CHUNK_DATA, **where}, blob

    async def _partial_decode(self, msg: dict):
        """One rack's partially decoded chunk, computed at its delegate."""
        stripe, delegate = int(msg["stripe"]), int(msg["delegate"])
        field = gf(int(msg["w"]))
        if delegate not in self._live:
            raise _NodeGone(delegate, "is not served here")
        rack = self.topology.rack_of(delegate)
        helpers = [tuple(int(x) for x in helper) for helper in msg["helpers"]]
        for chunk, node, coeff in helpers:
            if not 0 <= coeff < field.order:
                raise ServiceError(f"coefficient {coeff} is outside GF(2^{field.w})")
            if self.topology.rack_of(node) != rack:
                raise ServiceError(
                    f"helper node {node} is outside rack {rack} of "
                    f"delegate {delegate}"
                )
        # Everything hosted here is checked before anything is pulled.
        mine = [h for h in helpers if h[1] in self.nodes]
        theirs = [h for h in helpers if h[1] not in self.nodes]
        bufs = [self._stored(stripe, chunk, node) for chunk, node, _ in mine]
        if theirs:
            peers = msg.get("peers", {})
            bufs += await asyncio.gather(
                *(
                    self._pull(stripe, chunk, node, peers.get(str(node)), field)
                    for chunk, node, _ in theirs
                )
            )
        partial = dot_rows(field, [h[2] for h in mine + theirs], bufs)
        reply = {"stripe": stripe, "delegate": delegate, "rack": rack}
        return {"type": MsgType.PARTIAL_DATA, **reply}, partial

    async def _pull(self, stripe, chunk, node, address, field) -> np.ndarray:
        """``read-chunk`` from the daemon that hosts rack-mate ``node``."""
        if address is None:
            raise ServiceError(f"no address given for helper node {node}")
        request = {"stripe": stripe, "chunk": chunk, "node": node}
        try:
            async with self._peers.lease(address) as conn:
                await write_frame(conn, {"type": MsgType.READ_CHUNK, **request})
                frame = await read_frame(conn)
                if frame is None:
                    raise _NodeGone(node, "hung up on the pull")
        except OSError as exc:
            raise _NodeGone(node, f"could not be pulled from: {exc}") from exc
        reply, blob = frame
        if reply["type"] != MsgType.CHUNK_DATA:
            raise _NodeGone(node, f"refused the pull: {reply.get('error')}")
        self.chunks_pulled += 1
        return np.frombuffer(blob, dtype=buffer_dtype(field))
