"""Length-prefixed wire protocol for the cluster service daemons.

One frame carries a JSON *header* (control fields) and an optional raw
binary *blob* (chunk payloads — never base64'd onto the JSON path):

.. code-block:: text

    +----------------+----------------+---------------+-----------+
    | header_len !I  | blob_len !I    | header (JSON) | blob      |
    +----------------+----------------+---------------+-----------+
      4 bytes          4 bytes          header_len      blob_len

Both length fields are unsigned big-endian 32-bit integers.  The
header must decode to a JSON *object* with a string ``type`` key (the
dispatch tag).  Size limits are enforced on both ends —
``MAX_HEADER_BYTES`` for the JSON part, ``MAX_BLOB_BYTES`` for the
payload — so a corrupt or hostile length prefix cannot balloon a read.

Three consumption styles share the same format:

- :func:`encode_frame` / :func:`decode_frame` — whole-buffer
  round-trip (tests, journalling of raw frames);
- :class:`FrameReader` — an incremental, sans-io parser: ``feed()``
  bytes as they arrive (any fragmentation), get complete frames out,
  and inspect :attr:`FrameReader.buffered` for a torn tail;
- :func:`read_frame` / :func:`write_frame` — what the daemons use, over
  anything with ``readexactly`` / ``write`` + ``drain`` (a
  :class:`Connection`, or asyncio's stream pair).  A connection closed
  *between* frames is a clean EOF (``None``); closed *inside* a frame
  raises :class:`~repro.errors.ProtocolError` (a torn frame is a
  failure, silence is not).

The transport is one class: a :class:`Connection` is a non-blocking TCP
socket whose ``readexactly`` receives straight into the buffer it
returns and whose ``write`` keeps the views it is given until ``drain``
sends them, so a chunk is copied once by the kernel on each side and
never by the daemons.  :class:`FrameServer` is its accept loop,
:class:`ConnectionPool` the idle list that makes daemon-to-daemon
connections persistent.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import struct

from repro.errors import ProtocolError

__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_BLOB_BYTES",
    "MsgType",
    "encode_frame",
    "decode_frame",
    "FrameReader",
    "read_frame",
    "write_frame",
    "Connection",
    "FrameServer",
    "ConnectionPool",
]

_PREFIX = struct.Struct("!II")

#: Ceiling for the JSON header of one frame (control data is small).
MAX_HEADER_BYTES = 1 << 20
#: Ceiling for the binary blob of one frame (a handful of chunks).
MAX_BLOB_BYTES = 64 << 20


class MsgType:
    """Frame ``type`` tags spoken by the daemons (plain constants)."""

    HELLO = "hello"                    # chunkserver/client -> coordinator
    HELLO_ACK = "hello-ack"            # coordinator -> peer
    HEARTBEAT = "heartbeat"            # chunkserver -> coordinator
    READ_CHUNK = "read-chunk"          # coordinator/peer -> chunkserver
    CHUNK_DATA = "chunk-data"          # chunkserver -> requester (blob)
    PARTIAL_DECODE = "partial-decode"  # coordinator -> chunkserver
    PARTIAL_DATA = "partial-data"      # chunkserver -> coordinator (blob)
    READ = "read"                      # client -> coordinator
    READ_REPLY = "read-reply"          # coordinator -> client (blob)
    STATUS = "status"                  # any -> coordinator
    STATUS_REPLY = "status-reply"      # coordinator -> any
    SHUTDOWN = "shutdown"              # admin -> daemon
    ERROR = "error"                    # any direction


def _encode_head(msg: dict, blob_len: int) -> bytes:
    """Length prefix + JSON header of a frame whose blob is ``blob_len`` B."""
    if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
        raise ProtocolError(
            "frame header must be a dict with a string 'type' key"
        )
    header = json.dumps(msg, sort_keys=True).encode("utf-8")
    if len(header) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header {len(header)} B exceeds {MAX_HEADER_BYTES} B"
        )
    if blob_len > MAX_BLOB_BYTES:
        raise ProtocolError(
            f"frame blob {blob_len} B exceeds {MAX_BLOB_BYTES} B"
        )
    return _PREFIX.pack(len(header), blob_len) + header


def encode_frame(msg: dict, blob: bytes = b"") -> bytes:
    """Serialise one frame.

    Raises:
        ProtocolError: non-dict message, missing ``type``, or a part
            over its size limit.
    """
    blob = bytes(blob)
    return _encode_head(msg, len(blob)) + blob


def _decode_header(header: bytes) -> dict:
    try:
        msg = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
        raise ProtocolError(
            "frame header must be a JSON object with a string 'type' key"
        )
    return msg


def _check_lengths(header_len: int, blob_len: int) -> None:
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"declared header length {header_len} B exceeds "
            f"{MAX_HEADER_BYTES} B"
        )
    if blob_len > MAX_BLOB_BYTES:
        raise ProtocolError(
            f"declared blob length {blob_len} B exceeds {MAX_BLOB_BYTES} B"
        )


def decode_frame(data: bytes) -> tuple[dict, bytes]:
    """Parse exactly one frame from ``data``.

    Raises:
        ProtocolError: truncated buffer, trailing garbage, oversized
            declared lengths, or an invalid header.
    """
    if len(data) < _PREFIX.size:
        raise ProtocolError(
            f"torn frame: {len(data)} B is shorter than the "
            f"{_PREFIX.size}-byte prefix"
        )
    header_len, blob_len = _PREFIX.unpack_from(data)
    _check_lengths(header_len, blob_len)
    total = _PREFIX.size + header_len + blob_len
    if len(data) < total:
        raise ProtocolError(
            f"torn frame: need {total} B, have {len(data)} B"
        )
    if len(data) > total:
        raise ProtocolError(
            f"trailing garbage: frame is {total} B, buffer has {len(data)} B"
        )
    header = data[_PREFIX.size:_PREFIX.size + header_len]
    blob = data[_PREFIX.size + header_len:total]
    return _decode_header(header), blob


class FrameReader:
    """Incremental (sans-io) frame parser.

    Feed arbitrarily fragmented byte chunks; complete frames come out
    in order.  Partial data stays buffered — :attr:`buffered` exposes
    how much, and :attr:`at_boundary` tells whether the stream could
    end cleanly right now (no torn frame in progress).

    Raises:
        ProtocolError: as soon as a declared length exceeds the limits
            (the reader does not wait for the oversized body to arrive).
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held that do not yet form a complete frame."""
        return len(self._buf)

    @property
    def at_boundary(self) -> bool:
        """True iff no partial frame is buffered."""
        return not self._buf

    def feed(self, data: bytes) -> list[tuple[dict, bytes]]:
        """Append bytes; return every frame completed by them."""
        self._buf.extend(data)
        frames: list[tuple[dict, bytes]] = []
        while True:
            if len(self._buf) < _PREFIX.size:
                break
            header_len, blob_len = _PREFIX.unpack_from(self._buf)
            _check_lengths(header_len, blob_len)
            total = _PREFIX.size + header_len + blob_len
            if len(self._buf) < total:
                break
            header = bytes(self._buf[_PREFIX.size:_PREFIX.size + header_len])
            blob = bytes(self._buf[_PREFIX.size + header_len:total])
            del self._buf[:total]
            frames.append((_decode_header(header), blob))
        return frames


async def read_frame(reader) -> tuple[dict, bytes] | None:
    """Read one frame: prefix, header and blob, one ``readexactly`` each.

    The blob is the buffer ``readexactly`` returned, not a copy of it
    (a ``bytearray`` from a :class:`Connection`, ``bytes`` from an
    asyncio ``StreamReader``).

    Returns:
        ``(msg, blob)``, or ``None`` on a clean EOF (the peer closed
        the connection exactly between frames).

    Raises:
        ProtocolError: torn frame (EOF mid-frame) or any structural
            violation; an oversized declared length raises before the
            body is read.
    """
    what, size = "prefix", _PREFIX.size
    try:
        header_len, blob_len = _PREFIX.unpack(await reader.readexactly(size))
        _check_lengths(header_len, blob_len)
        what, size = "header", header_len
        header = await reader.readexactly(size)
        what, size = "blob", blob_len
        blob = await reader.readexactly(size) if size else b""
    except asyncio.IncompleteReadError as exc:
        if what == "prefix" and not exc.partial:
            return None
        raise ProtocolError(
            f"torn frame: connection closed after {len(exc.partial)} B "
            f"of the {size}-byte {what}"
        ) from exc
    return _decode_header(header), blob


async def write_frame(writer, msg: dict, blob=b"") -> None:
    """Send one frame: prefix + header, then the blob *as given*.

    ``blob`` is any C-contiguous buffer (``bytes``, a read-only or
    ``uint16`` array, ...); it is written as a byte view of itself.

    Raises:
        ProtocolError: an invalid header, a part over its size limit,
            or a blob that would have to be copied to be sent.
    """
    try:
        view = memoryview(blob).cast("B")
    except TypeError as exc:
        raise ProtocolError(f"frame blob is not contiguous: {exc}") from exc
    writer.write(_encode_head(msg, len(view)))
    if len(view):
        writer.write(view)
    await writer.drain()


class Connection:
    """One TCP peer as a non-blocking socket on the running event loop.

    Has the three methods the frame helpers use.  ``TCP_NODELAY`` is
    set: frames are written whole, and a heartbeat held back by Nagle
    behind a delayed ACK (~40 ms) outlives a lease at high ``speedup``.
    One request at a time — neither reads nor writes are serialised
    between tasks.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._loop = asyncio.get_running_loop()
        self._unsent: list = []

    @classmethod
    async def open(cls, address) -> "Connection":
        """Dial ``(host, port)``."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            await asyncio.get_running_loop().sock_connect(sock, tuple(address))
        except BaseException:
            sock.close()
            raise
        return cls(sock)

    async def readexactly(self, size: int) -> bytearray:
        """Receive exactly ``size`` bytes into a fresh buffer.

        Raises:
            asyncio.IncompleteReadError: the peer closed first.
        """
        buf = bytearray(size)
        view = memoryview(buf)
        got = 0
        while got < size:
            count = await self._loop.sock_recv_into(self._sock, view[got:])
            if not count:
                raise asyncio.IncompleteReadError(bytes(view[:got]), size)
            got += count
        return buf

    def write(self, data) -> None:
        """Queue a byte buffer; it is kept, not copied, until ``drain``."""
        self._unsent.append(data)

    async def drain(self) -> None:
        """Send everything queued."""
        unsent, self._unsent = self._unsent, []
        for data in unsent:
            await self._loop.sock_sendall(self._sock, data)

    def close(self) -> None:
        self._sock.close()


class FrameServer:
    """Accept loop: ``handler(connection)`` runs as a task per peer.

    The connection is closed when its handler returns or raises
    ``OSError`` (a reset peer).
    """

    def __init__(self, handler) -> None:
        self._handler = handler
        self._sock: socket.socket | None = None
        self._tasks: set[asyncio.Task] = set()
        self.address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        """Listen on a free loopback port; returns the bound address."""
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.setblocking(False)
        self.address = self._sock.getsockname()[:2]
        asyncio.get_running_loop().add_reader(self._sock, self._accept)
        return self.address

    def _accept(self) -> None:
        try:
            sock, _ = self._sock.accept()
        except (BlockingIOError, InterruptedError, ConnectionAbortedError):
            return
        task = asyncio.create_task(self._serve(Connection(sock)))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve(self, conn: Connection) -> None:
        try:
            await self._handler(conn)
        except OSError:
            pass
        finally:
            conn.close()

    def close(self) -> None:
        """Stop listening now and drop every open connection."""
        if self._sock is not None:
            asyncio.get_running_loop().remove_reader(self._sock)
            self._sock.close()
            self._sock = None
        for task in self._tasks:
            task.cancel()

    async def wait_closed(self) -> None:
        """Wait until every dropped connection's socket is closed."""
        await asyncio.gather(*self._tasks, return_exceptions=True)


class ConnectionPool:
    """Persistent outgoing connections: an idle list per address.

    ``async with pool.lease(address) as conn`` takes an idle connection
    (dialling when there is none), and puts it back when the block
    ends normally.  A block that raises closes the connection it held
    and every idle one to the same address — a peer that failed once is
    dialled afresh, never trusted from the pool.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple[str, int], list[Connection]] = {}

    @contextlib.asynccontextmanager
    async def lease(self, address):
        address = tuple(address)
        idle = self._idle.get(address)
        conn = idle.pop() if idle else await Connection.open(address)
        try:
            yield conn
        except BaseException:
            conn.close()
            self.forget(address)
            raise
        self._idle.setdefault(address, []).append(conn)

    def idle(self, address) -> int:
        """How many idle connections are held to ``address``."""
        return len(self._idle.get(tuple(address), ()))

    def forget(self, address) -> None:
        """Close the idle connections to ``address``."""
        for conn in self._idle.pop(tuple(address), ()):
            conn.close()

    def close(self) -> None:
        """Close every idle connection."""
        for address in list(self._idle):
            self.forget(address)
