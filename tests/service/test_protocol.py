"""Wire-protocol frames and the socket transport that carries them."""

from __future__ import annotations

import asyncio
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service.cluster import LocalCluster
from repro.service.protocol import (
    MAX_BLOB_BYTES,
    MAX_HEADER_BYTES,
    Connection,
    FrameReader,
    FrameServer,
    MsgType,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)


class TestRoundTrip:
    def test_header_only(self):
        msg = {"type": MsgType.HEARTBEAT, "server": "cs0", "nodes": [1, 2]}
        decoded, blob = decode_frame(encode_frame(msg))
        assert decoded == msg
        assert blob == b""

    def test_header_and_blob(self):
        payload = bytes(range(256)) * 17
        msg = {"type": MsgType.CHUNK_DATA, "stripe": 3, "chunk": 1}
        decoded, blob = decode_frame(encode_frame(msg, payload))
        assert decoded == msg
        assert blob == payload

    def test_unicode_header(self):
        msg = {"type": MsgType.ERROR, "error": "rack échoué"}
        decoded, _ = decode_frame(encode_frame(msg))
        assert decoded == msg

    def test_non_dict_header_refused(self):
        with pytest.raises(ProtocolError):
            encode_frame(["not", "a", "dict"])

    def test_missing_type_refused(self):
        with pytest.raises(ProtocolError):
            encode_frame({"no_type": 1})


class TestTornFrames:
    def test_every_truncation_point_is_torn(self):
        frame = encode_frame({"type": MsgType.STATUS}, b"xyz")
        for cut in range(len(frame)):
            with pytest.raises(ProtocolError):
                decode_frame(frame[:cut])

    def test_trailing_garbage_refused(self):
        frame = encode_frame({"type": MsgType.STATUS})
        with pytest.raises(ProtocolError, match="trailing"):
            decode_frame(frame + b"\x00")

    def test_header_not_json(self):
        raw = struct.pack("!II", 3, 0) + b"{{{"
        with pytest.raises(ProtocolError, match="JSON"):
            decode_frame(raw)

    def test_header_json_but_not_object(self):
        body = b"[1, 2]"
        raw = struct.pack("!II", len(body), 0) + body
        with pytest.raises(ProtocolError, match="object"):
            decode_frame(raw)


class TestSizeLimits:
    def test_oversized_declared_header(self):
        raw = struct.pack("!II", MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(ProtocolError, match="header length"):
            decode_frame(raw + b"\x00" * 8)

    def test_oversized_declared_blob(self):
        raw = struct.pack("!II", 2, MAX_BLOB_BYTES + 1) + b"{}"
        with pytest.raises(ProtocolError, match="blob length"):
            decode_frame(raw + b"\x00" * 8)

    def test_encode_refuses_oversized_header(self):
        msg = {"type": "x", "pad": "a" * (MAX_HEADER_BYTES + 1)}
        with pytest.raises(ProtocolError, match="header"):
            encode_frame(msg)

    def test_reader_raises_before_body_arrives(self):
        # The incremental reader must refuse a hostile length prefix
        # immediately, not buffer 64 MiB waiting for it.
        reader = FrameReader()
        with pytest.raises(ProtocolError):
            reader.feed(struct.pack("!II", MAX_HEADER_BYTES + 1, 0))


class TestFrameReader:
    def test_byte_at_a_time(self):
        msg = {"type": MsgType.READ, "stripe": 9}
        wire = encode_frame(msg, b"pay")
        reader = FrameReader()
        frames = []
        for i in range(len(wire)):
            frames.extend(reader.feed(wire[i : i + 1]))
        assert frames == [(msg, b"pay")]
        assert reader.at_boundary

    def test_two_frames_one_feed(self):
        a = encode_frame({"type": "a"})
        b = encode_frame({"type": "b"}, b"blob")
        reader = FrameReader()
        frames = reader.feed(a + b)
        assert [m["type"] for m, _ in frames] == ["a", "b"]

    def test_partial_tail_stays_buffered(self):
        wire = encode_frame({"type": "a"}) + b"\x00\x00"
        reader = FrameReader()
        frames = reader.feed(wire)
        assert len(frames) == 1
        assert not reader.at_boundary
        assert reader.buffered == 2


class TestAsyncStreams:
    def _reader_with(self, data: bytes, eof: bool = True):
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return reader

    def test_read_one_frame(self):
        msg = {"type": MsgType.STATUS}

        async def run():
            reader = self._reader_with(encode_frame(msg, b"zz"))
            return await read_frame(reader)

        got_msg, blob = asyncio.run(run())
        assert got_msg == msg
        assert blob == b"zz"

    def test_clean_eof_returns_none(self):
        async def run():
            return await read_frame(self._reader_with(b""))

        assert asyncio.run(run()) is None

    def test_eof_mid_prefix_is_torn(self):
        async def run():
            return await read_frame(self._reader_with(b"\x00\x00"))

        with pytest.raises(ProtocolError, match="torn"):
            asyncio.run(run())

    def test_eof_mid_body_is_torn(self):
        wire = encode_frame({"type": MsgType.STATUS}, b"abcdef")

        async def run():
            return await read_frame(self._reader_with(wire[:-2]))

        with pytest.raises(ProtocolError, match="torn"):
            asyncio.run(run())

    def test_write_then_read_over_socket(self):
        msg = {"type": MsgType.READ_CHUNK, "stripe": 0, "chunk": 2, "node": 5}

        async def run():
            received = []
            done = asyncio.Event()

            async def serve(reader, writer):
                received.append(await read_frame(reader))
                writer.close()
                done.set()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            addr = server.sockets[0].getsockname()[:2]
            _, writer = await asyncio.open_connection(*addr)
            await write_frame(writer, msg, b"net")
            await done.wait()
            writer.close()
            server.close()
            await server.wait_closed()
            return received[0]

        got_msg, blob = asyncio.run(run())
        assert got_msg == msg
        assert blob == b"net"


# -- the socket transport ---------------------------------------------------


async def accepted_pair():
    """``(raw client socket, accepted Connection, server)`` over loopback."""
    loop = asyncio.get_running_loop()
    accepted = loop.create_future()

    async def hold(conn):
        accepted.set_result(conn)
        await asyncio.Event().wait()  # until the server drops it

    server = FrameServer(hold)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.setblocking(False)
    await loop.sock_connect(client, server.start())
    return client, await accepted, server


async def receive(fragments, frames: int, *, then_eof: bool = True):
    """Send ``fragments`` one ``sendall`` each; ``read_frame`` ``frames``
    times on the accepting side, plus once more after the sender closed."""
    loop = asyncio.get_running_loop()
    client, conn, server = await accepted_pair()

    async def send():
        for fragment in fragments:
            await loop.sock_sendall(client, fragment)
            await asyncio.sleep(0)
        if then_eof:
            client.close()

    try:
        sender = asyncio.create_task(send())
        got = [await read_frame(conn) for _ in range(frames)]
        await sender
        if then_eof:
            got.append(await read_frame(conn))
        return got
    finally:
        client.close()
        server.close()
        await server.wait_closed()


def payload(size: int, w: int, seed: int) -> bytes:
    dtype = np.uint8 if w == 8 else np.uint16
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, np.iinfo(dtype).max + 1, size // dtype().itemsize, dtype=dtype
    ).tobytes()


frame_lists = st.lists(
    st.tuples(
        st.fixed_dictionaries(
            {"type": st.sampled_from([MsgType.CHUNK_DATA, MsgType.PARTIAL_DATA])},
            optional={"stripe": st.integers(0, 1 << 40), "note": st.text(max_size=40)},
        ),
        st.builds(
            payload,
            st.one_of(st.integers(0, 64), st.integers(0, 64 << 10)),
            st.sampled_from([8, 16]),
            st.integers(0, 1 << 16),
        ),
    ),
    min_size=1,
    max_size=3,
)


class TestFragmentation:
    @settings(max_examples=40, deadline=None)
    @given(frames=frame_lists, cuts=st.lists(st.integers(0, 1 << 20), max_size=8))
    def test_any_fragmentation_yields_decode_frames_frames(self, frames, cuts):
        wires = [encode_frame(msg, blob) for msg, blob in frames]
        expected = [decode_frame(wire) for wire in wires]
        wire = b"".join(wires)
        edges = sorted({0, len(wire), *(cut % (len(wire) + 1) for cut in cuts)})
        fragments = [wire[a:b] for a, b in zip(edges, edges[1:])]

        reader = FrameReader()
        fed = [frame for fragment in fragments for frame in reader.feed(fragment)]
        assert fed == expected and reader.at_boundary

        got = asyncio.run(receive(fragments, len(frames)))
        assert got == expected + [None]
        assert all(isinstance(blob, bytearray) for _, blob in got[:-1] if blob)


#: Where a connection can die inside a frame, as ``tests/durable``'s
#: ``CUTS`` does for a journal commit; only the last is not a torn frame.
CUTS = [
    "mid-prefix", "mid-header", "header-blob-boundary", "mid-blob",
    "after-frame",
]


def frame_cuts(wire: bytes, blob: bytes) -> dict[str, int]:
    header_end = len(wire) - len(blob)
    return {
        "mid-prefix": 4,
        "mid-header": 8 + (header_end - 8) // 2,
        "header-blob-boundary": header_end,
        "mid-blob": header_end + len(blob) // 2,
        "after-frame": len(wire),
    }


class TestTornConnections:
    BLOB = bytes(range(200))

    @pytest.mark.parametrize("cut", CUTS)
    def test_a_connection_cut_inside_a_frame_is_torn(self, cut):
        msg = {"type": MsgType.CHUNK_DATA, "stripe": 1, "chunk": 2}
        wire = encode_frame(msg, self.BLOB)
        tail = wire[: frame_cuts(wire, self.BLOB)[cut]]

        reader = FrameReader()
        assert len(reader.feed(wire + tail)) == 1 + (cut == "after-frame")
        assert reader.at_boundary == (cut == "after-frame")

        if cut == "after-frame":
            got = asyncio.run(receive([wire + tail], 2))
            assert got == [(msg, self.BLOB)] * 2 + [None]
        else:
            with pytest.raises(ProtocolError, match="torn"):
                asyncio.run(receive([wire + tail], 2))

    @pytest.mark.parametrize(
        "prefix",
        [(MAX_HEADER_BYTES + 1, 0), (2, MAX_BLOB_BYTES + 1)],
        ids=["header", "blob"],
    )
    def test_oversized_length_raises_before_the_body_is_read(self, prefix):
        async def run():
            # The sender never sends a body and never closes.
            return await asyncio.wait_for(
                receive([struct.pack("!II", *prefix)], 1, then_eof=False), 5
            )

        with pytest.raises(ProtocolError, match="exceeds"):
            asyncio.run(run())


class RecordingWriter:
    def __init__(self):
        self.written = []

    def write(self, data):
        self.written.append(data)

    async def drain(self):
        pass


class TestBlobViews:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_an_array_is_written_as_a_view_of_itself(self, dtype):
        array = np.arange(3000).astype(dtype)
        array.setflags(write=False)
        writer = RecordingWriter()
        asyncio.run(write_frame(writer, {"type": MsgType.CHUNK_DATA}, array))
        head, blob = writer.written
        assert blob.obj is array and blob.readonly
        assert blob.nbytes == array.nbytes == len(blob)
        assert decode_frame(bytes(head) + bytes(blob)) == (
            {"type": MsgType.CHUNK_DATA}, array.tobytes()
        )

    def test_a_strided_array_is_refused_not_copied(self):
        writer = RecordingWriter()
        with pytest.raises(ProtocolError, match="contiguous"):
            asyncio.run(
                write_frame(
                    writer, {"type": MsgType.CHUNK_DATA}, np.arange(64)[::2]
                )
            )
        assert writer.written == []

    def test_write_frame_applies_the_blob_limit(self):
        blob = np.zeros(MAX_BLOB_BYTES + 2, dtype=np.uint16)
        with pytest.raises(ProtocolError, match="blob"):
            asyncio.run(
                write_frame(RecordingWriter(), {"type": MsgType.CHUNK_DATA}, blob)
            )


class TestStreamInterop:
    def test_a_stream_client_reads_a_1m_chunk_from_a_chunkserver(self, tmp_path):
        """What the benchmark's ``fetch_chunk_ms`` probe does: asyncio's
        stream pair against a daemon that speaks through ``Connection``."""

        async def run():
            cluster = LocalCluster(
                workdir=tmp_path, config="CFS1", num_stripes=1,
                chunk_size=1 << 20,
            )
            await cluster.start()
            try:
                chunk, node = 2, cluster.state.placement.stripe_layout(0)[2]
                server = next(
                    cs for cs in cluster.chunkservers if node in cs.nodes
                )
                reader, writer = await asyncio.open_connection(*server.address)
                for _ in range(2):  # the connection outlives a request
                    await write_frame(
                        writer,
                        {"type": MsgType.READ_CHUNK, "stripe": 0,
                         "chunk": chunk, "node": node},
                    )
                    msg, blob = await read_frame(reader)
                    assert msg["type"] == MsgType.CHUNK_DATA
                    assert blob == cluster.state.data.chunk(0, chunk).tobytes()
                writer.close()
                await writer.wait_closed()
            finally:
                await cluster.stop()

        asyncio.run(run())


class TestNoDelay:
    def test_back_to_back_small_frames_are_not_held_back(self):
        """A hello/ack exchange, then 50 header-only frames with nothing
        coming back (a heartbeat connection): with Nagle on, one of them
        waits ~40 ms for its predecessor's delayed ACK."""

        async def run():
            arrivals = []
            done = asyncio.Event()

            async def sink(conn):
                await read_frame(conn)
                await write_frame(conn, {"type": MsgType.HELLO_ACK})
                while await read_frame(conn) is not None:
                    arrivals.append(time.perf_counter())
                done.set()

            server = FrameServer(sink)
            conn = await Connection.open(server.start())
            try:
                await write_frame(conn, {"type": MsgType.HELLO})
                await read_frame(conn)
                for i in range(50):
                    await write_frame(conn, {"type": MsgType.HEARTBEAT, "i": i})
                    await asyncio.sleep(0.0005)
                conn.close()
                await asyncio.wait_for(done.wait(), 5)
            finally:
                conn.close()
                server.close()
                await server.wait_closed()
            assert len(arrivals) == 50
            return max(b - a for a, b in zip(arrivals, arrivals[1:]))

        # A stall of the shared host can open a gap in one run; Nagle
        # opens one in every run.
        assert min(asyncio.run(run()) for _ in range(3)) < 0.005
