"""End-to-end service: detection, degraded reads under live repair."""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError, NoValidSolutionError, ServiceError
from repro.obs.tracer import validate_events
from repro.recovery.baselines import CarStrategy
from repro.service.bench import render_service_table, run_bench_service
from repro.service.cluster import LocalCluster
from repro.service.protocol import Connection, MsgType, read_frame, write_frame


def make_cluster(tmp_path, **kwargs):
    defaults = dict(
        workdir=tmp_path,
        num_stripes=8,
        chunk_size=1024,
        speedup=400.0,
    )
    defaults.update(kwargs)
    return LocalCluster(**defaults)


async def wait_for_repair_start(cluster, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while cluster.coordinator.repair is None:
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("failure was never detected")
        await asyncio.sleep(0.005)


class TestConstruction:
    def test_a_strategy_the_service_cannot_execute_is_refused(self, tmp_path):
        """``rack-msr`` models traffic only; it used to force a
        rack-aligned placement and fail in the repair's error slot."""
        with pytest.raises(ConfigurationError, match="car, rr, direct") as exc:
            make_cluster(tmp_path / "msr", strategy="rack-msr")
        assert "rack-msr" in str(exc.value)
        assert not (tmp_path / "msr").exists()


class TestHealthyReads:
    def test_read_without_failure_is_direct(self, tmp_path):
        async def drill():
            cluster = make_cluster(tmp_path)
            await cluster.start()
            try:
                client = await cluster.client()
                reply = await client.read(0)
                assert reply["ok"]
                assert not reply["degraded"]
                assert reply["data"] == cluster.state.data.chunk(
                    0, reply["chunk"]
                ).tobytes()
                await client.close()
            finally:
                await cluster.stop()

        asyncio.run(drill())

    def test_a_read_of_an_unplaced_stripe_is_an_error_reply(self, tmp_path):
        """An unknown stripe id is refused with an ERROR frame; the
        connection stays up and serves the next read."""
        async def drill():
            cluster = make_cluster(tmp_path)
            await cluster.start()
            try:
                client = await cluster.client()
                for stripe in (10**6, -1):
                    with pytest.raises(
                        ServiceError, match=f"no placement for stripe {stripe}"
                    ):
                        await client.read(stripe)
                reply = await client.read(3)
                assert reply["ok"]
                assert reply["data"] == cluster.state.data.chunk(
                    3, reply["chunk"]
                ).tobytes()
                await client.close()
            finally:
                await cluster.stop()

        asyncio.run(drill())


class TestMalformedFrames:
    #: Frames a well-behaved peer never sends: a read without an int
    #: stripe, a chunkserver hello or a heartbeat missing a field or
    #: carrying one of the wrong kind.
    MALFORMED = [
        {"type": MsgType.READ},
        {"type": MsgType.READ, "stripe": "x"},
        {"type": MsgType.READ, "stripe": True},
        {"type": MsgType.READ, "stripe": 1.0},
        {"type": MsgType.HELLO, "role": "chunkserver"},
        {"type": MsgType.HELLO, "role": "chunkserver", "server": "cs9",
         "host": "127.0.0.1", "port": "9", "nodes": [0]},
        {"type": MsgType.HELLO, "role": "chunkserver", "server": "cs9",
         "host": "127.0.0.1", "port": 9, "nodes": [0, "1"]},
        {"type": MsgType.HEARTBEAT},
        {"type": MsgType.HEARTBEAT, "server": "cs0"},
        {"type": MsgType.HEARTBEAT, "server": "cs0", "nodes": [False]},
    ]

    def test_each_is_an_error_reply_on_a_live_connection(self, tmp_path):
        """The coordinator refuses each malformed frame with an ERROR
        frame, changes no membership, and serves the next read on the
        same connection."""
        async def drill():
            cluster = make_cluster(tmp_path)
            await cluster.start()
            conn = await Connection.open(cluster.coordinator.address)
            try:
                before = cluster.coordinator.status()["nodes"]
                for msg in self.MALFORMED:
                    await write_frame(conn, msg)
                    refusal, _ = await read_frame(conn)
                    assert refusal["type"] == MsgType.ERROR, msg
                    assert "malformed" in refusal["error"], msg
                    await write_frame(conn, {"type": MsgType.READ, "stripe": 3})
                    reply, blob = await read_frame(conn)
                    assert reply["type"] == MsgType.READ_REPLY, msg
                    assert reply["ok"], msg
                    assert blob == cluster.state.data.chunk(
                        3, reply["chunk"]
                    ).tobytes()
                assert cluster.coordinator.status()["nodes"] == before
                assert set(cluster.coordinator._servers) == {
                    cs.server_id for cs in cluster.chunkservers
                }
            finally:
                conn.close()
                await cluster.stop()

        asyncio.run(drill())


class TestFailureToRepair:
    def test_kill_detect_repair_verify(self, tmp_path):
        """The whole arc: silence -> DEAD -> background repair -> verified."""

        async def drill():
            cluster = make_cluster(tmp_path)
            await cluster.start()
            try:
                victim = cluster.pick_victim()
                cluster.kill_node(victim)
                # The victim's live daemon leaves it out of its next
                # heartbeat, and that beat reports it dead.
                await wait_for_repair_start(cluster)
                assert cluster.state.failed_node == victim
                await cluster.wait_repair(timeout=60)
                repair = cluster.coordinator.repair
                assert repair.error is None and repair.crash is None
                assert repair.result.verified
                done = len(repair.result.executed) + len(
                    repair.result.replayed
                )
                assert done == len(list(cluster.state.affected_stripes()))
                events = cluster.all_events()
                validate_events(events)
                names = {
                    e["name"] for e in events if e.get("type") == "event"
                }
                assert "service.failure.primary" in names
                assert "service.repair.done" in names
            finally:
                await cluster.stop()

        asyncio.run(drill())

    def test_degraded_reads_under_live_repair(self, tmp_path):
        async def drill():
            cluster = make_cluster(
                tmp_path, repair_cap=1024, speedup=50.0
            )
            await cluster.start()
            try:
                victim = cluster.pick_victim()
                cluster.kill_node(victim)
                await wait_for_repair_start(cluster)
                stripes = list(cluster.state.affected_stripes())
                assert stripes
                client = await cluster.client()
                for stripe in stripes:
                    reply = await client.read(stripe)
                    assert reply["ok"], f"stripe {stripe} mismatched"
                    assert reply["degraded"]
                    assert reply["racks"] >= 1
                    assert reply["data"] == cluster.state.data.chunk(
                        stripe, reply["chunk"]
                    ).tobytes()
                status = await client.status()
                assert status["degraded_reads"] >= len(stripes)
                assert status["repair"]["status"] in (
                    "running",
                    "finished",
                )
                await client.close()
                await cluster.wait_repair(timeout=120)
                assert cluster.coordinator.repair.result.verified
                trace = cluster.write_trace()
                assert trace.exists()
            finally:
                await cluster.stop()

        asyncio.run(drill())


class TestDetectionPaths:
    """A node its live daemon stops listing dies at that beat; a silent
    daemon's node dies when its lease runs out.  Either way the death is
    one primary failure and starts the repair."""

    #: speedup 5: ``dead_after`` (2.5 modelled s) is half a wall second
    #: and a heartbeat 50 ms, so a stall of the shared host cannot pass
    #: for either.
    SPEEDUP = 5.0
    DEAD_AFTER = 2.5
    HEARTBEAT = 0.25

    @pytest.mark.parametrize("path", ["report", "lease"])
    def test_a_primary_death_is_one_failure_whichever_path_found_it(
        self, tmp_path, path
    ):
        async def drill():
            cluster = make_cluster(
                tmp_path, speedup=self.SPEEDUP, dead_after=self.DEAD_AFTER,
                heartbeat_interval=self.HEARTBEAT,
            )
            await cluster.start(cluster.state.topology.num_nodes)
            try:
                victim = cluster.pick_victim()
                killed_at = cluster.clock.now()
                if path == "report":
                    cluster.kill_node(victim)
                else:
                    (daemon,) = [
                        cs for cs in cluster.chunkservers if victim in cs.nodes
                    ]
                    cluster.kill_chunkserver(daemon.server_id)
                await wait_for_repair_start(cluster)
                await cluster.wait_repair(timeout=60)
                assert cluster.coordinator.repair.result.verified
                events = cluster.all_events()
                primary = [
                    e["attrs"]["node"] for e in events
                    if e["name"] == "service.failure.primary"
                ]
                assert primary == [victim]
                assert not any(
                    e["name"] == "service.failure.secondary" for e in events
                )
                (death,) = [
                    e["attrs"] for e in events
                    if e["name"] == "service.lease"
                    and e["attrs"]["new"] == "dead"
                ]
                assert death["node"] == victim
                silence = death["model_t"] - killed_at
                if path == "report":
                    assert death["old"] in ("alive", "suspect")
                    assert silence < self.DEAD_AFTER
                else:
                    assert death["old"] == "suspect"
                    assert silence >= self.DEAD_AFTER - self.HEARTBEAT - 0.05
            finally:
                await cluster.stop()

        asyncio.run(drill())

    def test_kill_node_starts_the_repair_inside_dead_after(self, tmp_path):
        async def drill():
            cluster = make_cluster(
                tmp_path, speedup=self.SPEEDUP, dead_after=self.DEAD_AFTER,
                heartbeat_interval=self.HEARTBEAT,
            )
            await cluster.start()
            try:
                victim = cluster.pick_victim()
                killed_at = cluster.clock.now()
                cluster.kill_node(victim)
                await wait_for_repair_start(cluster)
                repair = cluster.coordinator.repair
                assert cluster.state.failed_node == victim
                assert repair.started_model - killed_at < self.DEAD_AFTER
                await cluster.wait_repair(timeout=60)
                assert repair.result.verified
            finally:
                await cluster.stop()

        asyncio.run(drill())


class TestLocalPause:
    """The detector loop's own pause is not the nodes' silence."""

    #: Wall seconds the event loop is blocked: 15 modelled seconds at
    #: speedup 50, six times ``dead_after``.
    STALL = 0.3

    def test_a_stalled_event_loop_kills_nobody(self, tmp_path):
        async def drill():
            cluster = make_cluster(tmp_path, speedup=50.0)
            await cluster.start()
            try:
                await asyncio.sleep(0.02)
                time.sleep(self.STALL)
                # Several polls and heartbeats after the stall.
                await asyncio.sleep(0.15)
                coordinator = cluster.coordinator
                assert coordinator.detector.dead_nodes() == frozenset()
                assert cluster.state.failed_node is None
                assert coordinator.repair is None
                client = await cluster.client()
                for stripe in range(8):
                    reply = await client.read(stripe)
                    assert reply["ok"] and not reply["degraded"]
                await client.close()
                assert any(
                    e["name"] == "service.detector.pause"
                    for e in cluster.all_events()
                )
            finally:
                await cluster.stop()

        asyncio.run(drill())

    def test_a_node_killed_before_the_stall_still_dies_alone(self, tmp_path):
        async def drill():
            # One daemon per node, so killing the victim's daemon silences
            # the victim alone; nothing reports it, its lease has to run out.
            cluster = make_cluster(tmp_path, speedup=50.0)
            await cluster.start(cluster.state.topology.num_nodes)
            try:
                await asyncio.sleep(0.02)
                victim = cluster.pick_victim()
                (daemon,) = [
                    cs for cs in cluster.chunkservers if victim in cs.nodes
                ]
                assert daemon.nodes == {victim}
                cluster.kill_chunkserver(daemon.server_id)
                time.sleep(self.STALL)
                stall_end = cluster.clock.now()
                await wait_for_repair_start(cluster)
                assert cluster.state.failed_node == victim
                assert cluster.coordinator.detector.dead_nodes() == {victim}
                # The victim's lease ran out on observed silence: the
                # stall bought it no head start.  (Its last beat was at
                # most one heartbeat before the kill, and the excused
                # gap is one poll interval short of the stall.)
                (died_at,) = [
                    e["attrs"]["model_t"]
                    for e in cluster.all_events()
                    if e["name"] == "service.lease"
                    and e["attrs"]["new"] == "dead"
                ]
                assert died_at - stall_end >= 2.5 - 0.25 - 0.2 - 0.05
                await cluster.wait_repair(timeout=60)
                assert cluster.coordinator.repair.result.verified
            finally:
                await cluster.stop()

        asyncio.run(drill())


class TestRepairCap:
    def test_tighter_cap_lowers_recovery_throughput(self, tmp_path):
        """What the admission controller exists to provide: with client
        reads racing the repair on the shared modelled link, a 16 KiB/s
        repair cap recovers slower (in modelled time) than no cap."""
        tight, uncapped = run_bench_service(
            (16 * 1024, None), workdir=tmp_path, num_stripes=8
        )
        for row in (tight, uncapped):
            assert row["verified"] and row["stripes"] > 0
            assert row["contended_reads"] > 0, "no read raced the repair"
        assert (
            tight["recovery_throughput_bytes_per_s"]
            < uncapped["recovery_throughput_bytes_per_s"]
        )


    def test_sweep_table_has_one_row_per_cap(self):
        rows = [
            {
                "repair_cap_bytes_per_s": cap,
                "recovery_throughput_bytes_per_s": 1234.4,
                "recovery_model_s": 1.23456,
                "client_p50_model_s": 0.000123,
                "client_p99_model_s": 0.0456789,
                "reads": 7,
            }
            for cap in (16 * 1024, 2 << 20, None)
        ]
        header, rule, *body = render_service_table(rows).splitlines()
        assert header.split("  ") == [
            "repair cap", "recovery B/s", "recovery s", "client p50 s",
            "client p99 s", "reads",
        ]
        assert set(rule) == {"-", " "}
        assert [line.split()[:2] for line in body] == [
            ["16", "KiB/s"], ["2", "MiB/s"], ["uncapped", "1234"]
        ]
        for line in body:
            assert line.split()[-5:] == [
                "1234", "1.235", "0.00012", "0.04568", "7"
            ]


class TestSecondaryFailure:
    def test_secondary_node_death_replans(self, tmp_path):
        """A helper dying mid-repair cancels, re-plans, and still verifies."""

        async def drill():
            cluster = make_cluster(
                tmp_path, repair_cap=1024, speedup=50.0
            )
            await cluster.start()
            try:
                victim = cluster.pick_victim()
                cluster.kill_node(victim)
                await wait_for_repair_start(cluster)
                topo = cluster.state.topology
                # A helper of the last stripe to ship (so still pending),
                # outside the victim's rack: a node the repair is going
                # to read, not just any node.
                last = CarStrategy().solve(cluster.state).solutions[-1]
                layout = cluster.state.placement.stripe_layout(
                    last.stripe_id
                )
                second = next(
                    layout[c]
                    for c in last.helpers
                    if topo.rack_of(layout[c]) != topo.rack_of(victim)
                )
                cluster.kill_node(second)
                await cluster.wait_repair(timeout=120)
                repair = cluster.coordinator.repair
                assert repair.result is not None, (
                    repair.error,
                    repair.crash,
                )
                assert repair.result.verified
                assert repair.replans >= 1
                assert second in repair.dead_nodes
                events = cluster.all_events()
                validate_events(events)
                assert any(
                    e.get("type") == "event"
                    and e["name"] == "service.repair.replan"
                    for e in events
                )
            finally:
                await cluster.stop()

        asyncio.run(drill())

    def test_losing_a_whole_chunkserver_is_data_loss(self, tmp_path):
        """Killing a whole daemon drops too many chunks: a terminal error."""

        async def drill():
            cluster = make_cluster(
                tmp_path, repair_cap=1024, speedup=50.0
            )
            await cluster.start()
            try:
                victim = cluster.pick_victim()
                cluster.kill_node(victim)
                await wait_for_repair_start(cluster)
                other = next(
                    cs
                    for cs in cluster.chunkservers
                    if victim not in cs.nodes
                )
                cluster.kill_chunkserver(other.server_id)
                await cluster.wait_repair(timeout=120)
                repair = cluster.coordinator.repair
                assert repair.result is None
                assert isinstance(
                    repair.error, NoValidSolutionError
                ) or repair.error is not None
            finally:
                await cluster.stop()

        asyncio.run(drill())


class TestAllocatorPolicy:
    PROBE = """
import asyncio, ctypes, sys
from repro.service.cluster import LocalCluster
from repro.service.protocol import Connection, MsgType, read_frame, write_frame

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    print("no-glibc")
    sys.exit(0)

class Mallinfo(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc.mallinfo2.restype = Mallinfo
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]

async def main():
    cluster = LocalCluster(workdir=sys.argv[1], num_stripes=4, chunk_size=1024)
    await cluster.start()
    try:
        mapped = libc.mallinfo2().hblks
        block = libc.malloc(24 << 20)
        print("mmapped" if libc.mallinfo2().hblks > mapped else "heap")
        libc.free(block)
        print(f"top {libc.mallinfo2().keepcost >> 20}")
    finally:
        await cluster.stop()

asyncio.run(main())
"""

    def test_start_pins_the_malloc_thresholds(self, tmp_path):
        """In a fresh process (no large block freed yet, so glibc's dynamic
        thresholds are at their 128 KiB defaults) a 24 MiB block comes
        from the heap once the cluster has started, and freeing it does
        not trim the heap: a read's buffers cost the same whatever the
        process freed before serving."""
        src = Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True, timeout=120,
        )
        lines = done.stdout.split("\n")
        if lines[0] == "no-glibc":
            pytest.skip("the C library has no mallinfo2")
        assert lines[0] == "heap"
        assert int(lines[1].split()[1]) >= 24
