"""A checksum runs once per hop, and only where bytes could have changed.

A fault-free journalled stripe costs one CRC pass: the commit record's,
over the rebuilt chunk.  The robust executor's receipt check checksums
only a payload the network changed in flight (a corrupted copy of a
read-only view of the sender's bytes), and a delivery hook gets the
stored chunks read-only, so it cannot alter the sender's bytes at all.
"""

import zlib

import numpy as np
import pytest

from repro.durable import checksum as checksum_module
from repro.durable.session import RecoverySession
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    PipelineStage,
    RobustExecutor,
)
from repro.recovery import CarStrategy

from tests.durable.conftest import build_failed_cluster


@pytest.fixture
def crc_calls(monkeypatch):
    """Count every CRC pass the checksum module makes."""
    calls = []

    class CountingZlib:
        @staticmethod
        def crc32(data, value=0):
            calls.append(len(memoryview(data).cast("B")))
            return zlib.crc32(data, value)

    monkeypatch.setattr(checksum_module, "zlib", CountingZlib)
    return calls


def snapshot(state):
    return {
        (s, c): state.data.chunk(s, c).copy()
        for s in range(state.data.num_stripes)
        for c in range(state.code.k + state.code.m)
    }


class TestOneCrcPerStripe:
    @pytest.mark.parametrize("window", [1, 4])
    def test_fault_free_journalled_stripe_costs_one_crc(
        self, crc_calls, tmp_path, window
    ):
        state, event = build_failed_cluster(stripes=12)
        out = RecoverySession(
            state, event, CarStrategy(), tmp_path / "j.jsonl", window=window
        ).run()
        assert out.verified
        assert out.robust.result.per_stripe_ok
        # One pass per stripe, over exactly the rebuilt chunk's bytes.
        assert crc_calls == [state.data.chunk_size] * event.num_stripes

    def test_a_substituted_buffer_is_checksummed(self, crc_calls, tmp_path):
        state, event = build_failed_cluster(stripes=12)
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.IN_FLIGHT_CORRUPT,
                       stage=PipelineStage.CROSS_TRANSFER, max_fires=1)],
            seed=5,
        )
        out = RecoverySession(
            state, event, CarStrategy(), tmp_path / "j.jsonl",
            injector=injector,
        ).run()
        assert out.verified
        assert injector.history
        # The corrupt receipt: sender and receiver checksummed once each.
        assert len(crc_calls) == event.num_stripes + 2


class TestTransmitSeesAReadOnlyView:
    def test_a_hook_that_writes_into_its_buffer_raises(self):
        state, event = build_failed_cluster()
        before = snapshot(state)
        written = []

        class ScribblingNetwork(RobustExecutor):
            def _deliver(self, stage, buf, **where):
                written.append(buf.flags.writeable)
                buf[0] ^= 1
                super()._deliver(stage, buf, **where)

        sol = CarStrategy().solve(state)
        with pytest.raises(ValueError, match="read-only"):
            ScribblingNetwork(state).run(event, sol)
        assert written == [False]
        after = snapshot(state)
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_the_sender_buffer_is_returned_unchecked(self, crc_calls):
        state, event = build_failed_cluster()
        sol = CarStrategy().solve(state)
        out = RobustExecutor(state).run(event, sol)
        assert out.verified
        assert crc_calls == []
