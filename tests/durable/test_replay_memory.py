"""Replaying a journal holds records and offsets, not the journal.

A loaded journal keeps each commit's payload on disk
(:class:`~repro.durable.checksum.StoredPayload`) and reads it when asked,
so loading and validating cost about one payload however long the
journal is, and a resume holds each committed chunk once: the array it
hands back.  tracemalloc sees numpy's buffers, so these bounds count the
chunk-sized allocations a replay makes.
"""

import tracemalloc

import numpy as np

from repro.durable.checksum import chunk_checksum
from repro.durable.journal import JournalReplay, RecoveryJournal, read_journal
from repro.durable.session import RecoverySession
from repro.recovery import CarStrategy

from tests.durable.conftest import build_failed_cluster
from tests.durable.test_session_resume import open_descriptors

PAYLOAD = 256 * 1024
COMMITS = 16
#: Headers, records and interpreter noise: small next to a payload.
HEADROOM = 64 * 1024


def traced(fn):
    """``(fn(), bytes still allocated, peak bytes allocated)`` over ``fn``."""
    tracemalloc.start()
    try:
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current, peak


def write_journal(path):
    """Session, then one intent + 256 KiB commit per stripe; the CRCs."""
    rng = np.random.default_rng(5)
    crcs = {}
    with RecoveryJournal(path) as journal:
        journal.begin_session({"stripes": list(range(COMMITS))})
        for stripe in range(COMMITS):
            chunk = rng.integers(0, 256, PAYLOAD, dtype=np.uint8)
            crcs[stripe] = chunk_checksum(chunk)
            journal.stripe_intent(stripe, aggregated=True, lost_chunk=0)
            journal.stripe_commit(
                stripe, chunk, lost_chunk=0, ok=True, cross_rack_bytes=0,
                intra_rack_bytes=0, bytes_computed_by_node={},
            )
        journal.end_session(committed=COMMITS)
    return crcs


class TestLoading:
    def test_read_journal_and_load_allocate_less_than_two_payloads(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        write_journal(path)
        assert path.stat().st_size > COMMITS * PAYLOAD
        records, _, peak = traced(lambda: read_journal(path))
        assert sum(r["rec"] == "commit" for r in records) == COMMITS
        assert peak < 2 * PAYLOAD
        replay, _, peak = traced(lambda: JournalReplay.load(path))
        assert len(replay.committed) == COMMITS
        assert peak < 2 * PAYLOAD

    def test_reopening_for_append_reads_no_payload(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path)

        def reopen():
            with RecoveryJournal(path, append=True) as journal:
                journal.resume_marker(replayed=list(range(COMMITS)),
                                      pending=[])

        _, _, peak = traced(reopen)
        assert peak < PAYLOAD


class TestWalking:
    def test_committed_chunks_are_read_one_at_a_time(self, tmp_path):
        path = tmp_path / "j.jsonl"
        crcs = write_journal(path)

        def walk():
            replay = JournalReplay.load(path)
            return [
                chunk_checksum(replay.committed_chunk(stripe))
                for stripe in range(COMMITS)
            ]

        seen, current, peak = traced(walk)
        assert seen == [crcs[s] for s in range(COMMITS)]
        assert peak <= 2 * PAYLOAD + HEADROOM
        assert current < PAYLOAD
        assert open_descriptors(path) == 0  # each read closes its file


class TestResume:
    def test_resuming_a_complete_journal_holds_each_chunk_once(
        self, tmp_path
    ):
        state, event = build_failed_cluster(seed=3, stripes=12,
                                            chunk=PAYLOAD)
        path = tmp_path / "j.jsonl"
        session = RecoverySession(state, event, CarStrategy(), path)
        session.run()
        out, current, peak = traced(session.resume)
        assert out.replayed and not out.executed
        committed = sum(c.nbytes for c in out.reconstructed.values())
        assert committed == len(out.replayed) * PAYLOAD >= 4 * PAYLOAD
        assert current <= committed + HEADROOM
        assert peak <= committed + 2 * PAYLOAD + HEADROOM
        assert out.verified
