"""Write-ahead journal: record schema, torn lines, crash injection."""

import errno
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import decode_payload
from repro.durable.journal import (
    RECORD_TYPES,
    JournalReplay,
    RecoveryJournal,
    read_journal,
    validate_journal_records,
)
from repro.errors import CoordinatorCrashError, JournalError
from repro.obs.metrics import MetricsRegistry, telemetry_scope

from tests.durable.conftest import CUTS, commit_cuts, frames


def write_minimal(path, stripes=(0, 1), commit=(0,)):
    """A hand-driven journal: session, intents, commits, end."""
    journal = RecoveryJournal(path)
    journal.begin_session({"stripes": list(stripes)})
    for s in stripes:
        journal.stripe_intent(s, aggregated=True, lost_chunk=2)
    for s in commit:
        journal.stage(s, "cross_transfer", node=1, rack=1, chunk=3,
                      is_partial=True)
        journal.stripe_commit(
            s, np.arange(16, dtype=np.uint8), lost_chunk=2, ok=True,
            cross_rack_bytes=16, intra_rack_bytes=32,
            bytes_computed_by_node={4: 16},
        )
    journal.end_session(committed=len(commit))
    return journal


class TestJournalWriting:
    def test_seq_is_contiguous_and_validates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path)
        records = read_journal(path)
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
        assert validate_journal_records(records) == len(records)
        assert {r["rec"] for r in records} <= RECORD_TYPES

    def test_session_header_must_come_first(self, tmp_path):
        journal = RecoveryJournal(tmp_path / "j.jsonl")
        journal.begin_session({"stripes": [0]})
        with pytest.raises(JournalError, match="first record"):
            journal.begin_session({"stripes": [0]})

    def test_end_session_closes_without_truncating(self, tmp_path):
        # Regression: close() then end_session() used to reopen with
        # mode "w" and wipe every earlier record.
        path = tmp_path / "j.jsonl"
        journal = RecoveryJournal(path)
        journal.begin_session({"stripes": [0]})
        journal.stripe_intent(0, aggregated=True, lost_chunk=1)
        journal.close()
        journal.end_session(committed=0)
        records = read_journal(path)
        assert [r["rec"] for r in records] == ["session", "intent", "end"]

    def test_append_mode_continues_seq(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RecoveryJournal(path)
        journal.begin_session({"stripes": [0, 1]})
        journal.stripe_intent(0, aggregated=True, lost_chunk=1)
        journal.close()
        resumed = RecoveryJournal(path, append=True)
        resumed.resume_marker(replayed=[], pending=[0, 1])
        resumed.close()
        records = read_journal(path)
        assert records[-1]["rec"] == "resume"
        assert records[-1]["seq"] == 3

    def test_append_to_missing_journal_fails(self, tmp_path):
        journal = RecoveryJournal(tmp_path / "none.jsonl", append=True)
        with pytest.raises(JournalError):
            journal.resume_marker(replayed=[], pending=[])

    def test_records_counted_in_metrics(self, tmp_path):
        registry = MetricsRegistry()
        with telemetry_scope(registry):
            write_minimal(tmp_path / "j.jsonl")
        series = registry.snapshot()["metrics"]["journal.records"]["series"]
        by_rec = {s["labels"]["rec"]: s["value"] for s in series}
        assert by_rec["session"] == 1
        assert by_rec["commit"] == 1
        assert by_rec["end"] == 1


class TestCrashInjection:
    def test_crash_fires_after_nth_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RecoveryJournal(path, crash_after_records=2)
        journal.begin_session({"stripes": [0]})
        with pytest.raises(CoordinatorCrashError) as excinfo:
            journal.stripe_intent(0, aggregated=True, lost_chunk=1)
        assert excinfo.value.records_written == 2
        # The record that triggered the crash IS durable.
        assert [r["rec"] for r in read_journal(path)] == ["session", "intent"]

    def test_crash_threshold_must_be_positive(self, tmp_path):
        with pytest.raises(JournalError):
            RecoveryJournal(tmp_path / "j.jsonl", crash_after_records=0)

    def test_crash_error_survives_pickle(self, tmp_path):
        import pickle

        journal = RecoveryJournal(tmp_path / "j.jsonl",
                                  crash_after_records=1)
        with pytest.raises(CoordinatorCrashError) as excinfo:
            journal.begin_session({"stripes": []})
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.records_written == 1
        assert str(clone) == str(excinfo.value)


class TestReadJournal:
    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path)
        whole = read_journal(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"seq": 99, "rec": "end", "commi')  # died mid-write
        assert read_journal(path) == whole

    def test_malformed_interior_line_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path)
        lines = path.read_text().splitlines()
        lines.insert(1, "garbage not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="malformed record on line 2"):
            read_journal(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            read_journal(tmp_path / "absent.jsonl")


class TestValidation:
    def rewrite(self, path, mutate):
        records = read_journal(path)
        mutate(records)
        # The tests validate the returned in-memory records; the rewritten
        # file carries each record's JSON line only (a commit's payload
        # is a byte view, not JSON).
        path.write_text(
            "".join(
                json.dumps({k: v for k, v in r.items() if k != "payload"})
                + "\n"
                for r in records
            )
        )
        return records

    def test_empty_journal_invalid(self):
        with pytest.raises(JournalError, match="empty"):
            validate_journal_records([])

    def test_seq_gap_detected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path)
        records = self.rewrite(
            path, lambda rs: rs[2].__setitem__("seq", 99)
        )
        with pytest.raises(JournalError, match="seq"):
            validate_journal_records(records)

    def test_unknown_record_type_detected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path)
        records = self.rewrite(
            path, lambda rs: rs[1].__setitem__("rec", "mystery")
        )
        with pytest.raises(JournalError, match="unknown record type"):
            validate_journal_records(records)

    def test_commit_without_intent_detected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path)

        def orphan(rs):
            for r in rs:
                if r["rec"] == "commit":
                    r["stripe_id"] = 77

        records = self.rewrite(path, orphan)
        with pytest.raises(JournalError, match="without a prior intent"):
            validate_journal_records(records)

    def test_corrupted_commit_payload_detected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path)

        def corrupt(rs):
            for r in rs:
                if r["rec"] == "commit":
                    r["checksum"] ^= 1

        records = self.rewrite(path, corrupt)
        with pytest.raises(JournalError, match="checksum mismatch"):
            validate_journal_records(records)

    def test_end_commit_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path)
        records = self.rewrite(
            path, lambda rs: rs[-1].__setitem__("committed", 5)
        )
        with pytest.raises(JournalError, match="claims 5 commits"):
            validate_journal_records(records)


class TestJournalReplay:
    def test_committed_pending_and_chunks(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path, stripes=(0, 1, 2), commit=(0, 2))
        replay = JournalReplay.load(path)
        assert set(replay.committed) == {0, 2}
        assert replay.pending == (1,)
        assert not replay.complete  # stripe 1 never committed
        assert np.array_equal(
            replay.committed_chunk(0), np.arange(16, dtype=np.uint8)
        )
        with pytest.raises(JournalError, match="no commit record"):
            replay.committed_chunk(1)

    def test_commits_are_folded_once_per_replay(self, tmp_path):
        """Looping over the commits stripe by stripe is linear: the
        records are folded into the commit map once, not per call."""

        class Passes(list):
            count = 0

            def __iter__(self):
                self.count += 1
                return super().__iter__()

        path = tmp_path / "j.jsonl"
        stripes = tuple(range(40))
        write_minimal(path, stripes=stripes, commit=stripes[::2])
        records = Passes(JournalReplay.load(path).records)
        replay = JournalReplay(records)
        for stripe in stripes[::2]:
            assert np.array_equal(
                replay.committed_chunk(stripe), np.arange(16, dtype=np.uint8)
            )
            assert replay.pending == stripes[1::2]
        assert records.count == 1

    def test_complete_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path, stripes=(0, 1), commit=(0, 1))
        replay = JournalReplay.load(path)
        assert replay.complete
        assert replay.pending == ()
        assert replay.session["stripes"] == [0, 1]

    def test_cross_transfer_accounting(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_minimal(path, stripes=(0, 1, 2), commit=(0, 2))
        replay = JournalReplay.load(path)
        # One cross_transfer stage record per committed stripe here.
        assert replay.total_cross_transfers == 2
        assert replay.uncommitted_cross_transfers == 0


def write_commits(path, chunks):
    """Session, one intent + commit per chunk (stripe i), no end record."""
    with RecoveryJournal(path) as journal:
        journal.begin_session({"stripes": list(range(len(chunks)))})
        for s, chunk in enumerate(chunks):
            journal.stripe_intent(s, aggregated=True, lost_chunk=0)
            journal.stripe_commit(
                s, chunk, lost_chunk=0, ok=True, cross_rack_bytes=0,
                intra_rack_bytes=0, bytes_computed_by_node={},
            )


#: Payloads that would break a reader that scans for newlines or JSON.
HOSTILE = [b"\n", b"\n\n{", b'{"seq": 3, "rec": "end", "committed": 0}\n']


class TestCommitFrames:
    CHUNKS = [
        np.frombuffer(bytes(range(40)) * 3, dtype=np.uint8),
        np.frombuffer(b'\n{"seq"' * 12, dtype=np.uint8),
        np.arange(50, dtype=np.uint16),
        np.frombuffer(b"\n" * 64, dtype=np.uint8),
    ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["uint8", "uint16"]),
                st.lists(
                    st.one_of(st.sampled_from(HOSTILE), st.binary(max_size=48)),
                    max_size=6,
                ).map(b"".join),
            ),
            min_size=1, max_size=5,
        )
    )
    def test_any_payload_bytes_round_trip(self, tmp_path_factory, spec):
        chunks = [
            np.frombuffer(raw[: len(raw) // 2 * 2], dtype=dtype)
            for dtype, raw in spec
        ]
        path = tmp_path_factory.mktemp("frames") / "j.jsonl"
        write_commits(path, chunks)
        records = read_journal(path)
        assert validate_journal_records(records) == 1 + 2 * len(chunks)
        commits = [r for r in records if r["rec"] == "commit"]
        for record, chunk in zip(commits, chunks):
            out = decode_payload(record)
            assert out.dtype == chunk.dtype
            assert np.array_equal(out, chunk)

    def test_file_size_is_control_lines_plus_raw_payloads(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_commits(path, self.CHUNKS)
        records = read_journal(path)
        control = sum(
            len(json.dumps(
                {k: v for k, v in r.items() if k != "payload"}, sort_keys=True
            )) + 1
            for r in records
        )
        payload = sum(c.nbytes + 1 for c in self.CHUNKS)
        assert path.stat().st_size == control + payload
        assert frames(path)[-1][3] == path.stat().st_size

    @pytest.mark.parametrize("cut", CUTS)
    def test_truncated_last_commit_is_a_torn_tail(self, tmp_path, cut):
        path = tmp_path / "j.jsonl"
        write_commits(path, self.CHUNKS)
        whole = read_journal(path)
        data = path.read_bytes()
        path.write_bytes(data[: commit_cuts(path)[cut]])
        kept = read_journal(path)
        assert kept == (whole if cut == "after-closing-newline" else whole[:-1])
        validate_journal_records(kept)

    @pytest.mark.parametrize("cut", CUTS[:-1])
    def test_damaged_interior_commit_is_fatal(self, tmp_path, cut):
        # The same damage with later records left in place is not a
        # torn tail: the bytes from the cut to the frame's end are gone.
        path = tmp_path / "j.jsonl"
        write_commits(path, self.CHUNKS)
        data, cuts = path.read_bytes(), commit_cuts(path, which=1)
        path.write_bytes(
            data[: cuts[cut]] + data[cuts["after-closing-newline"]:]
        )
        with pytest.raises(JournalError):
            read_journal(path)

    def test_flipped_payload_bit_fails_the_checksum(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_commits(path, self.CHUNKS)
        data = bytearray(path.read_bytes())
        data[commit_cuts(path, which=1)["mid-payload"]] ^= 0x10
        path.write_bytes(data)
        records = read_journal(path)  # framing is intact
        with pytest.raises(JournalError, match="checksum mismatch"):
            validate_journal_records(records)
        with pytest.raises(JournalError, match="checksum mismatch"):
            JournalReplay(records).committed_chunk(1)

    def test_reopening_truncates_the_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_commits(path, self.CHUNKS)
        whole = read_journal(path)
        with path.open("ab") as fh:
            fh.write(b'{"seq": 10, "rec": "comm')
        with RecoveryJournal(path, append=True) as journal:
            journal.resume_marker(replayed=[0, 1, 2, 3], pending=[])
        records = read_journal(path)
        assert records[:-1] == whole
        assert records[-1]["rec"] == "resume"
        assert validate_journal_records(records) == len(whole) + 1


class TestShortWrites:
    @staticmethod
    def write_some(fd, bufs, nbytes, writev=os.writev):
        """What a short ``writev`` does: only the first ``nbytes`` land."""
        return writev(fd, [b"".join(bytes(b) for b in bufs)[:nbytes]])

    def commit(self, journal, stripe):
        journal.stripe_intent(stripe, aggregated=True, lost_chunk=0)
        journal.stripe_commit(
            stripe, np.arange(200, dtype=np.uint8), lost_chunk=0, ok=True,
            cross_rack_bytes=0, intra_rack_bytes=0, bytes_computed_by_node={},
        )

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        def half(fd, bufs):
            total = sum(len(b) for b in bufs)
            return self.write_some(fd, bufs, -(-total // 2))

        monkeypatch.setattr(os, "writev", half)
        path = tmp_path / "j.jsonl"
        with RecoveryJournal(path) as journal:
            journal.begin_session({"stripes": [0, 1]})
            self.commit(journal, 0)
            self.commit(journal, 1)
        replay = JournalReplay.load(path)
        assert set(replay.committed) == {0, 1}
        assert np.array_equal(
            replay.committed_chunk(1), np.arange(200, dtype=np.uint8)
        )

    def test_failed_write_raises_and_leaves_a_valid_journal(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.jsonl"
        journal = RecoveryJournal(path)
        journal.begin_session({"stripes": [0, 1]})
        self.commit(journal, 0)
        whole = path.read_bytes()
        calls = []

        def half_then_full_disk(fd, bufs):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.write_some(fd, bufs, sum(len(b) for b in bufs) // 2)

        journal.stripe_intent(1, aggregated=True, lost_chunk=0)
        with_intent = path.read_bytes()
        monkeypatch.setattr(os, "writev", half_then_full_disk)
        with pytest.raises(JournalError, match=r"offset \d+.*No space left"):
            journal.stripe_commit(
                1, np.arange(200, dtype=np.uint8), lost_chunk=0, ok=True,
                cross_rack_bytes=0, intra_rack_bytes=0,
                bytes_computed_by_node={},
            )
        monkeypatch.undo()
        # No hole: the half-written frame is gone, every earlier record
        # is intact, and the journal can keep going with the same seq.
        assert path.read_bytes() == with_intent
        assert with_intent.startswith(whole)
        self.commit(journal, 1)
        journal.end_session(committed=2)
        records = read_journal(path)
        assert validate_journal_records(records) == len(records)
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
