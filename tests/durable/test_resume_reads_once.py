"""A resume reads its journal once: the appending writer continues from
the replay's end offset and last ``seq``."""

import pytest

from repro.durable import journal as journal_module
from repro.durable.journal import JournalReplay, RecoveryJournal
from repro.durable.session import RecoverySession
from repro.errors import CoordinatorCrashError, JournalError
from repro.recovery import CarStrategy

from tests.durable.conftest import build_failed_cluster


def crashed_session(path, crash_after_records=12):
    state, event = build_failed_cluster()
    with pytest.raises(CoordinatorCrashError):
        RecoverySession(
            state, event, CarStrategy(), path,
            crash_after_records=crash_after_records,
        ).run()
    return state, event


def test_resume_scans_the_file_once(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    state, event = crashed_session(path)
    # Tear the tail too: the replay's end offset is where it is cut.
    with open(path, "ab") as f:
        f.write(b'{"rec": "commit", "seq": 99, "payl')
    scans = []

    def counting(p, _scan=journal_module._scan):
        scans.append(p)
        return _scan(p)

    monkeypatch.setattr(journal_module, "_scan", counting)
    out = RecoverySession(state, event, CarStrategy(), path).resume()
    assert out.verified
    assert len(scans) == 1
    monkeypatch.undo()
    replay = JournalReplay.load(path)
    assert replay.complete
    assert [r["seq"] for r in replay.records] == list(
        range(1, len(replay.records) + 1)
    )
    assert replay.end_offset == path.stat().st_size


def test_replay_tail_appends_where_a_rescan_would(tmp_path):
    path = tmp_path / "j.jsonl"
    crashed_session(path)
    whole = path.read_bytes()
    torn = whole + b'{"torn'
    path.write_bytes(torn)
    replay = JournalReplay.load(path)
    assert replay.end_offset == len(whole)
    appended = []
    for kwargs in ({"replay": replay}, {}):
        path.write_bytes(torn)
        journal = RecoveryJournal(path, append=True, **kwargs)
        journal.resume_marker(replayed=[], pending=[])
        journal.close()
        appended.append(path.read_bytes())
    assert appended[0] == appended[1]
    assert appended[0].startswith(whole) and len(appended[0]) > len(torn)


def test_replay_needs_an_appending_journal_and_a_loaded_file(tmp_path):
    path = tmp_path / "j.jsonl"
    crashed_session(path)
    replay = JournalReplay.load(path)
    with pytest.raises(JournalError):
        RecoveryJournal(path, replay=replay)
    with pytest.raises(JournalError):
        RecoveryJournal(path, append=True, replay=JournalReplay(replay.records))
