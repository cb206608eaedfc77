"""RecoverySession: run, crash, resume — and the runner-level helpers."""

import numpy as np
import pytest

from repro.durable.journal import JournalReplay, RecoveryJournal
from repro.durable.session import RecoverySession
from repro.errors import CoordinatorCrashError, JournalError
from repro.experiments.configs import CFS1
from repro.experiments.runner import (
    resume_durable_recovery,
    run_durable_recovery,
)
from repro.recovery import CarStrategy, RandomRecoveryStrategy

from tests.durable.conftest import build_failed_cluster


def session_for(state, event, path, **kwargs):
    return RecoverySession(state, event, CarStrategy(), path, **kwargs)


class TestUninterruptedRun:
    def test_run_produces_verified_complete_journal(self, failed_cluster,
                                                    tmp_path):
        state, event = failed_cluster
        path = tmp_path / "j.jsonl"
        out = session_for(state, event, path).run()
        assert out.verified
        assert set(out.executed) == set(state.affected_stripes())
        assert out.replayed == ()
        replay = JournalReplay.load(path)
        assert replay.complete
        assert set(replay.committed) == set(out.executed)
        # Ground truth: every committed payload matches the lost chunk.
        for stripe, lost in event.lost_chunks:
            assert state.data.matches(
                stripe, lost, replay.committed_chunk(stripe)
            )

    def test_live_equals_logical_without_crashes(self, failed_cluster,
                                                 tmp_path):
        state, event = failed_cluster
        out = session_for(state, event, tmp_path / "j.jsonl").run()
        assert out.live_cross_rack_bytes == out.cross_rack_bytes
        assert out.live_intra_rack_bytes == out.intra_rack_bytes

    def test_journal_size_is_bounded_by_committed_payloads(self, tmp_path):
        """Journal bytes scale with the committed payloads, not pipeline
        chatter: base64 is ~4/3 of a chunk per commit, and the intent,
        stage and commit records around it stay under 2.5 kB a stripe."""
        chunk = 4096
        state, event = build_failed_cluster(stripes=24, chunk=chunk)
        path = tmp_path / "j.jsonl"
        assert session_for(state, event, path).run().verified
        stripes = len(JournalReplay.load(path).committed)
        assert 0 < path.stat().st_size < stripes * (2 * chunk + 2500)

    def test_header_is_self_describing(self, failed_cluster, tmp_path):
        state, event = failed_cluster
        path = tmp_path / "j.jsonl"
        session_for(state, event, path,
                    session_meta={"config": "CFS2", "seed": 7}).run()
        header = JournalReplay.load(path).session
        assert header["strategy"] == "CarStrategy"
        assert header["failed_node"] == event.failed_node
        assert header["chunk_size"] == state.data.chunk_size
        assert header["config"] == "CFS2"
        assert header["seed"] == 7


class TestCrashAndResume:
    def test_resume_is_byte_identical_to_uninterrupted(self, tmp_path):
        state, event = build_failed_cluster()
        base = session_for(state, event, tmp_path / "base.jsonl").run()

        state2, event2 = build_failed_cluster()
        path = tmp_path / "crashed.jsonl"
        with pytest.raises(CoordinatorCrashError):
            session_for(state2, event2, path,
                        crash_after_records=8).run()
        out = session_for(state2, event2, path).resume()
        assert out.verified
        assert set(out.replayed) | set(out.executed) == set(base.executed)
        assert set(out.reconstructed) == set(base.reconstructed)
        for stripe in base.reconstructed:
            assert np.array_equal(out.reconstructed[stripe],
                                  base.reconstructed[stripe])
        # Logical traffic of the whole session matches the baseline:
        # committed stripes charge once, from their commit records.
        assert out.cross_rack_bytes == base.cross_rack_bytes
        assert out.intra_rack_bytes == base.intra_rack_bytes

    def test_replayed_stripes_ship_no_new_traffic(self, tmp_path):
        state, event = build_failed_cluster()
        path = tmp_path / "j.jsonl"
        # Crash late enough that at least one stripe committed.
        crashed = None
        for crash_at in range(5, 40):
            state, event = build_failed_cluster()
            try:
                session_for(state, event, path,
                            crash_after_records=crash_at).run()
            except CoordinatorCrashError:
                if JournalReplay.load(path).committed:
                    crashed = crash_at
                    break
            else:
                pytest.skip("journal too short to crash mid-commit")
        assert crashed is not None
        replay = JournalReplay.load(path)
        committed = set(replay.committed)
        state2, event2 = build_failed_cluster()
        out = session_for(state2, event2, path).resume()
        assert committed <= set(out.replayed)
        # Live traffic covers only the pending stripes, so it is
        # strictly below the logical whole-session figure.
        assert out.live_cross_rack_bytes < out.cross_rack_bytes

    def test_resume_of_complete_journal_replays_everything(self,
                                                           failed_cluster,
                                                           tmp_path):
        state, event = failed_cluster
        path = tmp_path / "j.jsonl"
        base = session_for(state, event, path).run()
        out = session_for(state, event, path).resume()
        assert out.verified
        assert out.executed == ()
        assert set(out.replayed) == set(base.executed)
        assert out.live_cross_rack_bytes == 0
        for stripe in base.reconstructed:
            assert np.array_equal(out.reconstructed[stripe],
                                  base.reconstructed[stripe])

    def test_resume_is_itself_crash_resumable(self, tmp_path):
        state, event = build_failed_cluster()
        path = tmp_path / "j.jsonl"
        with pytest.raises(CoordinatorCrashError):
            session_for(state, event, path, crash_after_records=6).run()
        # The resume crashes too; the next resume finishes the job.
        state2, event2 = build_failed_cluster()
        with pytest.raises(CoordinatorCrashError):
            session_for(state2, event2, path,
                        crash_after_records=4).resume()
        state3, event3 = build_failed_cluster()
        out = session_for(state3, event3, path).resume()
        assert out.verified
        replay = JournalReplay.load(path)
        assert replay.complete
        assert sum(1 for r in replay.records if r["rec"] == "resume") == 2

    def test_resume_with_mismatched_strategy_fails(self, tmp_path):
        state, event = build_failed_cluster()
        path = tmp_path / "j.jsonl"
        with pytest.raises(CoordinatorCrashError):
            session_for(state, event, path, crash_after_records=6).run()
        # A strategy that no longer covers the pending stripes must be
        # rejected, not silently produce a partial recovery.
        from repro.recovery.solution import MultiStripeSolution

        class DroppingStrategy(CarStrategy):
            def solve(self, state):
                full = super().solve(state)
                return MultiStripeSolution(
                    list(full.solutions)[1:],
                    num_racks=full.num_racks,
                    aggregated=full.aggregated,
                )

        state2, event2 = build_failed_cluster()
        bad = RecoverySession(state2, event2, DroppingStrategy(), path)
        with pytest.raises(JournalError, match="pending stripes"):
            bad.resume()


class TestRunnerHelpers:
    def test_run_then_resume_across_rebuilt_state(self, tmp_path):
        path = tmp_path / "j.jsonl"
        base = run_durable_recovery(CFS1, tmp_path / "base.jsonl",
                                    seed=3, num_stripes=6)
        with pytest.raises(CoordinatorCrashError):
            run_durable_recovery(CFS1, path, seed=3, num_stripes=6,
                                 crash_after_records=7)
        # resume_durable_recovery rebuilds the cluster purely from the
        # journal header — nothing is shared with the crashed run.
        out = resume_durable_recovery(path)
        assert out.verified
        assert set(out.reconstructed) == set(base.reconstructed)
        for stripe in base.reconstructed:
            assert np.array_equal(out.reconstructed[stripe],
                                  base.reconstructed[stripe])

    def test_direct_strategy_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with pytest.raises(CoordinatorCrashError):
            run_durable_recovery(CFS1, path, seed=5, num_stripes=6,
                                 strategy="direct", crash_after_records=6)
        out = resume_durable_recovery(path)
        assert out.verified
        header = JournalReplay.load(path).session
        assert header["strategy_label"] == "direct"
        assert header["strategy"] == RandomRecoveryStrategy.__name__

    def test_resume_rejects_non_self_describing_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RecoveryJournal(path)
        journal.begin_session({"stripes": [0]})
        journal.stripe_intent(0, aggregated=True, lost_chunk=1)
        journal.close()
        with pytest.raises(JournalError, match="self-describing"):
            resume_durable_recovery(path)

    def test_unknown_strategy_label_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown durable"):
            run_durable_recovery(CFS1, tmp_path / "j.jsonl",
                                 strategy="quantum")
