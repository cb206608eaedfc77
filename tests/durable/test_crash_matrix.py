"""Crash-at-every-point: kill the coordinator at each record boundary.

The exhaustive version of the resume contract.  For each strategy the
uninterrupted run writes N journal records; we then re-run the whole
recovery N times, crashing after record 1, 2, ..., N, resuming (as many
times as it takes — a resume can itself land on the crash boundary
again), and demand:

- the final reconstruction is byte-identical to the uninterrupted run;
- the journal validates and ends complete;
- the traffic and compute accounting (cross-rack, intra-rack and
  per-node compute bytes) equals the uninterrupted run's;
- the cross-rack transfers actually shipped never exceed the
  uninterrupted count by more than one stripe's worth per crash (only
  the stripe in flight when the crash hit is re-shipped).
"""

import os

import numpy as np
import pytest

from repro.durable.journal import JournalReplay
from repro.durable.session import RecoverySession
from repro.errors import CoordinatorCrashError
from repro.recovery import CarStrategy, RandomRecoveryStrategy

from tests.durable.conftest import CUTS, build_failed_cluster, commit_cuts

SEED = 7
STRIPES = 5


def make_strategy(name):
    return CarStrategy() if name == "car" else RandomRecoveryStrategy(
        rng=SEED
    )


def run_to_completion(path, strategy_name, crash_after):
    """One crashed run plus however many resumes it takes.

    ``crash_after`` applies to the *first* incarnation only; resumes run
    crash-free (each crash point is exercised by its own parameter).
    Returns (result, crashes).
    """
    crashes = 0
    state, event = build_failed_cluster(seed=SEED, stripes=STRIPES)
    session = RecoverySession(
        state, event, make_strategy(strategy_name), path,
        crash_after_records=crash_after,
    )
    try:
        return session.run(), crashes
    except CoordinatorCrashError:
        crashes += 1
    state, event = build_failed_cluster(seed=SEED, stripes=STRIPES)
    session = RecoverySession(
        state, event, make_strategy(strategy_name), path
    )
    return session.resume(), crashes


def baseline(strategy_name, tmp_path):
    state, event = build_failed_cluster(seed=SEED, stripes=STRIPES)
    path = tmp_path / "base.jsonl"
    out = RecoverySession(
        state, event, make_strategy(strategy_name), path
    ).run()
    replay = JournalReplay.load(path)
    per_stripe_cross = {}
    for r in replay.records:
        if r["rec"] == "stage" and r["stage"] == "cross_transfer":
            per_stripe_cross[r["stripe_id"]] = (
                per_stripe_cross.get(r["stripe_id"], 0) + 1
            )
    return out, len(replay.records), replay.total_cross_transfers, (
        max(per_stripe_cross.values()) if per_stripe_cross else 0
    )


@pytest.mark.parametrize("strategy_name", ["car", "direct"])
def test_crash_at_every_record_boundary(strategy_name, tmp_path):
    base, n_records, base_cross, max_stripe_cross = baseline(
        strategy_name, tmp_path
    )
    assert base.verified
    for crash_after in range(1, n_records + 1):
        path = tmp_path / f"crash{crash_after}.jsonl"
        out, crashes = run_to_completion(path, strategy_name, crash_after)
        assert out.verified, f"crash point {crash_after} not verified"
        assert set(out.replayed) | set(out.executed) == set(base.executed)
        for stripe, buf in base.reconstructed.items():
            assert np.array_equal(out.reconstructed[stripe], buf), (
                f"crash point {crash_after}: stripe {stripe} bytes differ"
            )
        # Logical accounting matches the uninterrupted run exactly: the
        # replayed commits' figures plus the live run's, every field.
        for figure in (
            "cross_rack_bytes", "intra_rack_bytes", "bytes_computed_by_node"
        ):
            assert getattr(out, figure) == getattr(base, figure), (
                f"crash point {crash_after}: {figure}"
            )
        replay = JournalReplay.load(path)
        assert replay.complete
        # The traffic bound: at most one in-flight stripe re-ships.
        assert replay.total_cross_transfers <= (
            base_cross + crashes * max_stripe_cross
        ), f"crash point {crash_after} overshipped"


@pytest.mark.parametrize("strategy_name", ["car", "direct"])
def test_crash_at_every_record_boundary_on_two_threads(
    strategy_name, tmp_path, stage_a_threads
):
    """The same matrix with stage A on two threads: what a crash leaves
    does not depend on where the windows decode."""
    test_crash_at_every_record_boundary(strategy_name, tmp_path)
    assert stage_a_threads and set(stage_a_threads) == {2}


# -- the commit frame's own boundaries ---------------------------------------
#
# The matrix above crashes *between* records.  A machine can also die
# inside one: the cells below cut a completed journal at each boundary of
# its last commit frame and resume from what is left.


def car_session(path, **kwargs):
    state, event = build_failed_cluster(seed=SEED, stripes=STRIPES)
    return RecoverySession(state, event, CarStrategy(), path, **kwargs)


@pytest.mark.parametrize("cut", CUTS)
def test_resume_from_a_cut_inside_the_last_commit_frame(cut, tmp_path):
    path = tmp_path / "j.jsonl"
    base = car_session(path).run()
    commits = JournalReplay.load(path).committed
    assert len(commits) >= 3
    last = list(commits)[-1]  # stripes commit in file order
    dropped = () if cut == "after-closing-newline" else (last,)

    path.write_bytes(path.read_bytes()[: commit_cuts(path)[cut]])
    torn = JournalReplay.load(path)
    assert set(torn.committed) == set(commits) - set(dropped)

    out = car_session(path).resume()
    # Exactly the stripe whose frame was cut runs again; the committed
    # ones replay from the file and ship nothing.
    assert out.executed == dropped
    assert set(out.replayed) == set(commits) - set(dropped)
    assert out.live_cross_rack_bytes == sum(
        commits[s]["cross_rack_bytes"] for s in dropped
    )
    assert out.verified and out.cross_rack_bytes == base.cross_rack_bytes
    for stripe, buf in base.reconstructed.items():
        assert np.array_equal(out.reconstructed[stripe], buf)
    assert JournalReplay.load(path).complete


def test_torn_tail_survives_a_crash_during_the_resume(tmp_path):
    """Crash, torn tail, resume that crashes too, torn again, resume.

    The reopening writer must cut the torn fragment off before it
    appends; glued onto it, the resume marker made the journal
    unreadable for every later incarnation.
    """
    base = car_session(tmp_path / "base.jsonl").run()
    path = tmp_path / "j.jsonl"
    first_commit = next(
        r["seq"] for r in JournalReplay.load(tmp_path / "base.jsonl").records
        if r["rec"] == "commit"
    )
    with pytest.raises(CoordinatorCrashError):
        car_session(path, crash_after_records=first_commit).run()
    with path.open("ab") as fh:
        fh.write(b'{"seq": %d, "rec": "comm' % (first_commit + 1))
    with pytest.raises(CoordinatorCrashError):
        car_session(path, crash_after_records=2).resume()
    with path.open("ab") as fh:  # this time the crash ate half a payload
        fh.write(b'{"payload_bytes": 96, "rec": "commit", "seq": 99}\n')
        fh.write(b"\n" * 48)

    out = car_session(path).resume()
    assert out.verified
    for stripe, buf in base.reconstructed.items():
        assert np.array_equal(out.reconstructed[stripe], buf)
    replay = JournalReplay.load(path)  # reads and validates
    assert replay.complete
    assert [r["rec"] for r in replay.records].count("resume") == 2


def test_one_disk_sync_per_window_not_per_commit(tmp_path, monkeypatch):
    syncs = []
    real = os.fdatasync
    monkeypatch.setattr(
        os, "fdatasync", lambda fd: (syncs.append(fd), real(fd))[1]
    )
    state, event = build_failed_cluster(seed=SEED, stripes=10)
    assert len(event.lost_chunks) == 7
    path = tmp_path / "j.jsonl"
    out = RecoverySession(state, event, CarStrategy(), path, window=3).run()
    assert out.verified
    # Windows of 3, 3 and 1 stripes, then the end record's close.
    assert len(syncs) == 3 + 1
