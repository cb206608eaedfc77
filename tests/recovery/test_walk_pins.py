"""What a journalled repair emits, pinned byte for byte.

A journalled :class:`~repro.durable.session.RecoverySession` walks every
stripe's checkpoints and writes stage, intent and commit records.  Its
journal bytes and the checkpoint sequence the fault layer sees are
deterministic per seed, so both are pinned here as SHA-256 digests: a
change to the stage-record order, a commit's traffic and compute
figures, or the order in which checkpoints fire shows up as a new
digest.
"""

import hashlib

import pytest

from repro.cluster.failure import FailureInjector
from repro.durable.session import RecoverySession
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.faults.robust import RobustExecutor
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy


class RecordingExecutor(RobustExecutor):
    """Appends every checkpoint to ``seen`` before acting on it."""

    seen: list

    def _checkpoint(self, stage, *, stripe_id, node, rack, chunk=None,
                    is_partial=False):
        self.seen.append(
            (stage.value, stripe_id, node, rack, chunk, is_partial)
        )
        super()._checkpoint(
            stage, stripe_id=stripe_id, node=node, rack=rack, chunk=chunk,
            is_partial=is_partial,
        )


class RecordingSession(RecoverySession):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def _executor(self, journal):
        executor = RecordingExecutor(
            self.state, injector=self.injector, backoff=self.backoff,
            tracer=self.tracer, journal=journal,
        )
        executor.seen = self.seen
        return executor


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: (config, strategy) -> (journal digest, checkpoint-sequence digest,
#: checkpoint count).
PINS = {
    (CFS1, "car"): (
        "a7a0fa925802fa3919b11e48e94b18c7522da272294d1c53c66e0b0bed110979",
        "08b23787f253a928d6e2182870a7beb2e50a1e918d44e17659f82b002788ecbe",
        143,
    ),
    (CFS1, "rr"): (
        "842d819a30106114ff451ae8ea8e42bf44ad377abedad6004282ca57130970d7",
        "ed07016685ca402cfbdda83a3730866548302a24c20791bcfaa57d762b9f9614",
        117,
    ),
    (CFS2, "car"): (
        "13bad987ef356cf014bd5ac3beb3f89a1a67a47ef82cd5f9d0fc67ba74643a0e",
        "e0d7b91845ffb1a3345794b0b9f2550025ceb30e776d9dd28480386bcb9d2895",
        256,
    ),
    (CFS2, "rr"): (
        "5afc6537e0523a832b168695bffbf3a82b28aa5baa04d2c93629af049dc8fb88",
        "0fdeb1ed68ad92ad42d1c1c6e2ab97da05c9e3f3109a1247fe83cfbd926fbcf5",
        208,
    ),
    (CFS3, "car"): (
        "37189c57a3e9129fad672e1cffaa5fb027e2e5ba9b09a049e473fdec9bc67ac4",
        "664ec332dde6d21d24e75f9df8012f0862c60176f25d03a9df6c8d83941b77e5",
        414,
    ),
    (CFS3, "rr"): (
        "5873d9237cede0ce031ec12a9a7a844dae0a3d938ead255a8fc878bd304c2d1c",
        "3eea565cff2fb02a246241bd944cd0393ae98bfe69db903591e477dde74df08b",
        357,
    ),
}


@pytest.mark.parametrize(
    "config,strategy", list(PINS), ids=[f"{c.name}-{s}" for c, s in PINS]
)
def test_journal_bytes_and_checkpoint_order_are_pinned(
    tmp_path, config, strategy
):
    state = build_state(
        config, 1, with_data=True, chunk_size=64, num_stripes=24
    )
    event = FailureInjector(rng=1).fail_random_node(state)
    path = tmp_path / "recovery.journal"
    session = RecordingSession(
        state, event,
        CarStrategy() if strategy == "car" else RandomRecoveryStrategy(rng=1),
        path, window=3,
    )
    assert session.run().verified
    journal, checkpoints, count = PINS[config, strategy]
    assert len(session.seen) == count
    assert sha256(repr(session.seen).encode()) == checkpoints
    assert sha256(path.read_bytes()) == journal
