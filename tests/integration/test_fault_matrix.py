"""Fault matrix: every valid (fault kind x pipeline stage) injection.

Each cell arms one spec — once for a single fire, once unlimited — and
runs a full recovery under both the aggregated (CAR) and the direct
(RR) strategy.  Every cell must end in exactly one of the allowed
terminal states:

- a verified byte-exact reconstruction,
- a typed :class:`RecoveryAbort` carrying the complete fault log, or
- (coordinator-crash cells only) a :class:`CoordinatorCrashError` whose
  journal a fresh incarnation resumes to a verified reconstruction.

Nothing may escape as a partial answer, an unhandled crash, or a hang.
"""

import itertools

import pytest

from repro.cluster import (
    ClusterState,
    ClusterTopology,
    DataStore,
    FailureInjector,
    RandomPlacementPolicy,
)
from repro.durable.journal import JournalReplay
from repro.durable.session import RecoverySession
from repro.erasure import RSCode
from repro.errors import CoordinatorCrashError
from repro.faults import (
    ActionKind,
    BackoffPolicy,
    FaultInjector,
    FaultKind,
    FaultSpec,
    RecoveryAbort,
    RobustExecutor,
    recover_with_faults,
)
from repro.faults.events import VALID_STAGES
from repro.recovery import CarStrategy, RandomRecoveryStrategy, plan_recovery

CHUNK = 128

MATRIX = sorted(
    (
        (kind, stage)
        for kind in FaultKind
        for stage in VALID_STAGES[kind]
    ),
    key=lambda cell: (cell[0].value, cell[1].value),
)

#: Actions that legitimately answer each fault kind.  A coordinator
#: crash has no in-process response — the session dies and a resume
#: takes over — so it has no entry here.
EXPECTED_RESPONSES = {
    FaultKind.HELPER_CRASH: {
        ActionKind.REPLAN, ActionKind.DEGRADE, ActionKind.ABORT,
    },
    FaultKind.DELEGATE_CRASH: {
        ActionKind.REPLAN, ActionKind.DEGRADE, ActionKind.ABORT,
    },
    FaultKind.DISK_STALL: {ActionKind.WAIT, ActionKind.ESCALATE},
    FaultKind.FLOW_DROP: {ActionKind.RETRY, ActionKind.ESCALATE},
    FaultKind.IN_FLIGHT_CORRUPT: {ActionKind.RETRY, ActionKind.ESCALATE},
}


def build(seed=11, stripes=8):
    code = RSCode(6, 3)
    topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
    placement = RandomPlacementPolicy(rng=seed).place(
        topo, stripes, code.k, code.m
    )
    data = DataStore(code, stripes, chunk_size=CHUNK, seed=seed)
    state = ClusterState(topo, code, placement, data)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


def strategy_for(name, seed=11):
    if name == "car":
        return CarStrategy()
    return RandomRecoveryStrategy(rng=seed)


@pytest.mark.parametrize("strategy_name", ["car", "direct"])
@pytest.mark.parametrize("max_fires", [1, None],
                         ids=["single-fire", "unlimited"])
@pytest.mark.parametrize(
    "kind,stage", MATRIX,
    ids=[f"{k.value}@{s.value}" for k, s in MATRIX],
)
class TestFaultMatrix:
    def test_cell_terminates_correctly(self, kind, stage, max_fires,
                                       strategy_name, tmp_path):
        state, event = build()
        injector = FaultInjector(
            [FaultSpec(kind=kind, stage=stage, max_fires=max_fires)],
            seed=5,
        )
        if kind is FaultKind.COORDINATOR_CRASH:
            self.check_coordinator_cell(
                state, event, strategy_for(strategy_name), injector,
                tmp_path / "journal.jsonl",
            )
            return
        try:
            r = recover_with_faults(
                state, event, strategy_for(strategy_name),
                injector=injector,
                backoff=BackoffPolicy(max_attempts=3),
            )
        except RecoveryAbort as abort:
            self.check_abort(abort, kind, stage, state)
        else:
            self.check_success(r, kind, stage, state)

    @staticmethod
    def check_coordinator_cell(state, event, strategy, injector, path):
        # The session dies with the coordinator; only the journal
        # survives.  A fresh incarnation (the injected environment died
        # with the old process, hence injector=None) resumes it.
        session = RecoverySession(
            state, event, strategy, path, injector=injector,
            backoff=BackoffPolicy(max_attempts=3),
        )
        try:
            out = session.run()
        except CoordinatorCrashError as crash:
            assert crash.event is not None
            assert crash.event.kind is FaultKind.COORDINATOR_CRASH
            resumed = RecoverySession(state, event, strategy, path)
            out = resumed.resume()
        else:
            # The armed stage is never reached on this path (e.g. a
            # partial-decode crash under direct recovery) — the session
            # must simply complete.
            assert not injector.history
        assert out.verified
        assert set(out.reconstructed) == set(state.affected_stripes())
        replay = JournalReplay.load(path)
        assert replay.complete
        for stripe, lost in event.lost_chunks:
            assert state.data.matches(stripe, lost, out.reconstructed[stripe])

    @staticmethod
    def check_success(r, kind, stage, state):
        assert r.verified
        assert set(r.result.reconstructed) == set(state.affected_stripes())
        assert all(r.result.per_stripe_ok.values())
        # Log completeness: only the armed fault fired, at its stage,
        # and every fire drew a legitimate response.
        for fault in r.log.faults:
            assert fault.kind is kind
            assert fault.stage is stage
        if r.log.faults:
            responses = {a.action for a in r.log.actions}
            assert responses & EXPECTED_RESPONSES[kind], (
                f"{kind.value} fired but drew none of "
                f"{EXPECTED_RESPONSES[kind]}"
            )
        # Crashed nodes never serve the final solution.
        for sol in r.final_solution.solutions:
            for chunk in sol.helpers:
                node = state.placement.node_of(sol.stripe_id, chunk)
                assert node not in r.dead_nodes

    @staticmethod
    def check_abort(abort, kind, stage, state):
        # Aborting is only legitimate once fault pressure is unbounded
        # or data is genuinely lost; the log must be complete either way.
        assert abort.log.faults, "abort without any recorded fault"
        assert abort.log.actions[-1].action is ActionKind.ABORT
        for fault in abort.log.faults:
            assert fault.kind is kind
            assert fault.stage is stage
        assert abort.dead_nodes <= {
            n.node_id for n in state.topology.nodes
        }


#: One representative cell per fault kind (the matrix is sorted, so the
#: first cell of each kind is stable across runs).
DETERMINISM_CELLS = list(
    {kind: (kind, stage) for kind, stage in reversed(MATRIX)}.values()
)


class TestMatrixDeterminism:
    """One cell per kind re-run end-to-end: same seed, same outcome."""

    @pytest.mark.parametrize("kind,stage", DETERMINISM_CELLS,
                             ids=[f"{k.value}@{s.value}"
                                  for k, s in DETERMINISM_CELLS])
    def test_cell_replays_identically(self, kind, stage):
        def run():
            state, event = build()
            injector = FaultInjector(
                [FaultSpec(kind=kind, stage=stage, max_fires=2)], seed=5
            )
            try:
                r = recover_with_faults(state, event, CarStrategy(),
                                        injector=injector)
                return ("ok", r.log, r.result.cross_rack_bytes)
            except RecoveryAbort as abort:
                return ("abort", abort.log, None)
            except CoordinatorCrashError as crash:
                return ("crash", crash.event, None)

        assert run() == run()


HELPER_FAULT_CELLS = [
    cell for cell in MATRIX if cell[0] is not FaultKind.COORDINATOR_CRASH
]


class TestMatrixWindowIndependence:
    """Every helper-fault cell, shipped one stripe per window and several:
    stage B walks stripes in order either way, so the injector sees the
    same polls and the run leaves the same log, waste and bytes."""

    @pytest.mark.parametrize("strategy_name", ["car", "direct"])
    @pytest.mark.parametrize("kind,stage", HELPER_FAULT_CELLS,
                             ids=[f"{k.value}@{s.value}"
                                  for k, s in HELPER_FAULT_CELLS])
    def test_cell_is_identical_at_every_window(self, kind, stage,
                                               strategy_name):
        def run(window):
            state, event = build()
            solution = strategy_for(strategy_name).solve(state)
            executor = RobustExecutor(
                state,
                injector=FaultInjector(
                    [FaultSpec(kind=kind, stage=stage, max_fires=2)], seed=5
                ),
                backoff=BackoffPolicy(max_attempts=3),
            )
            try:
                r = executor.run(event, solution, window=window)
            except RecoveryAbort as abort:
                return ("abort", abort.log, sorted(abort.dead_nodes))
            assert r.verified
            return (
                "ok", r.log, r.rounds,
                r.wasted_cross_rack_bytes, r.wasted_intra_rack_bytes,
                r.result.cross_rack_bytes, r.result.intra_rack_bytes,
                r.result.bytes_computed_by_node,
                {s: b.tobytes() for s, b in r.result.reconstructed.items()},
            )

        one = run(1)
        assert run(3) == one
        assert run(None) == one
