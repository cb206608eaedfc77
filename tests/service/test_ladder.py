"""A helper lost while the service repairs goes through the fault ladder.

No sockets: :class:`~repro.service.repair.RepairService` is driven
directly on ``build_failed_cluster`` (as in ``test_resume.py``), with a
clock that parks the repair thread at a chosen window so the death
lands at a known point of the run.  What the ladder itself does with a
crash is ``tests/faults``' business; these tests pin that the service
reaches it, in the *same* journal session, and adds nothing of its own.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter

from tests.durable.conftest import build_failed_cluster, frames

from repro.faults.events import ActionKind, RecoveryAbort
from repro.recovery.baselines import CarStrategy
from repro.service.admission import (
    AdmissionController,
    ModeledLink,
    ServiceClock,
)
from repro.service.repair import RepairService

STRIPES = 12


class GatedClock(ServiceClock):
    """Parks the repair thread in its ``block_at``-th pacing sleep."""

    def __init__(self, block_at: int) -> None:
        super().__init__(speedup=100_000.0)
        self.block_at = block_at
        self.sleeps = 0
        self.reached = threading.Event()
        self.release = threading.Event()

    def sleep_sync(self, model_seconds: float) -> None:
        self.sleeps += 1
        if self.sleeps == self.block_at:
            self.reached.set()
            assert self.release.wait(30)


def helper_nodes(state, per_stripe):
    layout = state.placement.stripe_layout(per_stripe.stripe_id)
    return [layout[c] for c in per_stripe.helpers]


def repair_with_deaths(tmp_path, block_at, choose_dead):
    """Run one repair; at window ``block_at`` mark ``choose_dead(...)`` dead.

    One stripe per window, so when the thread parks after window ``n``
    exactly the first ``n`` stripes of the solution are committed; a
    negative ``block_at`` counts windows from the end.
    Returns ``(service, solution, journal records, dead nodes)``.
    """
    state, event = build_failed_cluster(stripes=STRIPES)
    solution = CarStrategy().solve(state)
    clock = GatedClock(block_at % len(solution.solutions))
    service = RepairService(
        state, event, CarStrategy(), tmp_path / "repair.journal", clock,
        AdmissionController(ModeledLink(1 << 30), clock), window=1,
    )
    service.start()
    assert clock.reached.wait(30)
    dead = list(choose_dead(state, event, solution))
    for node in dead:
        service.mark_dead(node)
    clock.release.set()
    assert service.join(timeout=60)
    records = [f[0] for f in frames(service.journal_path)]
    return service, solution, records, dead


def count(records, rec):
    return sum(1 for r in records if r["rec"] == rec)


class TestHelperLostMidRepair:
    def test_replans_in_the_same_journal_session(self, tmp_path):
        committed_first = 3

        def a_pending_helper(state, event, solution):
            return helper_nodes(state, solution.solutions[-1])[:1]

        service, solution, records, (dead,) = repair_with_deaths(
            tmp_path, committed_first, a_pending_helper
        )
        result = service.result
        assert result is not None, (service.error, service.crash)
        assert result.verified
        # One incarnation: the ladder re-planned inside the session.
        assert count(records, "session") == 1
        assert count(records, "resume") == 0
        commits = Counter(
            r["stripe_id"] for r in records if r["rec"] == "commit"
        )
        assert commits == {s: 1 for s in service.event.stripes}
        assert result.robust.replans == 1
        assert result.robust.dead_nodes == {dead}
        assert service.replans == 1 and service.dead_nodes == {dead}
        # The re-plan covers only what was pending, and avoids the node.
        final = result.robust.final_plan
        before = {
            s.stripe_id for s in solution.solutions[:committed_first]
        }
        assert not before & {sp.stripe_id for sp in final.stripe_plans}
        assert all(
            dead not in (node, dest)
            for sp in final.stripe_plans
            for _, _, node, dest, *_ in sp.window.helpers(sp.row)
        )

    def test_a_dead_node_nobody_reads_costs_nothing(self, tmp_path):
        def an_unread_node(state, event, solution):
            read = set(helper_nodes(state, solution.solutions[-1]))
            return [
                next(
                    n.node_id
                    for n in state.topology.nodes
                    if n.node_id not in read | {event.failed_node}
                )
            ]

        # Parked after the second-to-last window: one stripe pending.
        service, _, records, dead = repair_with_deaths(
            tmp_path, -1, an_unread_node
        )
        assert service.result.verified
        assert service.dead_nodes == set(dead)
        assert service.replans == 0
        assert service.result.robust.rounds == 1
        assert len(service.result.robust.log) == 0
        assert count(records, "intent") == count(records, "commit")

    def test_past_the_replan_budget_it_degrades_to_direct(self, tmp_path):
        def three_busy_helpers(state, event, solution):
            """Three deaths every stripe survives, most-read nodes first."""
            reads = Counter(
                itertools.chain.from_iterable(
                    helper_nodes(state, s) for s in solution.solutions
                )
            )
            k = state.code.k

            def survivable(dead):
                return all(
                    sum(
                        node != event.failed_node and node not in dead
                        for node in state.placement.stripe_layout(s).values()
                    ) >= k
                    for s in event.stripes
                )

            busiest = [node for node, _ in reads.most_common()]
            return next(
                t for t in itertools.combinations(busiest, 3)
                if survivable(t)
            )

        service, _, records, dead = repair_with_deaths(
            tmp_path, 1, three_busy_helpers
        )
        result = service.result
        assert result is not None, (service.error, service.crash)
        assert result.verified
        robust = result.robust
        assert robust.degraded_to_direct
        assert robust.dead_nodes == set(dead)
        assert not robust.final_plan.aggregated
        kinds = [a.action for a in robust.log.actions]
        assert kinds.count(ActionKind.DEGRADE) == 1
        # What the service reports: every re-plan, the degrade included.
        assert service.replans == robust.replans + 1
        assert service.snapshot()["replans"] == service.replans
        assert count(records, "session") == 1
        assert count(records, "resume") == 0


class TestReplacementLost:
    def test_dead_replacement_node_aborts(self, tmp_path):
        service, _, records, _ = repair_with_deaths(
            tmp_path, 1, lambda state, event, solution: [
                event.replacement_node
            ]
        )
        assert service.result is None and service.crash is None
        assert isinstance(service.error, RecoveryAbort)
        assert service.error.reason == "replacement node lost"
        assert service.snapshot()["status"] == "failed"
        # Never a partial answer: the window committed before the loss
        # is all the journal holds, and the session is not closed.
        assert count(records, "commit") == 1
        assert count(records, "end") == 0
