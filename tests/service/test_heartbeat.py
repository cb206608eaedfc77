"""Failure detection: lease expiry drives ALIVE -> SUSPECT -> DEAD, and a
live daemon's beat that leaves a node out reports that node DEAD."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.service.heartbeat import FailureDetector, NodeHealth


def detector():
    return FailureDetector(suspect_after=1.0, dead_after=3.0)


class TestRegistration:
    def test_register_makes_alive(self):
        d = detector()
        transitions = d.register("cs0", [1, 2], now=0.0)
        assert {t.node_id for t in transitions} == {1, 2}
        assert all(t.new is NodeHealth.ALIVE for t in transitions)
        assert d.health(1) is NodeHealth.ALIVE
        assert d.server_of(2) == "cs0"

    def test_double_registration_elsewhere_refused(self):
        d = detector()
        d.register("cs0", [1], now=0.0)
        with pytest.raises(ServiceError):
            d.register("cs1", [1], now=0.0)

    def test_bad_timeouts_refused(self):
        with pytest.raises(ConfigurationError):
            FailureDetector(suspect_after=0, dead_after=1)
        with pytest.raises(ConfigurationError):
            FailureDetector(suspect_after=2, dead_after=2)


class TestExpiry:
    def test_silence_degrades_then_kills(self):
        d = detector()
        d.register("cs0", [1], now=0.0)
        assert d.check(now=0.9) == []
        [suspect] = d.check(now=1.5)
        assert suspect.old is NodeHealth.ALIVE
        assert suspect.new is NodeHealth.SUSPECT
        assert d.check(now=2.0) == []
        [dead] = d.check(now=3.5)
        assert dead.new is NodeHealth.DEAD
        assert d.dead_nodes() == frozenset({1})

    def test_one_poll_can_do_both_transitions(self):
        # A detector that slept past both thresholds must still emit the
        # SUSPECT record before the DEAD one.
        d = detector()
        d.register("cs0", [1], now=0.0)
        transitions = d.check(now=10.0)
        assert [t.new for t in transitions] == [
            NodeHealth.SUSPECT,
            NodeHealth.DEAD,
        ]

    def test_beat_keeps_alive(self):
        d = detector()
        d.register("cs0", [1], now=0.0)
        for t in (0.8, 1.6, 2.4):
            d.beat("cs0", [1], now=t)
            assert d.check(now=t + 0.1) == []
        assert d.health(1) is NodeHealth.ALIVE

    def test_late_beat_recovers_suspect(self):
        d = detector()
        d.register("cs0", [1], now=0.0)
        d.check(now=1.5)
        assert d.health(1) is NodeHealth.SUSPECT
        [recovered] = d.beat("cs0", [1], now=2.0)
        assert recovered.old is NodeHealth.SUSPECT
        assert recovered.new is NodeHealth.ALIVE
        assert d.check(now=2.5) == []

    def test_dead_is_sticky_under_beats(self):
        d = detector()
        d.register("cs0", [1], now=0.0)
        d.check(now=5.0)
        assert d.health(1) is NodeHealth.DEAD
        assert d.beat("cs0", [1], now=5.1) == []
        assert d.health(1) is NodeHealth.DEAD

    def test_reregistration_revives_dead(self):
        d = detector()
        d.register("cs0", [1], now=0.0)
        d.check(now=5.0)
        [revived] = d.register("cs0", [1], now=6.0)
        assert revived.old is NodeHealth.DEAD
        assert revived.new is NodeHealth.ALIVE


class TestPartialBeats:
    def test_omitted_node_dies_alone(self):
        # A chunkserver that keeps beating but drops node 2 from the
        # list simulates a single dead disk on a live host.
        d = detector()
        d.register("cs0", [1, 2], now=0.0)
        for t in (0.8, 1.6, 2.4, 3.2):
            d.beat("cs0", [1], now=t)
            d.check(now=t)
        assert d.health(1) is NodeHealth.ALIVE
        assert d.health(2) is NodeHealth.DEAD
        assert d.dead_nodes() == frozenset({2})
        assert d.alive_nodes() == frozenset({1})

    def test_foreign_server_beats_ignored(self):
        d = detector()
        d.register("cs0", [1], now=0.0)
        d.beat("cs1", [1], now=2.0)  # not its node: no refresh
        transitions = d.check(now=3.5)
        assert transitions[-1].new is NodeHealth.DEAD

    def test_snapshot_is_json_ready(self):
        d = detector()
        d.register("cs0", [2, 1], now=0.0)
        d.check(now=5.0)
        assert d.snapshot() == {1: "dead", 2: "dead"}


class TestExcuse:
    def test_an_excused_gap_is_nobodys_silence(self):
        """The observer slept 10 s: a node quiet for 0.5 s before that is
        quiet for 0.5 s after it, and dies on its own schedule."""
        d = detector()
        d.register("cs1", [1], now=0.0)  # cs1 goes quiet at 0.0
        d.register("cs0", [2], now=0.0)
        d.beat("cs0", [2], now=0.5)
        d.excuse(10.0)
        assert d.check(now=10.6) == []
        d.beat("cs0", [2], now=11.2)
        assert [(t.node_id, t.new) for t in d.check(now=11.2)] == [
            (1, NodeHealth.SUSPECT)
        ]
        d.beat("cs0", [2], now=13.1)
        assert [(t.node_id, t.new) for t in d.check(now=13.1)] == [
            (1, NodeHealth.DEAD)
        ]
        assert d.alive_nodes() == frozenset({2})


class TestReportedDeath:
    """A node its own live daemon leaves out of a beat is dead at that beat."""

    def test_an_omitted_alive_node_dies_at_that_beat(self):
        d = detector()
        d.register("cs0", [1, 2], now=0.0)
        [dead] = d.beat("cs0", [1], now=0.3)
        assert (dead.node_id, dead.server_id, dead.old, dead.new, dead.at) == (
            2, "cs0", NodeHealth.ALIVE, NodeHealth.DEAD, 0.3
        )
        assert d.dead_nodes() == frozenset({2})
        assert d.alive_nodes() == frozenset({1})
        assert d.check(now=0.4) == []

    def test_an_omitted_suspect_node_dies_at_that_beat(self):
        d = detector()
        d.register("cs0", [1, 2], now=0.0)
        d.check(now=1.5)
        assert d.health(2) is NodeHealth.SUSPECT
        transitions = d.beat("cs0", [1], now=1.6)
        assert [(t.node_id, t.old, t.new, t.at) for t in transitions] == [
            (1, NodeHealth.SUSPECT, NodeHealth.ALIVE, 1.6),
            (2, NodeHealth.SUSPECT, NodeHealth.DEAD, 1.6),
        ]
        assert d.check(now=1.7) == []

    def test_an_omission_by_another_server_changes_nothing(self):
        d = detector()
        d.register("cs0", [1], now=0.0)
        d.register("cs1", [2], now=0.0)
        assert d.beat("cs1", [2], now=0.5) == []
        assert d.beat("cs9", [], now=0.5) == []
        assert d.health(1) is NodeHealth.ALIVE
        assert d.alive_nodes() == frozenset({1, 2})

    def test_an_unknown_node_changes_nothing(self):
        d = detector()
        d.register("cs0", [1], now=0.0)
        assert d.beat("cs0", [1, 99], now=0.5) == []
        assert d.health(99) is None
        assert d.snapshot() == {1: "alive"}

    def test_a_reported_death_is_sticky_until_reregistration(self):
        d = detector()
        d.register("cs0", [1, 2], now=0.0)
        [dead] = d.beat("cs0", [1], now=0.3)
        assert dead.node_id == 2
        assert d.beat("cs0", [1], now=0.6) == []  # no second report
        assert d.beat("cs0", [1, 2], now=0.9) == []  # listed, still dead
        assert d.health(2) is NodeHealth.DEAD
        assert d.check(now=1.0) == []
        [revived] = d.register("cs0", [2], now=1.1)
        assert (revived.old, revived.new) == (NodeHealth.DEAD, NodeHealth.ALIVE)
        assert d.beat("cs0", [1, 2], now=1.2) == []
        assert d.alive_nodes() == frozenset({1, 2})

    def test_a_silent_daemon_still_dies_by_timeout(self):
        """A daemon that stops beating reports nothing: its node goes
        SUSPECT, then DEAD only after ``dead_after`` of silence."""
        d = detector()
        d.register("cs0", [1], now=0.0)
        d.register("cs1", [2], now=0.0)  # cs1 is never heard again
        seen = []
        for step in range(1, 41):
            now = step / 10
            assert d.beat("cs0", [1], now=now) == []
            seen += [(t.node_id, t.old, t.new, t.at) for t in d.check(now)]
        assert [(n, old, new) for n, old, new, _ in seen] == [
            (2, NodeHealth.ALIVE, NodeHealth.SUSPECT),
            (2, NodeHealth.SUSPECT, NodeHealth.DEAD),
        ]
        suspect_at, dead_at = seen[0][3], seen[1][3]
        assert 1.0 < suspect_at <= 1.1 + 1e-9
        assert 3.0 < dead_at <= 3.1 + 1e-9
        assert d.alive_nodes() == frozenset({1})
