"""Failure detection: lease expiry drives ALIVE -> SUSPECT -> DEAD."""

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
        d.register("cs0", [1, 2], now=0.0)
        d.beat("cs0", [2], now=0.5)  # node 1 went quiet at 0.0
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
