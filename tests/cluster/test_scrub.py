"""Tests for scrubbing: corruption injection, detection, healing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.scrub import Scrubber
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.erasure import LRCCode, RSCode
from repro.errors import ClusterError, UnknownChunkError


def make_state(code=None, stripes=5, seed=2):
    code = code or RSCode(4, 2)
    topo = ClusterTopology.from_rack_sizes([3, 3, 3, 3])
    placement = RandomPlacementPolicy(rng=seed).place(
        topo, stripes, code.k, code.m
    )
    data = DataStore(code, stripes, chunk_size=64, seed=seed)
    return ClusterState(topo, code, placement, data)


class TestDataStoreMutation:
    def test_corrupt_changes_bytes(self):
        state = make_state()
        original = state.data.corrupt(0, 1, seed=3)
        assert not np.array_equal(original, state.data.chunk(0, 1))

    def test_overwrite_roundtrip(self):
        state = make_state()
        original = state.data.corrupt(0, 1, seed=3)
        state.data.overwrite(0, 1, original)
        assert state.data.matches(0, 1, original)

    def test_overwrite_shape_checked(self):
        state = make_state()
        with pytest.raises(UnknownChunkError):
            state.data.overwrite(0, 1, np.zeros(3, dtype=np.uint8))


class TestDetection:
    def test_pristine_cluster_is_clean(self):
        state = make_state()
        report = Scrubber(state).scrub()
        assert report.clean_stripes == report.stripes_checked == 5
        assert not report.findings

    def test_corruption_detected(self):
        state = make_state()
        state.data.corrupt(2, 0, seed=1)
        scrubber = Scrubber(state)
        assert not scrubber.stripe_is_consistent(2)
        assert scrubber.stripe_is_consistent(1)

    def test_requires_data(self):
        code = RSCode(4, 2)
        topo = ClusterTopology.from_rack_sizes([3, 3, 3])
        placement = RandomPlacementPolicy(rng=0).place(topo, 2, 4, 2)
        state = ClusterState(topo, code, placement)
        with pytest.raises(ClusterError):
            Scrubber(state)


class TestLocationAndHealing:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 500))
    def test_single_corruption_located_exactly(self, chunk, seed):
        state = make_state(stripes=1)
        state.data.corrupt(0, chunk, seed=seed)
        assert Scrubber(state).locate_corruption(0) == chunk

    def test_heal_restores_ground_truth(self):
        state = make_state()
        pristine = state.data.corrupt(3, 4, seed=9)
        finding = Scrubber(state).heal_stripe(3)
        assert finding.repaired
        assert finding.chunk_index == 4
        assert state.data.matches(3, 4, pristine)
        assert Scrubber(state).stripe_is_consistent(3)

    def test_full_scrub_heals_everything(self):
        state = make_state()
        state.data.corrupt(0, 1, seed=1)
        state.data.corrupt(4, 5, seed=2)
        report = Scrubber(state).scrub()
        assert report.corrupt_stripes == 2
        assert report.all_repaired
        # A second pass is clean.
        second = Scrubber(state).scrub()
        assert second.clean_stripes == second.stripes_checked

    def test_double_corruption_not_isolated(self):
        """Two bad chunks in one stripe defeat single-exclusion."""
        state = make_state()
        state.data.corrupt(0, 0, seed=1)
        state.data.corrupt(0, 3, seed=2)
        finding = Scrubber(state).heal_stripe(0)
        assert finding.chunk_index is None
        assert not finding.repaired

    def test_scrub_works_for_lrc(self):
        code = LRCCode(k=4, l=2, g=2)
        state = make_state(code=code, stripes=3)
        state.data.corrupt(1, 2, seed=7)
        report = Scrubber(state).scrub()
        assert report.corrupt_stripes == 1
        assert report.all_repaired
        assert Scrubber(state).stripe_is_consistent(1)

    def test_a_non_coding_decode_error_propagates(self, monkeypatch):
        """Only a coding error means "this candidate does not span"; any
        other decode failure is a bug and must not turn into a
        misdiagnosed stripe."""
        state = make_state()
        state.data.corrupt(2, 1, seed=3)

        def broken(chunks):
            raise TypeError("kernel fault")

        monkeypatch.setattr(state.code, "decode", broken)
        with pytest.raises(TypeError, match="kernel fault"):
            Scrubber(state).scrub()


class TestScrubMetrics:
    """Scrub passes publish their outcome into the metrics registry."""

    @staticmethod
    def counter_series(registry, name):
        metrics = registry.snapshot()["metrics"]
        if name not in metrics:
            return {}
        return {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in metrics[name]["series"]
        }

    def test_pass_and_outcomes_counted(self):
        from repro.obs.metrics import MetricsRegistry, telemetry_scope

        state = make_state()
        state.data.corrupt(1, 2, seed=9)
        registry = MetricsRegistry()
        with telemetry_scope(registry):
            report = Scrubber(state).scrub()
        assert report.corrupt_stripes == 1
        assert self.counter_series(registry, "scrub.passes") == {(): 1}
        stripes = self.counter_series(registry, "scrub.stripes")
        assert stripes[(("outcome", "clean"),)] == report.clean_stripes
        assert stripes[(("outcome", "corrupt"),)] == 1
        findings = self.counter_series(registry, "scrub.findings")
        assert findings[(("outcome", "repaired"),)] == 1

    def test_unrepairable_counted_separately(self):
        from repro.obs.metrics import MetricsRegistry, telemetry_scope

        state = make_state()
        # Two corruptions in one stripe defeat single-exclusion location.
        state.data.corrupt(0, 0, seed=5)
        state.data.corrupt(0, 3, seed=6)
        registry = MetricsRegistry()
        with telemetry_scope(registry):
            report = Scrubber(state).scrub()
        assert not report.all_repaired
        findings = self.counter_series(registry, "scrub.findings")
        assert findings.get((("outcome", "unrepairable"),), 0) >= 1

    def test_no_registry_no_side_effects(self):
        from repro.obs import metrics as _metrics

        assert _metrics.CURRENT is None
        state = make_state()
        state.data.corrupt(2, 1, seed=4)
        report = Scrubber(state).scrub()  # must not blow up unregistered
        assert report.all_repaired
