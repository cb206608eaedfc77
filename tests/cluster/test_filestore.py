"""Tests for the file-level API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.filestore import FileStore
from repro.cluster.topology import ClusterTopology
from repro.erasure import LRCCode, RSCode
from repro.errors import ClusterError, ConfigurationError


@pytest.fixture
def store():
    topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
    return FileStore(topo, RSCode(6, 3), chunk_size=64, rng=7)


class TestValidation:
    def test_requires_gf8(self):
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        with pytest.raises(ConfigurationError):
            FileStore(topo, RSCode(6, 3, w=16))

    def test_positive_chunk_size(self):
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        with pytest.raises(ConfigurationError):
            FileStore(topo, RSCode(6, 3), chunk_size=0)

    def test_empty_payload_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.write("x", b"")

    def test_duplicate_name_rejected(self, store):
        store.write("a", b"hello")
        with pytest.raises(ClusterError):
            store.write("a", b"world")

    def test_missing_file(self, store):
        with pytest.raises(ClusterError):
            store.stat("nope")


class TestWriteRead:
    def test_roundtrip_small(self, store):
        payload = b"the quick brown fox"
        info = store.write("fox", payload)
        assert info.size == len(payload)
        assert info.stripes == 1
        assert store.read("fox") == payload

    def test_roundtrip_multi_stripe(self, store):
        payload = bytes(range(256)) * 5  # 1280 B > 384 B/stripe
        info = store.write("big", payload)
        assert info.stripes == -(-len(payload) // store.stripe_payload)
        assert store.read("big") == payload

    def test_exact_stripe_boundary(self, store):
        payload = b"z" * store.stripe_payload
        info = store.write("exact", payload)
        assert info.stripes == 1
        assert store.read("exact") == payload

    def test_multiple_files_coexist(self, store):
        a, b = b"alpha" * 40, b"beta" * 77
        store.write("a", a)
        store.write("b", b)
        assert store.read("a") == a
        assert store.read("b") == b
        assert "a" in store and "c" not in store
        assert [f.name for f in store.files()] == ["a", "b"]

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=1, max_size=2000))
    def test_roundtrip_property(self, payload):
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        store = FileStore(topo, RSCode(4, 3), chunk_size=32, rng=1)
        store.write("f", payload)
        assert store.read("f") == payload


class TestDegradedRead:
    def test_degraded_read_returns_payload(self, store):
        payload = bytes(range(200)) * 3
        store.write("f", payload)
        # Degrade every node in turn; reads must survive all of them.
        state = store.cluster_state()
        for node in range(state.topology.num_nodes):
            assert store.read_degraded("f", node) == payload

    def test_degraded_read_with_lrc(self):
        topo = ClusterTopology.from_rack_sizes([4, 4, 3, 3])
        store = FileStore(topo, LRCCode(k=4, l=2, g=2), chunk_size=32, rng=2)
        payload = b"locality" * 30
        store.write("f", payload)
        for node in range(topo.num_nodes):
            assert store.read_degraded("f", node) == payload


class TestClusterIntegration:
    def test_cluster_state_is_consistent(self, store):
        store.write("a", b"payload one" * 10)
        store.write("b", b"payload two" * 25)
        state = store.cluster_state()
        assert state.placement.num_stripes == sum(
            f.stripes for f in store.files()
        )
        assert state.placement.is_rack_fault_tolerant()

    def test_recovery_runs_against_store(self, store):
        from repro.cluster.failure import FailureInjector
        from repro.recovery import CarStrategy, PlanExecutor, plan_recovery

        store.write("a", bytes(range(256)) * 4)
        state = store.cluster_state()
        event = FailureInjector(rng=3).fail_random_node(state)
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        assert PlanExecutor(state).execute(plan, solution).verified

    def test_scrubbing_runs_against_store(self, store):
        from repro.cluster.scrub import Scrubber

        store.write("a", b"scrub me" * 20)
        state = store.cluster_state()
        state.data.corrupt(0, 2, seed=5)
        report = Scrubber(state).scrub()
        assert report.corrupt_stripes == 1
        assert report.all_repaired
