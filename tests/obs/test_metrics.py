"""Metrics registry: labelled series, deterministic merge, cache stats."""

import math
import sys
import threading

import pytest

from repro.cache import BoundedCache
from repro.errors import ConfigurationError
from repro.obs import (
    COUNT_BUCKETS,
    MetricsRegistry,
    cache_stats,
    current_registry,
    telemetry_scope,
)
from repro.obs import metrics as metrics_mod


class TestCounter:
    def test_labelled_series_accumulate_independently(self):
        reg = MetricsRegistry()
        c = reg.counter("bytes")
        c.inc(10, scope="cross")
        c.inc(5, scope="cross")
        c.inc(2, scope="intra")
        assert c.value(scope="cross") == 15
        assert c.value(scope="intra") == 2
        assert c.total == 17

    def test_rejects_negative_increment(self):
        with pytest.raises(ConfigurationError, match="negative"):
            MetricsRegistry().counter("c").inc(-1)

    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge("x")


class TestGauge:
    def test_set_and_add(self):
        g = MetricsRegistry().gauge("temp")
        g.set(3.0, node=1)
        g.add(-1.0, node=1)
        assert g.value(node=1) == 2.0
        assert g.value(node=2) == 0.0


class TestHistogram:
    def test_observe_count_sum_mean(self):
        h = MetricsRegistry().histogram("lat", buckets=(1, 2, 4))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == 105.0
        assert h.mean() == pytest.approx(26.25)

    def test_quantile_estimates_bucket_bound(self):
        h = MetricsRegistry().histogram("lat", buckets=(1, 2, 4))
        for v in (0.5, 0.6, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1
        assert h.quantile(1.0) == 4

    def test_overflow_bucket_reports_last_finite_bound(self):
        h = MetricsRegistry().histogram("lat", buckets=(1, 2))
        h.observe(50.0)
        assert h.quantile(0.99) == 2

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            MetricsRegistry().histogram("h", buckets=(3, 1))

    def test_count_buckets_exact_for_small_ints(self):
        h = MetricsRegistry().histogram("racks", buckets=COUNT_BUCKETS)
        for d in (1, 2, 2, 3):
            h.observe(d)
        assert h.quantile(0.5) == 2

    def test_observe_n_times_at_once(self):
        one, bulk = MetricsRegistry(), MetricsRegistry()
        for _ in range(3):
            one.histogram("racks", buckets=COUNT_BUCKETS).observe(2, mode="x")
        bulk.histogram("racks", buckets=COUNT_BUCKETS).observe(2, 3, mode="x")
        assert one.snapshot() == bulk.snapshot()


class TestThreads:
    def test_no_update_is_lost_across_threads(self):
        """Stage A counts kernels from its thread while stage B counts
        stripes: every mutator must be atomic."""
        reg = MetricsRegistry()
        threads, rounds = 8, 20000
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                counter, gauge = reg.counter("c"), reg.gauge("g")
                histogram = reg.histogram("h", buckets=COUNT_BUCKETS)
                for _ in range(rounds):
                    counter.inc(kernel="k")
                    gauge.add(1)
                    histogram.observe(1, 2)

            pool = [threading.Thread(target=work) for _ in range(threads)]
            for th in pool:
                th.start()
            for th in pool:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in pool)
        finally:
            sys.setswitchinterval(previous)
        assert reg.counter("c").total == threads * rounds
        assert reg.gauge("g").value() == threads * rounds
        assert reg.histogram("h").count() == 2 * threads * rounds


class TestSnapshotMerge:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3, kind="a")
        reg.gauge("g").set(7.0)
        reg.histogram("h", buckets=(1, 10)).observe(5.0)
        return reg

    def test_snapshot_is_json_ready(self):
        import json

        snap = self._populated().snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["metrics"]["h"]["buckets"][-1] == "inf"
        assert "caches" not in snap

    def test_merge_adds_counters_and_histograms(self):
        merged = MetricsRegistry()
        merged.merge(self._populated().snapshot())
        merged.merge(self._populated().snapshot())
        assert merged.counter("c").value(kind="a") == 6
        assert merged.histogram("h").count() == 2
        assert merged.histogram("h").buckets == (1, 10, math.inf)

    def test_merge_gauge_last_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        merged = MetricsRegistry()
        merged.merge(a).merge(b)
        assert merged.gauge("g").value() == 2.0

    def test_merge_order_independent_for_counters(self):
        regs = []
        for i in range(3):
            r = MetricsRegistry()
            r.counter("c").inc(i + 1)
            regs.append(r.snapshot())
        fwd = MetricsRegistry()
        for s in regs:
            fwd.merge(s)
        rev = MetricsRegistry()
        for s in reversed(regs):
            rev.merge(s)
        assert fwd.snapshot() == rev.snapshot()

    def test_merge_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown kind"):
            MetricsRegistry().merge(
                {"metrics": {"x": {"kind": "bogus", "series": []}}}
            )

    def test_write_json_round_trips(self, tmp_path):
        import json

        reg = self._populated()
        path = reg.write_json(tmp_path / "metrics.json")
        data = json.loads(path.read_text())
        assert data["metrics"]["c"]["series"][0]["value"] == 3
        assert "caches" in data


class TestDisabledRegistry:
    def test_disabled_returns_inert_metrics(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c")
        c.inc(100)
        assert c.value() == 0.0
        assert len(reg) == 0
        assert reg.snapshot() == {"metrics": {}}


class TestTelemetryScope:
    def test_scope_installs_and_restores(self):
        assert current_registry() is None
        reg = MetricsRegistry()
        with telemetry_scope(reg) as installed:
            assert installed is reg
            assert current_registry() is reg
            assert metrics_mod.CURRENT is reg
        assert current_registry() is None

    def test_nested_scopes_restore_outer(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with telemetry_scope(outer):
            with telemetry_scope(inner):
                assert current_registry() is inner
            assert current_registry() is outer

    def test_default_scope_uses_process_default(self):
        with telemetry_scope() as reg:
            assert reg is metrics_mod.default_registry()


class TestCacheRegistration:
    def test_named_cache_appears_in_stats(self):
        cache = BoundedCache(maxsize=2, name="test.cache_stats_demo")
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a" or "b"
        stats = cache_stats()["test.cache_stats_demo"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["hit_rate"] == 0.5

    def test_same_name_aggregates_instances(self):
        a = BoundedCache(maxsize=4, name="test.cache_shared")
        b = BoundedCache(maxsize=4, name="test.cache_shared")
        a.put("x", 1), a.get("x")
        b.put("y", 2), b.get("y")
        stats = cache_stats()["test.cache_shared"]
        assert stats["instances"] == 2
        assert stats["hits"] == 2

    def test_dead_caches_pruned(self):
        cache = BoundedCache(maxsize=2, name="test.cache_transient")
        assert "test.cache_transient" in cache_stats()
        del cache
        assert "test.cache_transient" not in cache_stats()

    def test_unnamed_cache_not_registered(self):
        before = set(cache_stats())
        BoundedCache(maxsize=2)
        assert set(cache_stats()) == before
