"""Resource sampler: lifecycle, restartability, summaries, merging."""

import json

import pytest

from repro.obs import MetricsRegistry, ResourceSampler, current_rss_kib
from repro.obs.profile import profile_scope


class TestCurrentRss:
    def test_positive(self):
        assert current_rss_kib() > 0


class TestSamplerLifecycle:
    def test_start_stop_yields_first_and_last_sample(self):
        sampler = ResourceSampler(interval=10.0)  # no mid-run samples
        sampler.start()
        sampler.stop()
        assert len(sampler.samples) == 2
        for sample in sampler.samples:
            assert sample["type"] == "resource"
            assert sample["rss_kib"] > 0
            assert sample["cpu_seconds"] >= 0
            assert sample["gc_collections"] >= 0

    def test_context_manager(self):
        with ResourceSampler(interval=10.0) as sampler:
            pass
        assert len(sampler.samples) == 2

    def test_restartable_accumulates_across_uses(self):
        # PlanExecutor brackets every execute call with the same sampler.
        sampler = ResourceSampler(interval=10.0)
        with sampler:
            pass
        with sampler:
            pass
        assert len(sampler.samples) == 4

    def test_start_while_running_raises(self):
        sampler = ResourceSampler(interval=10.0)
        sampler.start()
        try:
            with pytest.raises(RuntimeError, match="already running"):
                sampler.start()
        finally:
            sampler.stop()

    def test_stop_idempotent(self):
        sampler = ResourceSampler(interval=10.0)
        sampler.start()
        sampler.stop()
        sampler.stop()
        assert len(sampler.samples) == 2

    def test_invalid_interval(self):
        with pytest.raises(ValueError, match="interval"):
            ResourceSampler(interval=0)

    def test_background_thread_samples(self):
        import time

        with ResourceSampler(interval=0.005) as sampler:
            time.sleep(0.05)
        assert len(sampler.samples) > 2


class TestSummaryAndMerge:
    def test_summary_peak_and_deltas(self):
        sampler = ResourceSampler(interval=10.0)
        with sampler:
            pass
        summary = sampler.summary()
        assert summary["samples"] == 2
        assert summary["peak_rss_kib"] == max(
            s["rss_kib"] for s in sampler.samples
        )
        assert summary["cpu_seconds"] >= 0
        assert summary["duration_seconds"] >= 0

    def test_empty_summary(self):
        assert ResourceSampler(interval=10.0).summary()["samples"] == 0

    def test_merge_into_registry_as_gauges(self):
        sampler = ResourceSampler(interval=10.0)
        with sampler:
            pass
        registry = MetricsRegistry()
        summary = sampler.merge_into(registry)
        snapshot = registry.snapshot()["metrics"]
        assert (
            snapshot["profile.peak_rss_kib"]["series"][0]["value"]
            == summary["peak_rss_kib"]
        )
        assert snapshot["profile.samples"]["series"][0]["value"] == 2
        assert snapshot["profile.peak_rss_kib"]["kind"] == "gauge"

    def test_merge_is_worker_count_invariant(self):
        # Gauges are last-write-wins on merge: folding the same profile
        # snapshot through N registries leaves the same value.
        sampler = ResourceSampler(interval=10.0)
        with sampler:
            pass
        direct = MetricsRegistry()
        sampler.merge_into(direct)
        staged = MetricsRegistry()
        sampler.merge_into(staged)
        merged = MetricsRegistry()
        merged.merge(staged.snapshot(include_caches=False))
        merged.merge(staged.snapshot(include_caches=False))
        assert (
            merged.snapshot()["metrics"]["profile.peak_rss_kib"]
            == direct.snapshot()["metrics"]["profile.peak_rss_kib"]
        )

    def test_write_jsonl(self, tmp_path):
        sampler = ResourceSampler(interval=10.0)
        with sampler:
            pass
        path = sampler.write_jsonl(tmp_path / "profile.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["type"] == "resource"


class TestProfileScope:
    def test_scope_merges_and_persists(self, tmp_path):
        registry = MetricsRegistry()
        path = tmp_path / "profile.jsonl"
        with profile_scope(registry, interval=10.0, path=path) as sampler:
            assert sampler._thread is not None
        assert path.exists()
        assert "profile.peak_rss_kib" in registry.snapshot()["metrics"]


class TestExecutorIntegration:
    def test_executor_profiles_each_call(self):
        from repro.cluster.failure import FailureInjector
        from repro.experiments.configs import build_state
        from repro.experiments import CFS1
        from repro.recovery import (
            CarStrategy,
            PlanExecutor,
            plan_recovery,
            plan_recovery_streaming,
        )

        state = build_state(CFS1, seed=2, with_data=True,
                            chunk_size=64, num_stripes=12)
        event = FailureInjector(rng=2).fail_random_node(state)
        solution = CarStrategy().solve(state)
        # The caller brackets each call; the executor knows no sampler.
        sampler = ResourceSampler(interval=10.0)
        executor = PlanExecutor(state)
        plan = plan_recovery(state, event, solution)
        with sampler:
            result = executor.execute(plan, solution)
        assert result.verified
        assert len(sampler.samples) == 2
        # Same executor, second call: sampler restarts and accumulates.
        splan = plan_recovery_streaming(state, event, solution)
        with sampler:
            result = executor.execute_streaming(splan, window=4)
        assert result.verified
        assert len(sampler.samples) == 4
