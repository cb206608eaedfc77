"""Trace/metrics text rendering: robustness to sparse or odd inputs."""

from repro.obs import render_metrics, render_trace


class TestRenderTraceRobustness:
    def test_empty_trace_renders_summary_line(self):
        out = render_trace([])
        assert "0 records" in out
        assert "0 spans" in out
        assert "0 stripes" in out

    def test_records_without_attrs_key(self):
        events = [
            {"type": "span", "name": "exec.stream.ship", "span_id": 1,
             "parent_id": None, "start": 0.0, "end": 1.0},
            {"type": "span", "name": "exec.stream.ship", "span_id": 2,
             "parent_id": None, "start": 1.0, "end": 2.0,
             "attrs": {"stripes": 2, "disk_read_checkpoints": 8}},
            {"type": "event", "name": "fault.crash", "span_id": 1,
             "time": 0.5},
        ]
        out = render_trace(events)
        assert "2 spans" in out
        assert "exec.stream.ship" in out
        # The attr-less ship span counts as a window and adds nothing.
        assert "Pipeline stages (2 windows, 2 stripes shipped)" in out
        assert "disk_read  8" in out

    def test_non_dict_attrs_tolerated(self):
        events = [
            {"type": "span", "name": "sim.stripe", "span_id": 1,
             "parent_id": None, "start": 0.0, "end": 2.0, "attrs": None},
            {"type": "span", "name": "sim.stripe", "span_id": 2,
             "parent_id": None, "start": 0.0, "end": 1.0,
             "attrs": "corrupted"},
            {"type": "event", "name": "exec.stage", "span_id": 1,
             "time": 0.5, "attrs": 17},
        ]
        out = render_trace(events)
        # sim.stripe spans with unusable attrs contribute zero to the
        # simulated-time breakdown instead of crashing.
        assert "Simulated time breakdown (2 stripes)" in out
        assert "sim.stripe" in out

    def test_mixed_good_and_bad_attrs_sum_only_good(self):
        events = [
            {"type": "span", "name": "sim.stripe", "span_id": 1,
             "parent_id": None, "start": 0.0, "end": 1.0,
             "attrs": {"read_s": 2.0, "stripe_id": 0}},
            {"type": "span", "name": "sim.stripe", "span_id": 2,
             "parent_id": None, "start": 0.0, "end": 1.0, "attrs": None},
        ]
        out = render_trace(events)
        assert "read" in out
        assert "2.000000" in out

    def test_fault_events_tallied(self):
        events = [
            {"type": "event", "name": "fault.crash", "span_id": 1,
             "time": 0.1, "attrs": {}},
            {"type": "event", "name": "fault.crash", "span_id": 1,
             "time": 0.2, "attrs": {}},
            {"type": "event", "name": "action.retry", "span_id": 1,
             "time": 0.3, "attrs": {}},
        ]
        out = render_trace(events)
        assert "Faults & responses" in out
        assert "fault.crash" in out


class TestRenderMetrics:
    def test_empty_snapshot(self):
        assert render_metrics({}) == "No metrics recorded."

    def test_counters_and_gauges_tables(self):
        snapshot = {
            "metrics": {
                "exec.stripes": {
                    "kind": "counter",
                    "series": [
                        {"labels": {"mode": "aggregated"}, "value": 12.0}
                    ],
                },
                "profile.peak_rss_kib": {
                    "kind": "gauge",
                    "series": [{"labels": {}, "value": 51200.0}],
                },
            }
        }
        out = render_metrics(snapshot)
        assert "Counters" in out
        assert "mode=aggregated" in out
        assert "Gauges" in out
        assert "profile.peak_rss_kib" in out

    def test_named_cache_table(self):
        snapshot = {
            "metrics": {},
            "caches": {
                "exec.repair_groups": {
                    "instances": 1,
                    "hits": 90,
                    "misses": 10,
                    "hit_rate": 0.9,
                    "entries": 10,
                    "max_entries": 4096,
                    "evictions": 0,
                }
            },
        }
        out = render_metrics(snapshot)
        assert "Caches" in out
        assert "exec.repair_groups" in out
        assert "90.0%" in out
        assert "10/4096" in out
