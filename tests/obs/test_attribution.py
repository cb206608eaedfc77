"""Bottleneck attribution: stage partition, slowest stripes, critical path."""

import pytest

from repro.obs import Tracer, attribute, render_attribution, stage_of


class FakeClock:
    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestStageOf:
    @pytest.mark.parametrize(
        "name, stage",
        [
            ("solve", "plan"),
            ("plan.window", "plan"),
            ("exec.stream.aggregate", "aggregate"),
            ("exec.stream.ship", "ship"),
            ("journal.append", "journal"),
            ("verify.chunk", "verify"),
            ("scrub.pass", "verify"),
            ("exec.stripe", "execute"),
            ("sim.stripe", "simulate"),
            ("run", "run"),
            ("mystery", "other"),
        ],
    )
    def test_prefix_rules(self, name, stage):
        assert stage_of(name) == stage


class TestAttributePartition:
    def test_stage_totals_equal_raw_exclusive_span_sum(self):
        """The acceptance criterion: the report's per-stage totals are
        exactly the raw spans' exclusive-time sum, no double counting."""
        t = Tracer(clock=FakeClock())
        with t.span("run"):
            with t.span("solve", strategy="car"):
                pass
            with t.span("exec.stripe", stripe_id=0):
                pass
        att = attribute(t.events)
        spans = [e for e in t.events if e["type"] == "span"]
        inclusive = {s["span_id"]: s["end"] - s["start"] for s in spans}
        child = {}
        for s in spans:
            if s["parent_id"] is not None:
                child[s["parent_id"]] = (
                    child.get(s["parent_id"], 0.0) + inclusive[s["span_id"]]
                )
        raw_exclusive = sum(
            inclusive[s["span_id"]] - child.get(s["span_id"], 0.0)
            for s in spans
        )
        stage_sum = sum(b.seconds for b in att.stages.values())
        assert stage_sum == pytest.approx(att.total_span_seconds)
        assert stage_sum == pytest.approx(raw_exclusive)
        # Exclusive partition: total equals the root span's duration.
        root = next(s for s in spans if s["parent_id"] is None)
        assert stage_sum == pytest.approx(root["end"] - root["start"])

    def test_byte_attrs_summed_per_stage(self):
        t = Tracer(clock=FakeClock())
        t.emit_span("exec.stream.ship", 0.0, 1.0,
                    cross_rack_bytes=4096, intra_rack_bytes=1024, stripes=8)
        t.emit_span("exec.stream.ship", 1.0, 2.0, cross_rack_bytes=100)
        att = attribute(t.events)
        assert att.stages["ship"].bytes == 4096 + 1024 + 100
        assert att.stages["ship"].spans == 2

    def test_events_counted_not_timed(self):
        t = Tracer(clock=FakeClock())
        with t.span("exec.stripe", stripe_id=0):
            t.event("exec.stage", stage="disk_read")
            t.event("exec.stage", stage="final_combine")
        att = attribute(t.events)
        assert att.stages["execute"].events == 2
        assert att.stages["execute"].spans == 1

    def test_run_tagged_streams_do_not_collide(self):
        # Two runs re-use span_id 1; (run, span_id) keys keep them apart.
        events = []
        for run in range(2):
            t = Tracer(clock=FakeClock())
            with t.span("exec.stripe", stripe_id=run):
                pass
            events.extend({**e, "run": run} for e in t.events)
        att = attribute(events)
        assert att.stages["execute"].spans == 2
        assert att.total_span_seconds == pytest.approx(2.0)

    def test_empty_trace(self):
        att = attribute([])
        assert att.stages == {}
        assert att.total_span_seconds == 0.0
        assert "nothing to attribute" in render_attribution(att)

    def test_malformed_records_skipped(self):
        events = [
            {"type": "span", "name": "exec.stripe", "span_id": 1,
             "parent_id": None, "start": 0.0, "end": 1.0, "attrs": None},
            {"type": "span", "name": "broken", "span_id": 2,
             "parent_id": None, "start": None, "end": 1.0},
            {"type": "event", "name": "exec.stage"},
        ]
        att = attribute(events)
        assert att.stages["execute"].spans == 1
        assert att.stages["execute"].events == 1


class TestRankingAndCriticalPath:
    def test_top_k_slowest_stripes(self):
        """The executor's entries are its windows, ranked by ship time;
        they win over the simulator's stripes."""
        t = Tracer(clock=FakeClock())
        durations = {0: 1.0, 1: 5.0, 2: 3.0, 3: 2.0}
        start = 0.0
        for window, dur in durations.items():
            t.emit_span("exec.stream.ship", start, start + dur, window=window)
            start += dur
        t.emit_span("sim.stripe", 0.0, 9.0, stripe_id=4)
        att = attribute(t.events, top_k=2)
        assert att.slowest_span == "exec.stream.ship"
        assert att.slowest == [(1, 5.0), (2, 3.0)]
        assert "Slowest exec.stream.ship spans" in render_attribution(att)

    def test_sim_stripes_used_when_no_exec(self):
        t = Tracer(clock=FakeClock())
        t.emit_span("sim.stripe", 0.0, 2.0, stripe_id=7)
        att = attribute(t.events)
        assert att.slowest_span == "sim.stripe"
        assert att.slowest == [(7, 2.0)]

    def test_critical_path_follows_largest_children(self):
        t = Tracer(clock=FakeClock(step=0.0))  # manual spans only
        t.emit_span("run", 0.0, 10.0)
        run_id = t.events[-1]["span_id"]
        t.emit_span("solve", 0.0, 2.0, parent_id=run_id)
        t.emit_span("exec.stripe", 2.0, 9.0, parent_id=run_id)
        att = attribute(t.events)
        names = [name for name, _ in att.critical_path]
        assert names[0] == "run"
        assert names[1] == "exec.stripe"
        assert att.critical_path_seconds == pytest.approx(10.0)


class TestOverlap:
    def test_stage_a_overlap_labels_the_excess(self):
        tracer = Tracer()
        for thread in (0, 1):
            tracer.emit_span(
                "exec.stream.aggregate", 0.0, 2.0, window=thread,
                thread=thread,
            )
        tracer.emit_span("exec.stream.ship", 2.0, 3.0, window=0)
        att = attribute(tracer.events)
        assert att.total_span_seconds == pytest.approx(5.0)
        assert att.wall_seconds == pytest.approx(3.0)
        out = render_attribution(att)
        assert "excess is stage-A overlap" in out

    def test_no_label_without_excess(self):
        tracer = Tracer()
        tracer.emit_span("exec.stream.aggregate", 0.0, 1.0, window=0)
        tracer.emit_span("exec.stream.ship", 1.0, 2.0, window=0)
        assert "excess" not in render_attribution(attribute(tracer.events))


class TestEndToEndStreamingRun:
    def test_streaming_trace_attributes_cleanly(self):
        from repro.cluster.failure import FailureInjector
        from repro.experiments.configs import build_state
        from repro.experiments import CFS1
        from repro.recovery import (
            CarStrategy,
            PlanExecutor,
            plan_recovery_streaming,
        )

        state = build_state(CFS1, seed=5, with_data=True,
                            chunk_size=64, num_stripes=24)
        event = FailureInjector(rng=5).fail_random_node(state)
        solution = CarStrategy().solve(state)
        plan = plan_recovery_streaming(state, event, solution)
        tracer = Tracer()
        PlanExecutor(state, tracer).execute_streaming(plan, window=8)
        att = attribute(tracer.events)
        for stage in ("aggregate", "ship"):
            assert stage in att.stages, stage
        # Two spans a window and nothing per stripe.
        assert set(att.stages) == {"aggregate", "ship"}
        assert att.stages["ship"].bytes > 0
        assert sum(b.seconds for b in att.stages.values()) == pytest.approx(
            att.total_span_seconds
        )
        out = render_attribution(att)
        assert "Per-stage breakdown" in out
        assert "Slowest exec.stream.ship spans" in out
        assert att.slowest_span == "exec.stream.ship"
