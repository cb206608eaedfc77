"""Chrome-trace and collapsed-stack export: lanes, schema, self time."""

import json

import pytest

from repro.obs import (
    Tracer,
    read_jsonl,
    to_chrome_trace,
    to_collapsed_stacks,
    validate_chrome_trace,
    write_chrome_trace,
    write_collapsed_stacks,
)
from repro.obs.attribution import attribute
from repro.obs.export import COORDINATOR_TID


class FakeClock:
    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def recorded_events():
    t = Tracer(clock=FakeClock())
    with t.span("run", run_index=0):
        with t.span("exec.stripe", stripe_id=3, rack=1):
            t.event("exec.stage", stage="disk_read", rack=1, node=4)
        with t.span("exec.stream.ship", cross_rack_bytes=4096):
            pass
    return list(t.events)


class TestChromeTrace:
    def test_export_validates(self):
        payload = to_chrome_trace(recorded_events())
        assert validate_chrome_trace(payload) > 0
        assert payload["displayTimeUnit"] == "ms"

    def test_span_becomes_complete_event(self):
        payload = to_chrome_trace(recorded_events())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"run", "exec.stripe", "exec.stream.ship"} <= names
        for e in complete:
            assert e["dur"] >= 0
            assert isinstance(e["ts"], int)

    def test_instant_event_exported(self):
        payload = to_chrome_trace(recorded_events())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["exec.stage"]

    def test_rack_maps_to_tid_and_run_to_pid(self):
        events = recorded_events()
        tagged = [{**e, "run": 2} for e in events]
        payload = to_chrome_trace(tagged)
        stripe = next(
            e for e in payload["traceEvents"] if e["name"] == "exec.stripe"
        )
        assert stripe["pid"] == 2
        assert stripe["tid"] == 2  # rack 1 -> tid 2 (0 is the coordinator)
        run = next(e for e in payload["traceEvents"] if e["name"] == "run")
        assert run["tid"] == COORDINATOR_TID

    def test_lane_metadata_names_racks(self):
        payload = to_chrome_trace(recorded_events())
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        labels = {e["args"]["name"] for e in meta}
        assert "run 0" in labels
        assert "coordinator" in labels
        assert "rack 1" in labels

    def test_timestamps_rebased_to_zero(self):
        payload = to_chrome_trace(recorded_events())
        timed = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert min(e["ts"] for e in timed) == 0

    def test_write_roundtrip(self, tmp_path):
        path = write_chrome_trace(recorded_events(), tmp_path / "t.json")
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) > 0

    def test_empty_trace_exports_empty_object(self):
        payload = to_chrome_trace([])
        assert payload["traceEvents"] == []
        assert validate_chrome_trace(payload) == 0


class TestValidateChromeTrace:
    def test_bare_array_form_accepted(self):
        events = to_chrome_trace(recorded_events())["traceEvents"]
        assert validate_chrome_trace(events) == len(events)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (42, "object or array"),
            ({"traceEvents": "nope"}, "traceEvents must be a list"),
            ({"traceEvents": ["nope"]}, "not an object"),
            ({"traceEvents": [{"ph": "Q", "name": "x", "pid": 0,
                               "tid": 0, "ts": 0}]}, "unknown phase"),
            ({"traceEvents": [{"ph": "X", "name": "", "pid": 0,
                               "tid": 0, "ts": 0, "dur": 1}]}, "name"),
            ({"traceEvents": [{"ph": "X", "name": "x", "pid": "0",
                               "tid": 0, "ts": 0, "dur": 1}]}, "pid"),
            ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0,
                               "tid": 0, "dur": 1}]}, "ts"),
            ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0,
                               "tid": 0, "ts": 0, "dur": -1}]}, "dur"),
            ({"traceEvents": [{"ph": "i", "name": "x", "pid": 0,
                               "tid": 0, "ts": 0, "args": 3}]}, "args"),
        ],
    )
    def test_schema_violations_named(self, payload, message):
        with pytest.raises(ValueError, match=message):
            validate_chrome_trace(payload)


class TestCollapsedStacks:
    def test_stack_chains_and_exclusive_weights(self):
        t = Tracer(clock=FakeClock())
        with t.span("outer"):       # 1..4: 3s total, 2s exclusive
            with t.span("inner"):   # 2..3: 1s, all exclusive
                pass
        lines = to_collapsed_stacks(t.events)
        weights = dict(
            (name, int(w)) for name, w in (l.rsplit(" ", 1) for l in lines)
        )
        assert weights["outer;inner"] == 1_000_000
        assert weights["outer"] == 2_000_000

    def test_run_restarted_span_ids_do_not_cycle(self):
        # Two concatenated runs re-use span_id 1; folding must not loop.
        events = []
        for run in range(2):
            t = Tracer(clock=FakeClock())
            with t.span("root"):
                pass
            events.extend({**e, "run": run} for e in t.events)
        lines = to_collapsed_stacks(events)
        assert any(line.startswith("root ") for line in lines)

    def test_run_tagged_trace_folds_every_run(self):
        """Two runs whose span ids both start at 1 fold to the sum of
        their own folds, and the folded total is what attribution
        counts."""

        def run(index, length, child):
            return [
                {"type": "span", "name": "run", "span_id": 1,
                 "parent_id": None, "start": 0.0, "end": length,
                 "run": index},
                {"type": "span", "name": "solve", "span_id": 2,
                 "parent_id": 1, "start": 1.0, "end": 1.0 + child,
                 "run": index},
            ]

        def folded(events):
            return {
                name: int(w)
                for name, w in (l.rsplit(" ", 1) for l in to_collapsed_stacks(events))
            }

        first, second = run(0, 10.0, 3.0), run(1, 20.0, 6.0)
        both = folded(first + second)
        assert both == {
            name: folded(first).get(name, 0) + folded(second).get(name, 0)
            for name in both
        }
        assert both == {"run": 21_000_000, "run;solve": 9_000_000}
        total = attribute(first + second).total_span_seconds
        assert sum(both.values()) == round(total * 1_000_000)

    def test_write_one_line_per_stack(self, tmp_path):
        path = write_collapsed_stacks(recorded_events(), tmp_path / "f.folded")
        lines = path.read_text().strip().splitlines()
        assert all(" " in line for line in lines)
        assert any("run;exec.stripe" in line for line in lines)


class TestEndToEnd:
    def test_persisted_trace_exports_and_validates(self, tmp_path):
        t = Tracer()
        with t.span("run", run_index=0):
            with t.span("solve", strategy="car"):
                pass
        src = t.write_jsonl(tmp_path / "trace.jsonl")
        events = read_jsonl(src)
        payload = to_chrome_trace(events)
        assert validate_chrome_trace(payload) == len(payload["traceEvents"])
