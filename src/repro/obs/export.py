"""Export recorded traces to standard profiling formats.

Two converters over the JSONL event stream a
:class:`~repro.obs.tracer.Tracer` records (and
:meth:`~repro.experiments.runner.ExperimentRunner.run_all` persists):

- :func:`to_chrome_trace` — Chrome Trace Event Format JSON, loadable
  in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
  Every span becomes a complete (``"ph": "X"``) event and every point
  event an instant (``"ph": "i"``) event.  Process/thread lanes carry
  the cluster structure: the *pid* is the run index (the experiment
  runner tags each record with ``"run"``; untagged records are run 0)
  and the *tid* is the rack the record's ``attrs`` name — so a
  streaming recovery renders as one swimlane per rack plus a
  coordinator lane for rackless spans (windows, solves).
- :func:`to_collapsed_stacks` — the collapsed/folded stack format
  flamegraph tooling consumes (``a;b;c <microseconds>`` per line),
  built from span parent chains with *exclusive* (self) time as the
  sample weight.

Timestamps are rebased so the earliest record sits at zero and scaled
to integer microseconds (the Trace Event unit).  Simulated-time spans
export on the same axis — a sim trace becomes a sim-seconds timeline.

:func:`validate_chrome_trace` schema-checks an export the same way
:func:`~repro.obs.tracer.validate_events` checks the raw stream;
``tools/validate_trace.py`` runs both in CI.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

__all__ = [
    "to_chrome_trace",
    "to_collapsed_stacks",
    "write_chrome_trace",
    "write_collapsed_stacks",
    "validate_chrome_trace",
    "COORDINATOR_TID",
]

#: Thread lane for records whose attrs name no rack (solves, windows,
#: session bookkeeping) — rendered as the coordinator swimlane.
COORDINATOR_TID = 0

#: Event phases an export may contain (complete, instant, metadata).
_PHASES = frozenset({"X", "i", "M"})


def _micros(seconds: float, origin: float) -> int:
    return round((seconds - origin) * 1_000_000)


def _lane(record: dict) -> tuple[int, int]:
    """(pid, tid) for one record: run index x rack (coordinator = 0)."""
    pid = record.get("run", 0)
    attrs = record.get("attrs")
    rack = attrs.get("rack") if isinstance(attrs, dict) else None
    tid = rack + 1 if isinstance(rack, int) else COORDINATOR_TID
    return pid, tid


def _origin(events: list[dict]) -> float:
    starts = [
        e["start"] if e.get("type") == "span" else e["time"]
        for e in events
        if isinstance(e.get("start" if e.get("type") == "span" else "time"),
                      (int, float))
    ]
    return min(starts) if starts else 0.0


def to_chrome_trace(events: list[dict]) -> dict:
    """Convert a JSONL trace to a Trace Event Format object.

    Args:
        events: records as loaded by :func:`~repro.obs.tracer.read_jsonl`
            (optionally run-tagged by the experiment runner).

    Returns:
        A JSON-ready dict with ``traceEvents`` (metadata + spans +
        instants, in timestamp order) and ``displayTimeUnit``.
    """
    origin = _origin(events)
    out: list[dict] = []
    lanes: set[tuple[int, int]] = set()
    for record in events:
        rtype = record.get("type")
        attrs = record.get("attrs")
        args = dict(attrs) if isinstance(attrs, dict) else {}
        pid, tid = _lane(record)
        lanes.add((pid, tid))
        if rtype == "span":
            args["span_id"] = record.get("span_id")
            if record.get("parent_id") is not None:
                args["parent_id"] = record["parent_id"]
            out.append(
                {
                    "name": record["name"],
                    "cat": "span",
                    "ph": "X",
                    "ts": _micros(record["start"], origin),
                    "dur": max(0, _micros(record["end"], origin)
                               - _micros(record["start"], origin)),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        elif rtype == "event":
            out.append(
                {
                    "name": record["name"],
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": _micros(record["time"], origin),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    out.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    meta: list[dict] = []
    for pid in sorted({pid for pid, _ in lanes}):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": COORDINATOR_TID,
                "args": {"name": f"run {pid}"},
            }
        )
    for pid, tid in sorted(lanes):
        label = "coordinator" if tid == COORDINATOR_TID else f"rack {tid - 1}"
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def span_key(span: dict) -> tuple:
    """A span's identity in a trace: ``(run, span_id)``.  The experiment
    runner concatenates per-run streams whose ids restart from 1."""
    return (span.get("run", 0), span.get("span_id"))


def exclusive_times(
    spans: list[dict],
) -> tuple[dict[tuple, dict], dict[tuple, list[dict]], list[float]]:
    """The span tree of ``spans`` and each span's exclusive seconds.

    Returns:
        ``(by_key, children, exclusive)``: the spans with an integer id
        by :func:`span_key`; each key's direct children; and, in the
        order of ``spans``, each span's duration minus its direct
        children's, floored at zero.
    """
    by_key = {
        span_key(s): s for s in spans if isinstance(s.get("span_id"), int)
    }
    children: dict[tuple, list[dict]] = defaultdict(list)
    for s in spans:
        parent = (s.get("run", 0), s.get("parent_id"))
        if parent in by_key:
            children[parent].append(s)
    exclusive = [
        max(0.0, (s["end"] - s["start"]) - sum(
            c["end"] - c["start"] for c in children.get(span_key(s), ())
        ))
        for s in spans
    ]
    return by_key, children, exclusive


def to_collapsed_stacks(events: list[dict]) -> list[str]:
    """Fold span parent chains into collapsed-stack lines.

    Each span contributes its *exclusive* time (duration minus the
    duration of its direct children, :func:`exclusive_times`) to the
    stack named by its root-to-span name chain, in its own run; equal
    stacks aggregate across runs.  Lines are sorted for determinism;
    weights are integer microseconds (zero-weight stacks are kept so
    every span name appears).
    """
    spans = [
        e for e in events
        if e.get("type") == "span" and isinstance(e.get("span_id"), int)
    ]
    by_key, _, exclusive = exclusive_times(spans)

    def stack(span: dict) -> str:
        names: list[str] = []
        seen: set[tuple] = set()
        node: dict | None = span
        while node is not None and span_key(node) not in seen:
            seen.add(span_key(node))
            names.append(str(node["name"]))
            node = by_key.get((node.get("run", 0), node.get("parent_id")))
        return ";".join(reversed(names))

    weights: dict[str, int] = defaultdict(int)
    for s, self_time in zip(spans, exclusive):
        weights[stack(s)] += round(self_time * 1_000_000)
    return [f"{name} {weight}" for name, weight in sorted(weights.items())]


def write_chrome_trace(events: list[dict], path: str | Path) -> Path:
    """Write :func:`to_chrome_trace` output as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(to_chrome_trace(events), sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def write_collapsed_stacks(events: list[dict], path: str | Path) -> Path:
    """Write :func:`to_collapsed_stacks` output, one stack per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "\n".join(to_collapsed_stacks(events)) + "\n", encoding="utf-8"
    )
    return path


def _fail(index: int, message: str) -> None:
    raise ValueError(f"trace event {index}: {message}")


def validate_chrome_trace(payload: dict | list) -> int:
    """Validate an exported Chrome trace object.

    Accepts either the object form (``{"traceEvents": [...]}``) or the
    bare array form the Trace Event spec also allows.

    Returns:
        The number of events checked.

    Raises:
        ValueError: naming the first offending event and why.
    """
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("traceEvents must be a list")
    elif isinstance(payload, list):
        events = payload
    else:
        raise ValueError(
            f"chrome trace must be an object or array, "
            f"got {type(payload).__name__}"
        )
    count = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            _fail(i, f"not an object: {type(event).__name__}")
        phase = event.get("ph")
        if phase not in _PHASES:
            _fail(i, f"unknown phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            _fail(i, "name must be a non-empty string")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                _fail(i, f"{key} must be an int")
        if phase != "M":
            if not isinstance(event.get("ts"), (int, float)):
                _fail(i, "ts must be a number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(i, f"complete event needs dur >= 0, got {dur!r}")
        if "args" in event and not isinstance(event["args"], dict):
            _fail(i, "args must be an object")
        count += 1
    return count
