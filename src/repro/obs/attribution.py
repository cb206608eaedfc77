"""Bottleneck attribution: where a recorded recovery actually spent time.

Aggregates a JSONL trace (raw records or the run-tagged stream the
experiment runner persists) into the summary the ``repro-car report``
subcommand prints:

- **per-stage breakdown** — every span's *exclusive* (self) time and
  byte attrs folded into named pipeline stages (plan / aggregate /
  ship / journal / verify / execute / simulate).  Self time, not
  inclusive, so the stage totals partition the trace: their sum equals
  the raw sum of span durations minus parent/child double counting,
  and the report's totals are reproducible from the spans by hand;
- **top-k slowest stripes** — the ``exec.stripe`` (or, for simulator
  traces, ``sim.stripe``) spans with the largest durations;
- **critical-path estimate** — the longest root span and the chain of
  largest children inside it, the lower bound on wall time any
  concurrency tuning has to beat.

Everything is pure computation over the event list; nothing here
touches the tracer hot path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs.report import _seconds, format_table

__all__ = [
    "StageBreakdown",
    "TraceAttribution",
    "stage_of",
    "attribute",
    "render_attribution",
]

#: Ordered (stage, name-prefixes) rules; first match wins.  ``exec.``
#: must come after the more specific stream-stage rules.
_STAGE_RULES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("plan", ("solve", "plan")),
    ("aggregate", ("exec.stream.aggregate",)),
    ("ship", ("exec.stream.ship",)),
    ("journal", ("journal",)),
    ("verify", ("verify", "scrub", "integrity")),
    ("execute", ("exec",)),
    ("simulate", ("sim",)),
    ("run", ("run",)),
)

#: Span-attr keys summed into a stage's byte totals.
_BYTE_SUFFIX = "_bytes"


def stage_of(name: str) -> str:
    """The pipeline stage a span/event name is attributed to."""
    for stage, prefixes in _STAGE_RULES:
        if name.startswith(prefixes):
            return stage
    return "other"


@dataclass
class StageBreakdown:
    """One stage's share of a trace."""

    seconds: float = 0.0
    bytes: int = 0
    spans: int = 0
    events: int = 0


@dataclass
class TraceAttribution:
    """Everything ``repro-car report`` renders about one trace.

    Attributes:
        stages: stage name -> :class:`StageBreakdown` (exclusive time).
        total_span_seconds: sum of every span's exclusive time — equal
            to the sum over ``stages`` by construction.
        wall_seconds: latest span end minus earliest span start.
        slowest_stripes: ``(stripe_id, seconds)`` sorted descending.
        stripe_span_name: which span family the stripe ranking used
            (``exec.stripe`` or ``sim.stripe``; empty when neither).
        critical_path: root-to-leaf ``(name, seconds)`` chain of
            largest children inside the longest root span.
    """

    stages: dict[str, StageBreakdown] = field(default_factory=dict)
    total_span_seconds: float = 0.0
    wall_seconds: float = 0.0
    slowest_stripes: list[tuple[int, float]] = field(default_factory=list)
    stripe_span_name: str = ""
    critical_path: list[tuple[str, float]] = field(default_factory=list)

    @property
    def critical_path_seconds(self) -> float:
        """Duration of the critical path's root span (0 when empty)."""
        return self.critical_path[0][1] if self.critical_path else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (for artifacts and tests)."""
        return {
            "stages": {
                name: {
                    "seconds": b.seconds,
                    "bytes": b.bytes,
                    "spans": b.spans,
                    "events": b.events,
                }
                for name, b in sorted(self.stages.items())
            },
            "total_span_seconds": self.total_span_seconds,
            "wall_seconds": self.wall_seconds,
            "slowest_stripes": [list(t) for t in self.slowest_stripes],
            "stripe_span_name": self.stripe_span_name,
            "critical_path": [list(t) for t in self.critical_path],
            "critical_path_seconds": self.critical_path_seconds,
        }


def _span_bytes(attrs) -> int:
    if not isinstance(attrs, dict):
        return 0
    return sum(
        int(v)
        for k, v in attrs.items()
        if k.endswith(_BYTE_SUFFIX) and isinstance(v, (int, float))
    )


def attribute(events: list[dict], top_k: int = 5) -> TraceAttribution:
    """Aggregate a trace into a :class:`TraceAttribution`.

    Args:
        events: records loaded by :func:`~repro.obs.tracer.read_jsonl`.
        top_k: stripes to keep in the slowest-stripe ranking.
    """
    spans = [
        e
        for e in events
        if e.get("type") == "span"
        and isinstance(e.get("start"), (int, float))
        and isinstance(e.get("end"), (int, float))
    ]
    att = TraceAttribution()
    # Spans are unique per (run, span_id): the runner concatenates
    # per-run streams whose ids restart from 1.
    def key(s):
        return (s.get("run", 0), s["span_id"])

    by_id = {key(s): s for s in spans if isinstance(s.get("span_id"), int)}
    child_time: dict[tuple, float] = defaultdict(float)
    children: dict[tuple, list[dict]] = defaultdict(list)
    for s in spans:
        parent = (s.get("run", 0), s.get("parent_id"))
        if parent in by_id:
            child_time[parent] += s["end"] - s["start"]
            children[parent].append(s)
    for s in spans:
        duration = s["end"] - s["start"]
        self_time = max(0.0, duration - child_time.get(key(s), 0.0))
        stage = att.stages.setdefault(stage_of(str(s["name"])), StageBreakdown())
        stage.seconds += self_time
        stage.bytes += _span_bytes(s.get("attrs"))
        stage.spans += 1
        att.total_span_seconds += self_time
    for e in events:
        if e.get("type") == "event":
            stage = att.stages.setdefault(
                stage_of(str(e.get("name", ""))), StageBreakdown()
            )
            stage.events += 1
    if spans:
        att.wall_seconds = max(s["end"] for s in spans) - min(
            s["start"] for s in spans
        )
    # Slowest stripes: prefer real-time executor spans, fall back to
    # the simulator's sim-time spans.
    for name in ("exec.stripe", "sim.stripe"):
        stripe_spans = [
            s
            for s in spans
            if s["name"] == name
            and isinstance(s.get("attrs"), dict)
            and "stripe_id" in s["attrs"]
        ]
        if stripe_spans:
            ranked = sorted(
                (
                    (s["attrs"]["stripe_id"], s["end"] - s["start"])
                    for s in stripe_spans
                ),
                key=lambda t: (-t[1], t[0]),
            )
            att.slowest_stripes = ranked[:top_k]
            att.stripe_span_name = name
            break
    # Critical path: longest root span, then its largest child, and so
    # on down — the chain any latency optimisation must shorten.
    roots = [s for s in spans if (s.get("run", 0), s.get("parent_id")) not in by_id]
    if roots:
        node = max(roots, key=lambda s: s["end"] - s["start"])
        seen: set[tuple] = set()
        while node is not None and key(node) not in seen:
            seen.add(key(node))
            att.critical_path.append(
                (str(node["name"]), node["end"] - node["start"])
            )
            kids = children.get(key(node))
            node = max(kids, key=lambda s: s["end"] - s["start"]) if kids else None
    return att


def render_attribution(att: TraceAttribution) -> str:
    """Render an attribution as the ``repro-car report`` text."""
    if not att.stages:
        return "No spans recorded — nothing to attribute."
    parts = []
    total = att.total_span_seconds
    rows = [
        [
            name,
            str(b.spans),
            str(b.events),
            _seconds(b.seconds),
            f"{(b.seconds / total if total else 0.0):.1%}",
            str(b.bytes),
        ]
        for name, b in sorted(
            att.stages.items(), key=lambda kv: -kv[1].seconds
        )
    ]
    parts.append(
        "Per-stage breakdown (exclusive span time)\n"
        + format_table(
            ["stage", "spans", "events", "self_s", "share", "bytes"], rows
        )
    )
    parts.append(
        f"Totals: span self-time {_seconds(total)} s over wall "
        f"{_seconds(att.wall_seconds)} s"
    )
    if att.slowest_stripes:
        rows = [
            [str(stripe_id), _seconds(seconds)]
            for stripe_id, seconds in att.slowest_stripes
        ]
        parts.append(
            f"Slowest stripes ({att.stripe_span_name})\n"
            + format_table(["stripe", "seconds"], rows)
        )
    if att.critical_path:
        rows = [
            [" > " * depth + name, _seconds(seconds)]
            for depth, (name, seconds) in enumerate(att.critical_path)
        ]
        parts.append(
            f"Critical path ({_seconds(att.critical_path_seconds)} s)\n"
            + format_table(["span", "seconds"], rows)
        )
    return "\n\n".join(parts)
