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
- **top-k slowest entries** — the executor's windows
  (``exec.stream.ship``, by ``window``) or, for simulator traces, the
  stripes (``sim.stripe``, by ``stripe_id``) with the largest
  durations;
- **critical-path estimate** — the longest root span and the chain of
  largest children inside it, the lower bound on wall time any
  concurrency tuning has to beat.

Everything is pure computation over the event list; nothing here
touches the tracer hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.export import exclusive_times, span_key
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

#: The span families :func:`attribute` ranks, in order of preference,
#: each with the attr naming an entry.
_RANKED = {"exec.stream.ship": "window", "sim.stripe": "stripe_id"}


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
        slowest: ``(id, seconds)`` sorted descending, the id being the
            ranked span's ``window`` or ``stripe_id``.
        slowest_span: which span family the ranking used
            (``exec.stream.ship`` or ``sim.stripe``; empty when
            neither).
        critical_path: root-to-leaf ``(name, seconds)`` chain of
            largest children inside the longest root span.
    """

    stages: dict[str, StageBreakdown] = field(default_factory=dict)
    total_span_seconds: float = 0.0
    wall_seconds: float = 0.0
    slowest: list[tuple[int, float]] = field(default_factory=list)
    slowest_span: str = ""
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
            "slowest": [list(t) for t in self.slowest],
            "slowest_span": self.slowest_span,
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
        top_k: entries to keep in the slowest-entry ranking.
    """
    spans = [
        e
        for e in events
        if e.get("type") == "span"
        and isinstance(e.get("start"), (int, float))
        and isinstance(e.get("end"), (int, float))
    ]
    att = TraceAttribution()
    by_id, children, exclusive = exclusive_times(spans)
    for s, self_time in zip(spans, exclusive):
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
    # Slowest entries: prefer the executor's real-time windows, fall
    # back to the simulator's sim-time stripes.
    for name, key in _RANKED.items():
        ranked = sorted(
            (
                (s["attrs"][key], s["end"] - s["start"])
                for s in spans
                if s["name"] == name
                and isinstance(s.get("attrs"), dict)
                and key in s["attrs"]
            ),
            key=lambda t: (-t[1], t[0]),
        )
        if ranked:
            att.slowest = ranked[:top_k]
            att.slowest_span = name
            break
    # Critical path: longest root span, then its largest child, and so
    # on down — the chain any latency optimisation must shorten.
    roots = [s for s in spans if (s.get("run", 0), s.get("parent_id")) not in by_id]
    if roots:
        node = max(roots, key=lambda s: s["end"] - s["start"])
        seen: set[tuple] = set()
        while node is not None and span_key(node) not in seen:
            seen.add(span_key(node))
            att.critical_path.append(
                (str(node["name"]), node["end"] - node["start"])
            )
            kids = children.get(span_key(node))
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
    totals = (
        f"Totals: span self-time {_seconds(total)} s over wall "
        f"{_seconds(att.wall_seconds)} s"
    )
    excess = total - att.wall_seconds
    if excess > 0:
        # Spans on different threads overlap in time; in an executor
        # trace those are the windows stage A decodes while stage B
        # ships an earlier one.
        source = "stage-A overlap" if "aggregate" in att.stages else "overlap"
        totals += f" (the {_seconds(excess)} s excess is {source})"
    parts.append(totals)
    if att.slowest:
        rows = [[str(ident), _seconds(seconds)] for ident, seconds in att.slowest]
        parts.append(
            f"Slowest {att.slowest_span} spans\n"
            + format_table([_RANKED[att.slowest_span], "seconds"], rows)
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
