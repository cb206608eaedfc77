"""Plain-text rendering of traces and metrics snapshots.

Backs the ``repro-car trace <trace.jsonl>`` and ``repro-car metrics
<metrics.json>`` subcommands: compact per-stage / per-rack summaries of
a recorded recovery, and a table view of a metrics snapshot including
named-cache effectiveness.  :func:`format_table` is the one aligned
text table every ``repro-car`` report prints through.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections import defaultdict
from collections.abc import Sequence

__all__ = ["format_table", "render_trace", "render_metrics"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table: two-space gutter, a dash rule."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _seconds(value: float) -> str:
    return f"{value:.6f}" if value < 10 else f"{value:.3f}"


def _attrs(record: dict) -> dict:
    """A record's attrs, tolerating hand-written/truncated traces."""
    attrs = record.get("attrs")
    return attrs if isinstance(attrs, dict) else {}


def render_trace(events: list[dict]) -> str:
    """Summarise a JSONL trace: spans, stages, racks, faults, sim time."""
    spans = [e for e in events if e.get("type") == "span"]
    points = [e for e in events if e.get("type") == "event"]
    stripes = {
        e["attrs"]["stripe_id"]
        for e in events
        if isinstance(e.get("attrs"), dict) and "stripe_id" in e["attrs"]
    }
    parts = [
        f"Trace: {len(events)} records ({len(spans)} spans, "
        f"{len(points)} events), {len(stripes)} stripes"
    ]

    if spans:
        by_name: dict[str, list[float]] = defaultdict(list)
        for s in spans:
            by_name[s["name"]].append(s["end"] - s["start"])
        rows = [
            [
                name,
                str(len(durs)),
                _seconds(sum(durs)),
                _seconds(sum(durs) / len(durs)),
                _seconds(max(durs)),
            ]
            for name, durs in sorted(by_name.items())
        ]
        parts.append(
            "Spans\n"
            + format_table(["name", "count", "total_s", "mean_s", "max_s"], rows)
        )

    stage_events = [p for p in points if p["name"] == "exec.stage"]
    if stage_events:
        by_stage: dict[str, TallyCounter] = defaultdict(TallyCounter)
        for p in stage_events:
            by_stage[_attrs(p).get("stage", "?")][_attrs(p).get("rack")] += 1
        rows = [
            [
                stage,
                str(sum(racks.values())),
                ",".join(str(r) for r in sorted(racks, key=str)),
            ]
            for stage, racks in sorted(by_stage.items())
        ]
        parts.append(
            "Pipeline stages (exec.stage)\n"
            + format_table(["stage", "count", "racks"], rows)
        )
        by_rack: TallyCounter = TallyCounter()
        for p in stage_events:
            by_rack[_attrs(p).get("rack")] += 1
        rows = [
            [str(rack), str(count)]
            for rack, count in sorted(by_rack.items(), key=lambda kv: str(kv[0]))
        ]
        parts.append(
            "Per-rack stage checkpoints\n" + format_table(["rack", "events"], rows)
        )

    notable = [
        p
        for p in points
        if p["name"].startswith(("fault.", "action.", "exec.degrade"))
    ]
    if notable:
        tally: TallyCounter = TallyCounter(p["name"] for p in notable)
        rows = [[name, str(n)] for name, n in sorted(tally.items())]
        parts.append("Faults & responses\n" + format_table(["event", "count"], rows))

    sim_spans = [s for s in spans if s["name"] == "sim.stripe"]
    if sim_spans:
        keys = ("read_s", "transfer_s", "aggregate_s", "decode_s", "fault_s")
        totals = {k: sum(_attrs(s).get(k, 0.0) for s in sim_spans) for k in keys}
        rows = [[k.removesuffix("_s"), _seconds(v)] for k, v in totals.items()]
        parts.append(
            f"Simulated time breakdown ({len(sim_spans)} stripes)\n"
            + format_table(["stage", "busy_s"], rows)
        )

    return "\n\n".join(parts)


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def render_metrics(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as text tables."""
    metrics = snapshot.get("metrics", {})
    parts = []
    for kind, title in (
        ("counter", "Counters"),
        ("gauge", "Gauges"),
    ):
        rows = []
        for name, entry in sorted(metrics.items()):
            if entry["kind"] != kind:
                continue
            for series in entry["series"]:
                rows.append(
                    [name, _fmt_labels(series["labels"]), f"{series['value']:g}"]
                )
        if rows:
            parts.append(f"{title}\n" + format_table(["name", "labels", "value"], rows))

    rows = []
    for name, entry in sorted(metrics.items()):
        if entry["kind"] != "histogram":
            continue
        for series in entry["series"]:
            count = series["count"]
            mean = series["sum"] / count if count else 0.0
            rows.append(
                [
                    name,
                    _fmt_labels(series["labels"]),
                    str(count),
                    f"{mean:.4g}",
                    f"{series['sum']:.4g}",
                ]
            )
    if rows:
        parts.append(
            "Histograms\n"
            + format_table(["name", "labels", "count", "mean", "sum"], rows)
        )

    caches = snapshot.get("caches", {})
    if caches:
        rows = [
            [
                name,
                str(s["instances"]),
                str(s["hits"]),
                str(s["misses"]),
                f"{s.get('hit_rate', 0.0):.1%}",
                f"{s['entries']}/{s['max_entries']}",
                str(s["evictions"]),
            ]
            for name, s in sorted(caches.items())
        ]
        parts.append(
            "Caches\n"
            + format_table(
                ["name", "inst", "hits", "misses", "hit_rate", "entries",
                 "evictions"],
                rows,
            )
        )

    return "\n\n".join(parts) if parts else "No metrics recorded."
