"""Zero-dependency span tracer emitting structured JSONL events.

A :class:`Tracer` records two kinds of structured events into one
ordered stream:

- **spans** — named intervals with parent/child nesting (``with
  tracer.span("exec.stripe", stripe_id=3):``), timestamped by an
  *injected clock* so the same tracer works for wall-clock sections
  (default ``time.perf_counter``) and for simulated time
  (:meth:`Tracer.emit_span` takes explicit start/end, which is how the
  recovery simulator reports per-stripe sim-time);
- **point events** — instantaneous facts (a pipeline-stage checkpoint,
  an injected fault, a recovery action) attached to the currently open
  span.

Every record is a plain dict that serialises to one JSON line; the
whole stream round-trips through :meth:`Tracer.write_jsonl` /
:func:`read_jsonl` and is checked by :func:`validate_events` (the same
validation CI runs on emitted artifacts).

Instrumented code paths take a tracer argument defaulting to
:data:`NULL_TRACER`, whose methods are no-ops and whose ``enabled``
flag lets hot paths skip even argument construction — telemetry off
must cost nothing measurable.
"""

from __future__ import annotations

import itertools
import json
import time
from collections.abc import Callable, Iterable
from pathlib import Path

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "read_jsonl",
    "validate_events",
]

#: Keys every record must carry, by record type.
_SPAN_KEYS = ("type", "name", "span_id", "parent_id", "start", "end", "attrs")
_EVENT_KEYS = ("type", "name", "span_id", "time", "attrs")


class _Span:
    """Context manager for one open span (created by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "start", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: int | None = None
        self.start = 0.0

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        t = self._tracer
        self.span_id = next(t._ids)
        self.parent_id = t._stack[-1] if t._stack else None
        t._stack.append(self.span_id)
        self.start = t.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t = self._tracer
        end = t.clock()
        t._stack.pop()
        if exc is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        t._append(
            {
                "type": "span",
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self.start,
                "end": end,
                "attrs": self.attrs,
            }
        )


class Tracer:
    """Records spans and point events as JSON-ready dicts.

    Args:
        clock: zero-argument callable returning monotonically
            non-decreasing floats.  Defaults to ``time.perf_counter``;
            tests inject a counter for determinism, and simulated-time
            callers bypass it entirely via :meth:`emit_span`.
        sink: optional callable invoked with each completed record
            (e.g. a streaming JSONL writer); records are always also
            kept in :attr:`events`.

    Not thread-safe; use one tracer per process/worker and merge the
    JSONL streams.
    """

    #: Hot paths check this before building event attributes.
    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sink: Callable[[dict], None] | None = None,
    ) -> None:
        self.clock = clock
        self.sink = sink
        self.events: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def _append(self, record: dict) -> None:
        self.events.append(record)
        if self.sink is not None:
            self.sink(record)

    def span(self, name: str, **attrs) -> _Span:
        """Open a nested span; use as a context manager."""
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous event under the currently open span."""
        self._append(
            {
                "type": "event",
                "name": name,
                "span_id": self._stack[-1] if self._stack else None,
                "time": self.clock(),
                "attrs": attrs,
            }
        )

    def emit_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: int | None = None,
        **attrs,
    ) -> int:
        """Record a completed span with explicit timestamps.

        This is the simulated-time entry point: the fluid simulator
        knows each task's start/finish in *sim* seconds and emits them
        directly instead of sampling the tracer clock.

        Returns:
            The new span's id (usable as ``parent_id`` for children).
        """
        span_id = next(self._ids)
        if parent_id is None and self._stack:
            parent_id = self._stack[-1]
        self._append(
            {
                "type": "span",
                "name": name,
                "span_id": span_id,
                "parent_id": parent_id,
                "start": start,
                "end": end,
                "attrs": attrs,
            }
        )
        return span_id

    def write_jsonl(self, path: str | Path) -> Path:
        """Write every recorded event as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.events:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path


class NullTracer:
    """A tracer whose every operation is a no-op (telemetry disabled)."""

    enabled = False
    events: list[dict] = []  # always empty; shared read-only sentinel

    class _NullSpan:
        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            return None

        def set(self, **attrs) -> None:
            return None

    _SPAN = _NullSpan()

    def span(self, name: str, **attrs) -> "_NullSpan":
        return self._SPAN

    def event(self, name: str, **attrs) -> None:
        return None

    def emit_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: int | None = None,
        **attrs,
    ) -> int:
        return 0


#: Shared no-op tracer; the default for every instrumented code path.
NULL_TRACER = NullTracer()


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a JSONL trace written by :meth:`Tracer.write_jsonl`."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _fail(index: int, message: str) -> None:
    raise ValueError(f"event {index}: {message}")


def validate_events(events: Iterable[dict]) -> int:
    """Validate a trace against the JSONL event schema.

    Checks every record is a span or event dict with the required keys
    and sane types/values (``end >= start``, int span ids, dict attrs).
    CI runs this on the telemetry artifact of the smoke experiment.

    Returns:
        The number of records checked.

    Raises:
        ValueError: naming the first offending record and why.
    """
    count = 0
    seen_ids: set[int] = set()
    for i, record in enumerate(events):
        if not isinstance(record, dict):
            _fail(i, f"not an object: {type(record).__name__}")
        rtype = record.get("type")
        if rtype == "span":
            for key in _SPAN_KEYS:
                if key not in record:
                    _fail(i, f"span missing key {key!r}")
            if not isinstance(record["span_id"], int):
                _fail(i, "span_id must be an int")
            parent = record["parent_id"]
            if parent is not None and not isinstance(parent, int):
                _fail(i, "parent_id must be an int or null")
            start, end = record["start"], record["end"]
            if not isinstance(start, (int, float)) or not isinstance(
                end, (int, float)
            ):
                _fail(i, "start/end must be numbers")
            if end < start:
                _fail(i, f"span ends ({end}) before it starts ({start})")
            seen_ids.add(record["span_id"])
        elif rtype == "event":
            for key in _EVENT_KEYS:
                if key not in record:
                    _fail(i, f"event missing key {key!r}")
            if not isinstance(record["time"], (int, float)):
                _fail(i, "time must be a number")
        else:
            _fail(i, f"unknown record type {rtype!r}")
        if not isinstance(record["name"], str) or not record["name"]:
            _fail(i, "name must be a non-empty string")
        if not isinstance(record["attrs"], dict):
            _fail(i, "attrs must be an object")
        count += 1
    return count
