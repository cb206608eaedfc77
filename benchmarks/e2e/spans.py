"""The harness's own in-memory span recorder.

Kept apart from ``repro.obs`` on purpose: a later change to the
program's tracer must not be able to move the instrument that judges
it.  Spans are (name, start, end, parent, rep) tuples held in a list
and written once, at exit, as JSON lines.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Recorder:
    """Records nested spans; ``enabled=False`` makes ``span`` a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.rep: int | str | None = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rep": self.rep,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0 if none ran)."""
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def self_share(self, name: str) -> float:
        """Share of the ``name`` spans' time not covered by child spans."""
        total = covered = 0.0
        by_parent: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                by_parent[s["parent"]] = (
                    by_parent.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        for s in self.spans:
            if s["name"] == name:
                total += s["end"] - s["start"]
                covered += by_parent.get(s["id"], 0.0)
        return (total - covered) / total if total else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
