#!/usr/bin/env python3
"""Validate a telemetry trace against its schema.

Usage::

    PYTHONPATH=src python tools/validate_trace.py out/CFS1/trace.jsonl
    PYTHONPATH=src python tools/validate_trace.py out/trace.chrome.json
    PYTHONPATH=src python tools/validate_trace.py --chrome export.json

Handles both artifact forms:

- raw tracer JSONL (one span/event record per line) — validated with
  :func:`repro.obs.validate_events`;
- exported Chrome Trace Event JSON (``{"traceEvents": [...]}`` or the
  bare array form) — validated with
  :func:`repro.obs.validate_chrome_trace`.

The format is auto-detected from the first non-whitespace character
(``{``/``[`` on a parseable whole-file JSON document means a Chrome
trace; otherwise JSONL) and can be forced with ``--chrome`` /
``--jsonl``.

Exits 0 with a one-line summary when valid.  Exits 1 — with a clear
message, not a traceback — on an empty trace, a truncated/corrupt
line, or a schema violation.  Used by the CI telemetry and service
smoke jobs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

USAGE = "usage: validate_trace.py [--chrome|--jsonl] <trace file>"


def _validate_chrome(path: Path) -> int:
    from repro.obs import validate_chrome_trace

    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        print(f"{path}: INVALID — not parseable JSON ({exc})",
              file=sys.stderr)
        return 1
    try:
        count = validate_chrome_trace(payload)
    except ValueError as exc:
        print(f"{path}: INVALID — {exc}", file=sys.stderr)
        return 1
    if count == 0:
        print(f"{path}: INVALID — empty trace (no trace events)",
              file=sys.stderr)
        return 1
    print(f"{path}: OK — {count} Chrome trace events")
    return 0


def _validate_jsonl(path: Path) -> int:
    from repro.obs import validate_events

    events = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                print(
                    f"{path}: INVALID — line {lineno} is not parseable "
                    f"JSON (truncated trace?): {exc}",
                    file=sys.stderr,
                )
                return 1
    if not events:
        print(f"{path}: INVALID — empty trace (no records)",
              file=sys.stderr)
        return 1
    try:
        count = validate_events(events)
    except ValueError as exc:
        print(f"{path}: INVALID — {exc}", file=sys.stderr)
        return 1
    spans = sum(1 for e in events if e["type"] == "span")
    print(f"{path}: OK — {count} records ({spans} spans, "
          f"{count - spans} events)")
    return 0


def _looks_like_chrome(path: Path) -> bool:
    """True when the whole file is one JSON document (not JSONL).

    A single-line JSONL trace of exactly one record also parses whole —
    but a tracer record is an object with a ``type`` key, which a Chrome
    trace container never has at the top level.
    """
    try:
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return False
    if isinstance(payload, list):
        return True
    return isinstance(payload, dict) and "type" not in payload


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    force = None
    for flag, mode in (("--chrome", "chrome"), ("--jsonl", "jsonl")):
        if flag in args:
            args.remove(flag)
            force = mode
    if len(args) != 1:
        print(USAGE, file=sys.stderr)
        return 2
    path = Path(args[0])
    if not path.exists():
        print(f"{path}: INVALID — no such file", file=sys.stderr)
        return 1
    if path.stat().st_size == 0:
        print(f"{path}: INVALID — empty trace (zero-byte file)",
              file=sys.stderr)
        return 1
    if force == "chrome" or (force is None and _looks_like_chrome(path)):
        return _validate_chrome(path)
    return _validate_jsonl(path)


if __name__ == "__main__":
    sys.exit(main())
