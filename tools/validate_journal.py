#!/usr/bin/env python3
"""Validate a recovery write-ahead journal against its schema.

Usage::

    PYTHONPATH=src python tools/validate_journal.py out/journal.jsonl

Exits 0 and prints a summary when the journal is structurally sound
(contiguous sequence numbers, known record types, every commit payload
matching its checksum, intents before commits); exits 1 with the
failure otherwise.  Works on *crashed* journals too — a torn tail is
recoverable by design, and an incomplete journal is still valid as long
as every record it does contain checks out.  Used by the CI
crash-resume smoke job.

The summary's second line accounts for every byte of the file: control
bytes (each record's sorted-key JSON line and its newline, re-serialised
from the parsed record) plus, per commit, ``payload_bytes`` raw bytes
and the closing newline.  Bytes beyond that sum are the torn tail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: validate_journal.py <journal.jsonl>", file=sys.stderr)
        return 2
    from repro.durable.journal import (
        JournalReplay,
        read_journal,
        validate_journal_records,
    )
    from repro.errors import JournalError

    path = Path(args[0])
    try:
        records = read_journal(path)
        count = validate_journal_records(records)
    except (OSError, JournalError) as exc:
        print(f"{path}: INVALID — {exc}", file=sys.stderr)
        return 1
    replay = JournalReplay(records)
    status = "complete" if replay.complete else (
        f"crashed, {len(replay.pending)} stripes pending"
    )
    print(
        f"{path}: OK — {count} records, {len(replay.committed)} stripes "
        f"committed, {replay.total_cross_transfers} cross-rack transfers "
        f"({status})"
    )
    control = sum(
        len(json.dumps(
            {k: v for k, v in r.items() if k != "payload"}, sort_keys=True
        )) + 1
        for r in records
    )
    commits = [r for r in records if r["rec"] == "commit"]
    payload = sum(r["payload_bytes"] for r in commits)
    size = path.stat().st_size
    framed = control + payload + len(commits)
    torn = "" if size == framed else f" - {size - framed} torn-tail bytes"
    identity = f"file size{torn} == control bytes + Σ(payload_bytes + 1)"
    print(
        f"  {size} bytes: {control} control bytes, {payload} payload bytes "
        f"in {len(commits)} commits — {identity}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
