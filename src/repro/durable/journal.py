"""Write-ahead recovery journal: framed intent/commit records + replay.

A :class:`RecoveryJournal` is the durability contract of a recovery
session.  The executor appends, in order:

- one ``session`` header (how to rebuild the identical cluster state);
- per stripe, an ``intent`` record *before* any work, ``stage`` records
  as the pipeline progresses (chunk shipped, aggregate shipped, chunk
  decoded), and a ``commit`` record *after* the rebuilt chunk is
  durable — carrying the chunk's bytes, CRC32, and the traffic/compute
  the stripe actually consumed;
- a ``resume`` marker each time a later incarnation reopens the
  journal, and one ``end`` record when every stripe committed.

On disk every record is one sorted-key JSON line; a ``commit``'s line
carries ``"payload_bytes": N`` and is followed by the chunk's ``N`` raw
bytes and a closing ``\\n`` (the *commit frame*).  Each record is one
``os.writev`` straight from the rebuilt array's memory — nothing
chunk-sized is copied or text-encoded — and gets a strictly increasing
``seq``.  The executor calls :meth:`RecoveryJournal.sync` once per
window (group commit) and :meth:`RecoveryJournal.close` syncs too, so a
coordinator *process* crash loses at most the record being written and
a *machine* crash at most the window in flight.  :func:`read_journal`
tolerates exactly that: a torn tail — a final line that does not parse,
or a final commit frame that runs past end-of-file — is dropped (and
truncated away when the journal is reopened for appending); anything
else malformed is a :class:`JournalError`.  The reader walks frames by
length and never scans payload bytes, which may contain anything.

:class:`JournalReplay` is the read side — which stripes committed (and
their verified bytes), which are still pending, and how much cross-rack
traffic the dead incarnation paid for stripes it never committed.

Crash injection: constructing the journal with ``crash_after_records=n``
raises :class:`~repro.errors.CoordinatorCrashError` immediately after
the ``n``-th record this incarnation appends — the crash-at-every-point
harness sweeps ``n`` over every record boundary.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.durable.checksum import (
    _verified_payload,
    decode_payload,
    encode_payload,
)
from repro.errors import CoordinatorCrashError, JournalError
from repro.obs import metrics as _metrics

__all__ = [
    "RecoveryJournal",
    "JournalReplay",
    "read_journal",
    "validate_journal_records",
    "RECORD_TYPES",
]

#: Every record type a well-formed journal may contain.
RECORD_TYPES = frozenset(
    {"session", "intent", "stage", "commit", "resume", "end"}
)


class RecoveryJournal:
    """Append-only framed journal for one (possibly resumed) recovery.

    Args:
        path: journal file.  Created (truncated) unless ``append``.
        append: reopen an existing journal, continuing its ``seq``
            numbering — the resume path.  A torn tail left by the dead
            incarnation is truncated away first.
        crash_after_records: simulate a coordinator crash by raising
            :class:`CoordinatorCrashError` right after this incarnation
            appends its ``n``-th record (the record *is* durable; the
            crash lands on the boundary before the next one).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        append: bool = False,
        crash_after_records: int | None = None,
    ) -> None:
        if crash_after_records is not None and crash_after_records < 1:
            raise JournalError("crash_after_records must be >= 1 (or None)")
        self.path = Path(path)
        self.crash_after = crash_after_records
        self._append_mode = append
        self._fd: int | None = None
        self._seq = 0
        self._appended = 0  # records appended by this incarnation
        self._created = False  # truncate only on the very first open
        self._size = 0  # file offset just past the last whole record
        self._unsynced = False  # bytes written since the last sync()

    # -- lifecycle -------------------------------------------------------

    def _open(self) -> None:
        if self._fd is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        resuming = self._append_mode and not self._created
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        if resuming:
            records, self._size = _scan(self.path)
            if not records:
                raise JournalError(
                    f"cannot resume: {self.path} has no readable records"
                )
            self._seq = records[-1]["seq"]
        elif not self._created:
            flags |= os.O_TRUNC
        self._fd = os.open(self.path, flags, 0o644)
        if resuming:
            # Drop the dead incarnation's torn tail, or the first record
            # appended here would be glued onto it.
            os.ftruncate(self._fd, self._size)
        self._created = True

    def sync(self) -> None:
        """Force every record appended so far onto the disk.

        The executor calls this once per window, after the window's last
        commit: from then on those commits survive a machine crash.
        """
        if self._fd is not None and self._unsynced:
            os.fdatasync(self._fd)
            self._unsynced = False

    def close(self) -> None:
        """Sync and release the descriptor (appends reopen lazily)."""
        if self._fd is not None:
            try:
                self.sync()
            finally:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "RecoveryJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def records_written(self) -> int:
        """Records appended by this incarnation."""
        return self._appended

    def _write(self, bufs: list) -> None:
        """Append ``bufs`` as one record; all of it lands or none does.

        ``os.writev`` may write short (full disk, signal): keep writing
        the rest, and if the kernel refuses, cut the file back to the
        last whole record so it stays a valid journal.
        """
        written = 0
        try:
            while bufs:
                n = os.writev(self._fd, bufs)
                if n <= 0:
                    raise OSError("os.writev made no progress")
                written += n
                while bufs and n >= len(bufs[0]):
                    n -= len(bufs.pop(0))
                if n:
                    bufs[0] = memoryview(bufs[0])[n:]
        except OSError as exc:
            os.ftruncate(self._fd, self._size)
            raise JournalError(
                f"{self.path}: write failed at offset {self._size + written}"
                f" (truncated back to the last whole record, which ends at "
                f"{self._size}): {exc}"
            ) from exc
        self._size += written
        self._unsynced = True

    def _append(self, record: dict, payload: memoryview | None = None) -> None:
        self._open()
        record = {"seq": self._seq + 1, **record}
        line = (json.dumps(record, sort_keys=True) + "\n").encode("ascii")
        self._write([line] if payload is None else [line, payload, b"\n"])
        self._seq += 1
        self._appended += 1
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("journal.records").inc(rec=record["rec"])
        if self.crash_after is not None and self._appended >= self.crash_after:
            self.close()
            raise CoordinatorCrashError(
                f"injected coordinator crash after journal record "
                f"{self._seq}",
                records_written=self._seq,
            )

    # -- record writers --------------------------------------------------

    def begin_session(self, meta: dict) -> None:
        """Write the session header (must be the journal's first record)."""
        if self._seq or self._append_mode:
            raise JournalError("session header must be the first record")
        self._append({"rec": "session", **meta})

    def stripe_intent(
        self, stripe_id: int, *, aggregated: bool, lost_chunk: int
    ) -> None:
        """Declare a stripe's repair is starting (plan chosen)."""
        self._append(
            {
                "rec": "intent",
                "stripe_id": stripe_id,
                "aggregated": aggregated,
                "lost_chunk": lost_chunk,
            }
        )

    def stage(
        self,
        stripe_id: int,
        stage: str,
        *,
        node: int,
        rack: int,
        chunk: int | None = None,
        is_partial: bool = False,
    ) -> None:
        """Record one pipeline-stage checkpoint reached."""
        self._append(
            {
                "rec": "stage",
                "stripe_id": stripe_id,
                "stage": stage,
                "node": node,
                "rack": rack,
                "chunk": chunk,
                "is_partial": is_partial,
            }
        )

    def stripe_commit(
        self,
        stripe_id: int,
        chunk: np.ndarray,
        *,
        lost_chunk: int,
        ok: bool,
        cross_rack_bytes: int,
        intra_rack_bytes: int,
        bytes_computed_by_node: dict[int, int],
    ) -> None:
        """Commit one stripe: its rebuilt bytes and resource accounting."""
        encoded = encode_payload(chunk)
        payload = encoded.pop("payload")
        self._append(
            {
                "rec": "commit",
                "stripe_id": stripe_id,
                "lost_chunk": lost_chunk,
                "ok": ok,
                "cross_rack_bytes": cross_rack_bytes,
                "intra_rack_bytes": intra_rack_bytes,
                "bytes_computed_by_node": {
                    str(n): b for n, b in sorted(bytes_computed_by_node.items())
                },
                **encoded,
                "payload_bytes": len(payload),
            },
            payload,
        )

    def resume_marker(
        self, *, replayed: list[int], pending: list[int]
    ) -> None:
        """Record that a new incarnation took over the session."""
        self._append(
            {
                "rec": "resume",
                "replayed": sorted(replayed),
                "pending": sorted(pending),
            }
        )

    def end_session(self, *, committed: int) -> None:
        """Mark the session complete (every stripe committed)."""
        self._append({"rec": "end", "committed": committed})
        self.close()


def _parse_line(line: bytes) -> tuple[dict, int | None]:
    """One record's JSON line -> (record, payload length if a commit)."""
    record = json.loads(line)
    if not (isinstance(record, dict) and record.get("rec") == "commit"):
        return record, None
    nbytes = record.get("payload_bytes")
    if type(nbytes) is not int or nbytes < 0:
        raise ValueError(f"commit payload_bytes is {nbytes!r}")
    return record, nbytes


def _scan(path: Path) -> tuple[list[dict], int]:
    """Parse a journal file: its whole records, and the byte offset just
    past the last of them (where a reopening writer truncates to)."""
    if not path.exists():
        raise JournalError(f"no journal at {path}")
    data = path.read_bytes()
    view = memoryview(data)
    records: list[dict] = []
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline < 0:
            break  # torn final line: the crash ate its end
        try:
            record, nbytes = _parse_line(data[pos:newline])
        except ValueError as exc:
            if newline + 1 == len(data):
                break  # torn final line that happens to end in a newline
            raise JournalError(
                f"{path}: malformed record on line {len(records) + 1} "
                f"(byte offset {pos}): {exc}"
            ) from exc
        end = newline + 1
        if nbytes is not None:
            body, end = end, end + nbytes + 1
            if end > len(data):
                break  # torn final commit frame: the crash ate its payload
            if data[end - 1] != 0x0A:
                raise JournalError(
                    f"{path}: commit frame on line {len(records) + 1} "
                    f"(byte offset {pos}) is not closed {nbytes} bytes "
                    "after its header"
                )
            record["payload"] = view[body:end - 1]
        records.append(record)
        pos = end
    return records, pos


def read_journal(path: str | Path) -> list[dict]:
    """Load a journal's records, dropping a torn tail.

    Frames are walked by length: each record is one JSON line, and a
    commit's line is followed by ``payload_bytes`` raw bytes and a
    ``\\n``; payload bytes are never scanned.  A commit record comes back
    with ``"payload"`` set to a zero-copy view of those bytes (verified
    by :func:`validate_journal_records` and
    :meth:`JournalReplay.committed_chunk`, not here).  Line numbers in
    errors count records, one JSON line each.

    A coordinator that dies mid-write leaves at most one partial last
    record — a final line that does not parse or lacks its newline, or a
    final commit frame running past end-of-file; that is recoverable and
    silently dropped.  Anything malformed with more bytes after it means
    the file is not a journal.

    Raises:
        JournalError: on a malformed record that is not the tail.
    """
    return _scan(Path(path))[0]


def validate_journal_records(records: list[dict]) -> int:
    """Validate journal structure and integrity; return the record count.

    Checks: non-empty, ``session`` first (exactly once), contiguous
    1-based ``seq``, known record types with their required keys, every
    commit's payload bytes matching its recorded checksum, and intents
    preceding their stripe's commit.

    Raises:
        JournalError: naming the first offending record and why.
    """

    def fail(i: int, message: str) -> None:
        raise JournalError(f"record {i}: {message}")

    if not records:
        raise JournalError("journal is empty")
    required = {
        "session": (),
        "intent": ("stripe_id", "aggregated", "lost_chunk"),
        "stage": ("stripe_id", "stage", "node", "rack"),
        "commit": (
            "stripe_id", "lost_chunk", "ok", "payload", "payload_bytes",
            "dtype", "checksum",
            "cross_rack_bytes", "intra_rack_bytes", "bytes_computed_by_node",
        ),
        "resume": ("replayed", "pending"),
        "end": ("committed",),
    }
    intents: set[int] = set()
    committed: set[int] = set()
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            fail(i, f"not an object: {type(record).__name__}")
        if record.get("seq") != i + 1:
            fail(i, f"seq {record.get('seq')!r}, expected {i + 1}")
        rec = record.get("rec")
        if rec not in RECORD_TYPES:
            fail(i, f"unknown record type {rec!r}")
        if (rec == "session") != (i == 0):
            fail(i, "session header must appear exactly once, first")
        for key in required[rec]:
            if key not in record:
                fail(i, f"{rec} record missing key {key!r}")
        if rec == "intent":
            intents.add(record["stripe_id"])
        elif rec == "commit":
            if record["stripe_id"] not in intents:
                fail(i, f"commit for stripe {record['stripe_id']} "
                        "without a prior intent")
            try:
                _verified_payload(record)  # CRC in place, no copy
            except JournalError as exc:
                fail(i, str(exc))
            committed.add(record["stripe_id"])
        elif rec == "end":
            if record["committed"] != len(committed):
                fail(i, f"end claims {record['committed']} commits, "
                        f"journal holds {len(committed)}")
    return len(records)


@dataclass
class JournalReplay:
    """Read-side view of a journal: what committed, what is pending.

    Attributes:
        records: the journal's records, in ``seq`` order.
    """

    records: list[dict] = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "JournalReplay":
        """Read and structurally validate a journal file."""
        records = read_journal(path)
        validate_journal_records(records)
        return cls(records=records)

    @property
    def session(self) -> dict:
        """The session header record."""
        if not self.records or self.records[0].get("rec") != "session":
            raise JournalError("journal has no session header")
        return self.records[0]

    @property
    def committed(self) -> dict[int, dict]:
        """stripe_id -> its commit record (a stripe commits once)."""
        return {
            r["stripe_id"]: r for r in self.records if r["rec"] == "commit"
        }

    @property
    def pending(self) -> tuple[int, ...]:
        """Session stripes without a commit, in stripe order."""
        done = set(self.committed)
        return tuple(
            s for s in self.session.get("stripes", ()) if s not in done
        )

    @property
    def complete(self) -> bool:
        """True iff the session ended with every stripe committed."""
        return (
            bool(self.records)
            and self.records[-1].get("rec") == "end"
            and not self.pending
        )

    def committed_chunk(self, stripe_id: int) -> np.ndarray:
        """The committed stripe's rebuilt bytes, checksum-verified.

        Raises:
            JournalError: if the stripe has no commit or its payload
                fails verification.
        """
        record = self.committed.get(stripe_id)
        if record is None:
            raise JournalError(f"stripe {stripe_id} has no commit record")
        return decode_payload(record)

    @property
    def total_cross_transfers(self) -> int:
        """Every cross-rack payload any incarnation shipped.

        Each ``cross_transfer`` stage record marks one chunk-sized
        payload crossing the core — including shipments an aborted
        attempt wasted and a later incarnation repeated.  The resume
        traffic bound (uninterrupted transfers + at most the stripes in
        flight per crash) is asserted against exactly this count.
        """
        return sum(
            1
            for r in self.records
            if r["rec"] == "stage" and r["stage"] == "cross_transfer"
        )

    @property
    def uncommitted_cross_transfers(self) -> int:
        """Cross-rack flows logged for stripes that never committed."""
        done = set(self.committed)
        return sum(
            1
            for r in self.records
            if r["rec"] == "stage"
            and r["stage"] == "cross_transfer"
            and r["stripe_id"] not in done
        )
