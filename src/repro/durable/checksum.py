"""End-to-end chunk integrity: checksums and journal-safe payloads.

A receipt is checksummed only where it can differ from what was sent
(CRC32, the same zero-dependency choice HDFS made for its block
checksums).  The decode runs in stage A from the store, never from a
received buffer.  When an in-flight corruption fault fires, the
robust executor delivers a corrupted copy, checksums it against the
sender's bytes, and retransmits or escalates on a mismatch, which turns
silent in-flight corruption into a retryable fault and keeps the
stripe from being recorded or committed.  A clean receipt is the
sender's own buffer and is counted as verified without a checksum.

The same checksum covers journal commit payloads: :func:`encode_payload`
checksums a recovered chunk and hands the journal a byte view of it to
write raw.  A journal read back names each payload by where it sits
(:class:`StoredPayload`) and leaves the bytes on disk;
:func:`decode_payload` reads them then, into one fresh buffer, and
re-verifies them on every read, so a resumed session either replays
byte-identical chunks or fails loudly.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import JournalError

__all__ = [
    "chunk_checksum", "encode_payload", "decode_payload", "StoredPayload",
]


def chunk_checksum(buf: np.ndarray | bytes | bytearray | memoryview) -> int:
    """CRC32 of a buffer's bytes (dtype-agnostic, deterministic).

    Accepts any contiguous numpy array or bytes-like object; the
    checksum is over the raw byte content, so a buffer survives an
    encode/decode round trip with the same checksum.
    """
    if isinstance(buf, np.ndarray):
        buf = np.ascontiguousarray(buf)
    return zlib.crc32(buf) & 0xFFFFFFFF


def encode_payload(buf: np.ndarray) -> dict:
    """Describe a chunk buffer for a journal commit record.

    Returns:
        ``payload`` — a zero-copy byte view of the (contiguous) buffer,
        which the journal writes raw after the record's JSON line —
        plus the JSON-ready ``dtype`` and the CRC32 ``checksum`` the
        decoder verifies.
    """
    data = np.ascontiguousarray(buf)
    return {
        "payload": memoryview(data).cast("B"),
        "dtype": str(data.dtype),
        "checksum": chunk_checksum(data),
    }


@dataclass(frozen=True, eq=False)
class StoredPayload:
    """Where a commit's payload sits in its journal file.

    A journal read back holds this in place of the bytes, which stay on
    disk until :meth:`read` fetches them.  Two payloads are equal when
    their bytes are, wherever they sit, as the in-memory byte views they
    stand for were; comparing reads both.
    """

    path: Path
    offset: int
    nbytes: int

    __hash__ = None  # equal by content, which may change on disk

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoredPayload):
            return NotImplemented
        return self.nbytes == other.nbytes and bool(
            np.array_equal(self.read(), other.read())
        )

    def read(self) -> np.ndarray:
        """The payload's bytes, in one fresh writable ``uint8`` buffer.

        Raises:
            JournalError: if the file is gone or now ends before the
                payload does (truncated since it was scanned).
        """
        buf = np.empty(self.nbytes, dtype=np.uint8)
        try:
            fd = os.open(self.path, os.O_RDONLY)
            try:
                got = 0
                while got < self.nbytes:
                    n = os.preadv(fd, [buf[got:]], self.offset + got)
                    if n == 0:
                        raise JournalError(
                            f"{self.path}: the {self.nbytes}-byte commit "
                            f"payload at byte offset {self.offset} runs past "
                            "the end of the file (truncated since it was "
                            "scanned)"
                        )
                    got += n
            finally:
                os.close(fd)
        except OSError as exc:
            raise JournalError(
                f"{self.path}: cannot read the commit payload at byte offset "
                f"{self.offset}: {exc}"
            ) from exc
        return buf


def decode_payload(record: dict) -> np.ndarray:
    """Rebuild a chunk buffer from a journal commit record, verified.

    Returns a writable array with a buffer of its own: a payload still
    on disk is read straight into it and verified on this read, whatever
    an earlier read found; an in-memory payload is copied into it.

    Raises:
        JournalError: if the record is malformed, its payload can no
            longer be read, or the payload's bytes no longer match the
            recorded checksum (journal corruption).
    """
    try:
        dtype = np.dtype(record["dtype"])
        expected = record["checksum"]
        payload = record["payload"]
        if isinstance(payload, StoredPayload):
            raw = payload.read()
        else:
            raw = bytearray(memoryview(payload))
        chunk = np.frombuffer(raw, dtype=dtype)
    except (KeyError, ValueError, TypeError) as exc:
        raise JournalError(f"malformed commit payload: {exc}") from exc
    computed = chunk_checksum(raw)
    if computed != expected:
        raise JournalError(
            f"commit payload checksum mismatch: stored {expected}, "
            f"computed {computed}"
        )
    return chunk

