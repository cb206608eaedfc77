"""End-to-end chunk integrity: checksums and journal-safe payloads.

Every buffer that crosses the network — raw helper chunks and the rack
delegates' partially decoded aggregates alike — is checksummed at
creation and verified on receipt (CRC32, the same zero-dependency
choice HDFS made for its block checksums).  The executor refuses to
feed an unverified buffer to a decode, which is what turns silent
in-flight corruption into a retryable fault instead of wrong bytes on
the replacement node.

The same checksum covers journal commit payloads: :func:`encode_payload`
checksums a recovered chunk and hands the journal a byte view of it to
write raw, and :func:`decode_payload` re-verifies those bytes on resume,
so a resumed session either replays byte-identical chunks or fails
loudly.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import JournalError

__all__ = ["chunk_checksum", "encode_payload", "decode_payload"]


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


def _verified_payload(record: dict) -> np.ndarray:
    """A commit record's payload as a read-only array over the record's
    own bytes, after its CRC32 matched (no chunk-sized copy)."""
    try:
        raw = memoryview(record["payload"])
        chunk = np.frombuffer(raw, dtype=np.dtype(record["dtype"]))
        expected = record["checksum"]
    except (KeyError, ValueError, TypeError) as exc:
        raise JournalError(f"malformed commit payload: {exc}") from exc
    computed = chunk_checksum(raw)
    if computed != expected:
        raise JournalError(
            f"commit payload checksum mismatch: stored {expected}, "
            f"computed {computed}"
        )
    return chunk


def decode_payload(record: dict) -> np.ndarray:
    """Rebuild a chunk buffer from a journal commit record, verified.

    Returns a writable copy; the record's ``payload`` view is untouched.

    Raises:
        JournalError: if the record is malformed or the payload's bytes
            no longer match the recorded checksum (journal corruption).
    """
    return _verified_payload(record).copy()
