"""Shared-memory chunk stores: zero-copy data for worker processes.

The parallel drivers fan work out over a :class:`ProcessPoolExecutor`;
without help, every task that touches chunk bytes pickles them across
the process boundary — at million-stripe scale the serialisation alone
dwarfs the GF arithmetic.  :class:`SharedChunkStore` instead places the
whole chunk array in one ``multiprocessing.shared_memory`` segment:

- the parent calls :meth:`SharedChunkStore.from_datastore` once, copying
  the :class:`~repro.cluster.state.DataStore` into the segment;
- workers receive the tiny picklable :class:`ShmHandle` and call
  :meth:`SharedChunkStore.attach`, mapping the same physical pages
  (zero-copy — no bytes cross the pipe);
- :meth:`SharedChunkStore.store` wraps the mapping in a read-only
  :class:`ShmDataStore` that satisfies the executor's DataStore
  interface (``chunk`` / ``matches`` / ``chunk_size`` / ``num_stripes``).

Lifecycle is explicit because shared memory outlives processes: every
attachment must :meth:`~SharedChunkStore.close` (detach) and exactly one
owner must :meth:`~SharedChunkStore.unlink` (destroy).  The creator's
context manager does both; attached stores only detach.  A finalizer
backstops the creator so an exception cannot leak the segment.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ConfigurationError, UnknownChunkError

__all__ = ["ShmHandle", "ShmDataStore", "SharedChunkStore"]


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Opt an *attached* segment out of the resource tracker.

    Each process's resource tracker unlinks segments it believes leaked
    at interpreter exit.  An attaching worker does not own the segment —
    if its tracker unlinks it, the parent (and every sibling) loses the
    data mid-run.  Only the creator keeps tracker registration.

    Under the ``fork`` start method workers inherit the parent's tracker
    process, so attach-side registrations are harmless (the creator's
    ``unlink`` clears them) and unregistering here would race siblings;
    only spawned/forkserver workers — which run their *own* tracker —
    must opt out.
    """
    try:  # pragma: no cover - depends on interpreter internals
        import multiprocessing
        from multiprocessing import resource_tracker

        if multiprocessing.get_start_method(allow_none=True) == "fork":
            return
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


@dataclass(frozen=True)
class ShmHandle:
    """Everything a worker needs to map a shared chunk store.

    Attributes:
        name: the OS-level shared-memory segment name.
        num_stripes: stripes held.
        chunks_per_stripe: chunks per stripe (``k + m``).
        chunk_size: bytes per chunk.
        dtype: numpy dtype name of the chunk buffers ("uint8"/"uint16").
    """

    name: str
    num_stripes: int
    chunks_per_stripe: int
    chunk_size: int
    dtype: str


class ShmDataStore:
    """Read-only DataStore facade over a shared ``(S, n, L)`` array.

    ``chunk`` returns zero-copy views into the shared segment, so a
    worker's decode reads the parent's pages directly.  The store is
    deliberately read-only: recovery never mutates helper data, and a
    read-only contract keeps concurrent windows race-free.
    """

    def __init__(self, array: np.ndarray, chunk_size: int) -> None:
        self._array = array
        self.chunk_size = chunk_size
        self.num_stripes = int(array.shape[0])
        self._array.setflags(write=False)

    def chunk(self, stripe_id: int, chunk_index: int) -> np.ndarray:
        """The stored buffer for one chunk (a view, never a copy).

        Raises:
            UnknownChunkError: if the chunk does not exist.
        """
        s, n, _ = self._array.shape
        if not (0 <= stripe_id < s and 0 <= chunk_index < n):
            raise UnknownChunkError((stripe_id, chunk_index))
        return self._array[stripe_id, chunk_index]

    def gather(self, stripe_ids, chunk_indices) -> list[np.ndarray]:
        """The buffers of many chunks: one view per (stripe, chunk) pair.

        Raises:
            UnknownChunkError: if any of the chunks does not exist.
        """
        return [self.chunk(s, c) for s, c in zip(stripe_ids, chunk_indices)]

    def matches(self, stripe_id: int, chunk_index: int, buf: np.ndarray) -> bool:
        """True iff ``buf`` equals the ground-truth chunk byte-for-byte."""
        return bool(np.array_equal(self.chunk(stripe_id, chunk_index), buf))


class SharedChunkStore:
    """One shared-memory segment holding every chunk of every stripe.

    Construct with :meth:`from_datastore` (creator) or :meth:`attach`
    (worker); never directly.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: ShmHandle,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._handle = handle
        self._owner = owner
        self._closed = False
        elements = handle.chunk_size // np.dtype(handle.dtype).itemsize
        self._array = np.ndarray(
            (handle.num_stripes, handle.chunks_per_stripe, elements),
            dtype=np.dtype(handle.dtype),
            buffer=shm.buf,
        )
        # Backstop: if the owner is garbage-collected without close(),
        # destroy the segment rather than leak it in /dev/shm.
        if owner:
            self._finalizer = weakref.finalize(
                self, _destroy_segment, shm
            )
        else:
            self._finalizer = None

    @classmethod
    def from_datastore(cls, data) -> "SharedChunkStore":
        """Copy a :class:`~repro.cluster.state.DataStore` into shared memory.

        Raises:
            ConfigurationError: if the store holds no stripes.
        """
        code = data.code
        n = code.k + code.m
        if data.num_stripes < 1:
            raise ConfigurationError("cannot share an empty data store")
        probe = data.chunk(0, 0)
        dtype = probe.dtype
        total = data.num_stripes * n * data.chunk_size
        shm = shared_memory.SharedMemory(create=True, size=total)
        handle = ShmHandle(
            name=shm.name,
            num_stripes=data.num_stripes,
            chunks_per_stripe=n,
            chunk_size=data.chunk_size,
            dtype=dtype.name,
        )
        store = cls(shm, handle, owner=True)
        for stripe in range(data.num_stripes):
            for idx in range(n):
                store._array[stripe, idx] = data.chunk(stripe, idx)
        store._array.setflags(write=False)
        return store

    @classmethod
    def attach(cls, handle: ShmHandle) -> "SharedChunkStore":
        """Map an existing segment from its handle (worker side)."""
        shm = shared_memory.SharedMemory(name=handle.name)
        _untrack(shm)
        return cls(shm, handle, owner=False)

    @property
    def handle(self) -> ShmHandle:
        """The picklable handle workers attach with."""
        return self._handle

    def store(self) -> ShmDataStore:
        """A DataStore-compatible read-only view of the segment."""
        return ShmDataStore(self._array, self._handle.chunk_size)

    def close(self) -> None:
        """Detach this process's mapping (safe to call twice).

        The creator's close also unlinks — one call tears the whole
        segment down, matching the context-manager contract.
        """
        if self._closed:
            return
        self._closed = True
        # Views into shm.buf must be dropped before close() or the
        # memoryview release raises BufferError.
        self._array = None
        if self._owner:
            if self._finalizer is not None:
                self._finalizer.detach()
            _destroy_segment(self._shm)
        else:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - views still alive
                pass  # the mapping unwinds at process exit

    # close() both detaches and (for the owner) unlinks; "unlink" is the
    # name callers reach for when tearing down, so alias it.
    unlink = close

    def __enter__(self) -> "SharedChunkStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - views still alive
        pass  # the mapping unwinds at process exit; unlink regardless
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
