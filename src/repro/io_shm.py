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
  :class:`~repro.cluster.state.DataStore` — the store already is one
  ``(stripes, n, elements)`` array, so the mapping is that array.

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

from repro.cluster.state import DataStore
from repro.gf.field import gf
from repro.gf.vector import buffer_dtype
from repro.errors import ConfigurationError

__all__ = ["ShmHandle", "SharedChunkStore"]


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
        code: the stripes' erasure code (fixes ``n`` and the dtype).
        num_stripes: stripes held.
        chunk_size: bytes per chunk.
    """

    name: str
    code: object
    num_stripes: int
    chunk_size: int


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
        dtype = buffer_dtype(gf(handle.code.w))
        self._array = np.ndarray(
            (
                handle.num_stripes, handle.code.n,
                handle.chunk_size // dtype.itemsize,
            ),
            dtype=dtype,
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
    def from_datastore(cls, data: DataStore) -> "SharedChunkStore":
        """Copy a :class:`~repro.cluster.state.DataStore` into shared
        memory: one copy of its array.

        Raises:
            ConfigurationError: if the store holds no stripes.
        """
        rows = data.rows()
        if data.num_stripes < 1:
            raise ConfigurationError("cannot share an empty data store")
        shm = shared_memory.SharedMemory(create=True, size=rows.nbytes)
        handle = ShmHandle(
            name=shm.name,
            code=data.code,
            num_stripes=data.num_stripes,
            chunk_size=data.chunk_size,
        )
        store = cls(shm, handle, owner=True)
        store._array.reshape(rows.shape)[:] = rows
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

    def store(self) -> DataStore:
        """A read-only :class:`~repro.cluster.state.DataStore` over the
        mapping (its chunks are views into the segment)."""
        array = self._array.view()
        array.setflags(write=False)
        return DataStore.over(self._handle.code, array)

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
