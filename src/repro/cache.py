"""Small bounded LRU cache used by the performance-critical layers.

The GF kernel layer caches per-constant product tables and the erasure
codes cache decode inverses (their repair vectors live in a
:class:`~repro.erasure.code.DecodeTable`).  An unbounded cache leaks
memory under an adversarial key stream, so :class:`BoundedCache` is a
plain least-recently-used mapping with an explicit entry bound and
hit/miss counters for observability.  Stage-A threads share
these caches, so one lock guards each cache's map and counters, and a
key missed by several threads at once is built by one of them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import TypeVar

from repro.errors import ConfigurationError
from repro.obs.metrics import register_cache

__all__ = ["BoundedCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class _Build:
    """One key's build in flight: threads that miss the key meanwhile
    wait on ``done``, then read ``value`` (still ``_MISSING`` if the
    builder raised)."""

    __slots__ = ("done", "value")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value = _MISSING


class BoundedCache:
    """A least-recently-used mapping with a fixed entry bound.

    Args:
        maxsize: maximum number of entries kept; the least recently
            *used* (read or written) entry is evicted first.
        name: optional telemetry name.  Named caches self-register
            (weakly) with :mod:`repro.obs.metrics` at construction, so
            their hit/miss/eviction stats appear in metrics snapshots
            and ``repro-car metrics`` without call-site changes; several
            instances may share one name and aggregate.

    The cache is deliberately minimal: ``get`` / ``put`` /
    :meth:`get_or_build`, plus ``hits``/``misses``/``evictions``
    counters so benches can assert cache effectiveness.  Every lookup,
    insert, eviction and size query holds the cache's lock, so
    concurrent threads lose no count and never see it past ``maxsize``;
    a builder runs outside the lock, and one key is built by one thread
    at a time.
    """

    def __init__(self, maxsize: int, name: str | None = None) -> None:
        if maxsize < 1:
            raise ConfigurationError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._building: dict = {}
        self._lock = threading.Lock()
        if name is not None:
            register_cache(name, self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: K, default: V | None = None) -> V | None:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._touch(key)
            self.hits += 1
            return value

    def _touch(self, key: Hashable) -> None:
        """Mark ``key`` most recently used (the caller holds the lock).

        The value already in hand is good even if the key has vanished
        from the map since the lookup, so a missing key is not an error.
        """
        try:
            self._data.move_to_end(key)
        except KeyError:
            pass

    def put(self, key: K, value: V) -> V:
        """Insert/refresh an entry, evicting the oldest past the bound."""
        with self._lock:
            self._insert(key, value)
        return value

    def _insert(self, key: Hashable, value) -> None:
        """:meth:`put` for a caller that holds the lock."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def get_or_build(self, key: K, builder: Callable[[], V]) -> V:
        """Return the cached value, building and inserting it on a miss.

        One build runs per key at a time: a thread that misses a key
        another thread is building waits for that build and counts a
        hit.  A builder that raises leaves nothing cached; a thread that
        waited on it then looks the key up again (and may build it).
        """
        while True:
            with self._lock:
                value = self._data.get(key, _MISSING)
                if value is not _MISSING:
                    self._touch(key)
                    self.hits += 1
                    return value
                build = self._building.get(key)
                if build is None:
                    build = self._building[key] = _Build()
                    self.misses += 1
                    break
            build.done.wait()
            if build.value is not _MISSING:
                with self._lock:
                    self.hits += 1
                return build.value
        try:
            value = builder()
        except BaseException:
            with self._lock:
                del self._building[key]
            build.done.set()
            raise
        with self._lock:
            self._insert(key, value)
            del self._building[key]
        build.value = value
        build.done.set()
        return value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._data.clear()

    def __repr__(self) -> str:
        label = f"{self.name!r}, " if self.name else ""
        return (
            f"BoundedCache({label}size={len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
