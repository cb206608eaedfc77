"""Small bounded LRU cache used by the performance-critical layers.

The GF kernel layer caches per-constant product tables and the erasure
codes cache decode inverses and repair vectors.  All of those caches
used to be unbounded (a plain dict or ``functools.lru_cache``), which
both leaks memory under adversarial key streams and — in the
``lru_cache`` case — makes the owning object unpicklable, blocking the
process-pool experiment driver.  :class:`BoundedCache` is the shared
replacement: a plain least-recently-used mapping with an explicit entry
bound and hit/miss counters for observability.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import TypeVar

from repro.errors import ConfigurationError
from repro.obs.metrics import register_cache

__all__ = ["BoundedCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


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
    counters so benches can assert cache effectiveness.
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
        if name is not None:
            register_cache(name, self)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: K, default: V | None = None) -> V | None:
        """Return the cached value (refreshing recency) or ``default``."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._touch(key)
        self.hits += 1
        return value

    def _touch(self, key: Hashable) -> None:
        """Mark ``key`` most recently used.

        The GF kernels share module-level caches across threads; another
        thread's ``put`` may evict ``key`` between a lookup and this
        call.  The value already in hand is still good, so a vanished
        key is not an error.
        """
        try:
            self._data.move_to_end(key)
        except KeyError:
            pass

    def put(self, key: K, value: V) -> V:
        """Insert/refresh an entry, evicting the oldest past the bound."""
        self._data[key] = value
        self._touch(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
        return value

    def get_or_build(self, key: K, builder: Callable[[], V]) -> V:
        """Return the cached value, building and inserting it on a miss."""
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self._touch(key)
            self.hits += 1
            return value
        self.misses += 1
        return self.put(key, builder())

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    def __repr__(self) -> str:
        label = f"{self.name!r}, " if self.name else ""
        return (
            f"BoundedCache({label}size={len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
