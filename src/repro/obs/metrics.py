"""Metrics registry: counters, gauges, fixed-bucket histograms, merge.

The registry is the numeric half of the telemetry layer (the tracer is
the temporal half).  Three metric types, all supporting labels
(``counter.inc(5, scope="cross", rack=2)``):

- :class:`Counter` — monotonically increasing totals (bytes shipped,
  kernel dispatches, retries);
- :class:`Gauge` — last-written values (makespan of the latest run);
- :class:`Histogram` — fixed-bucket distributions with quantile
  estimates (racks accessed per stripe, per-stripe repair seconds).

Registries serialise to plain dicts (:meth:`MetricsRegistry.snapshot`)
and **merge deterministically** (:meth:`MetricsRegistry.merge`): the
experiment runner gives each run a fresh registry and folds the
snapshots in run order.

Instrumented hot paths use the *current* registry
(:func:`current_registry`), a process-global slot installed by
:func:`telemetry_scope`.  When no scope is active the slot is ``None``
and instrumentation reduces to one global load and an ``is None``
check — the "disabled" cost the kernel bench bounds at <5%.  The
mutators (``inc``, ``set``, ``add``, ``observe``, metric creation) share
one lock, so two threads may record into one registry at once.

:class:`~repro.cache.BoundedCache` instances constructed with a
``name`` self-register here (:func:`register_cache`, weakly) so cache
effectiveness shows up in ``repro-car metrics`` without call-site
changes.
"""

from __future__ import annotations

import json
import math
import threading
import weakref
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_registry",
    "default_registry",
    "telemetry_scope",
    "register_cache",
    "cache_stats",
    "DEFAULT_BUCKETS",
    "COUNT_BUCKETS",
]

#: Default histogram bucket upper bounds — spans sub-millisecond kernel
#: times through multi-second recoveries and small integer counts alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, math.inf,
)

#: Bucket preset for small integer counts (racks accessed, retries):
#: exact through 8, coarser beyond.
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 64, math.inf,
)

_EMPTY: tuple = ()

#: Held by every metric mutator: a repair's stage A counts GF kernel
#: dispatches from its worker thread while stage B counts stripes.
_LOCK = threading.Lock()


def _label_key(labels: dict) -> tuple:
    if not labels:
        return _EMPTY
    return tuple(sorted(labels.items()))


def _key_labels(key: tuple) -> dict:
    return dict(key)


class Counter:
    """A monotonically increasing metric, one value per label set."""

    kind = "counter"
    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[tuple, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name}: negative increment {amount}"
            )
        key = _label_key(labels)
        with _LOCK:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        """Current value of one labelled series (0 if never touched)."""
        return self._series.get(_label_key(labels), 0)

    @property
    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._series.values())

    def _to_series(self) -> list[dict]:
        return [
            {"labels": _key_labels(k), "value": v}
            for k, v in sorted(self._series.items())
        ]

    def _merge_series(self, series: list[dict]) -> None:
        for s in series:
            key = _label_key(s["labels"])
            self._series[key] = self._series.get(key, 0) + s["value"]


class Gauge:
    """A last-written value, one per label set."""

    kind = "gauge"
    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        """Overwrite the labelled series."""
        key = _label_key(labels)
        with _LOCK:
            self._series[key] = value

    def add(self, amount: float, **labels) -> None:
        """Adjust the labelled series by ``amount`` (may be negative)."""
        key = _label_key(labels)
        with _LOCK:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        """Current value (0 if never written)."""
        return self._series.get(_label_key(labels), 0)

    def _to_series(self) -> list[dict]:
        return [
            {"labels": _key_labels(k), "value": v}
            for k, v in sorted(self._series.items())
        ]

    def _merge_series(self, series: list[dict]) -> None:
        # Merge order is run order, so "last write wins" is well defined.
        for s in series:
            self._series[_label_key(s["labels"])] = s["value"]


class Histogram:
    """Fixed-bucket distribution with counts, sum, and quantiles.

    Args:
        buckets: ascending upper bounds; a final ``+inf`` bound is
            appended if missing, so every observation lands somewhere.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "_series")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name}: buckets must be ascending, got {bounds}"
            )
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.name = name
        self.help = help
        self.buckets = bounds
        # label key -> [per-bucket counts, count, sum]
        self._series: dict[tuple, list] = {}

    def _state(self, key: tuple) -> list:
        state = self._series.get(key)
        if state is None:
            state = [[0] * len(self.buckets), 0, 0.0]
            self._series[key] = state
        return state

    def observe(self, value: float, n: int = 1, **labels) -> None:
        """Record ``n`` observations of ``value`` into its bucket."""
        key = _label_key(labels)
        with _LOCK:
            state = self._state(key)
            counts, _, _ = state
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += n
                    break
            state[1] += n
            state[2] += value * n

    def count(self, **labels) -> int:
        """Observations recorded for one label set."""
        state = self._series.get(_label_key(labels))
        return state[1] if state else 0

    def sum(self, **labels) -> float:
        """Sum of observations for one label set."""
        state = self._series.get(_label_key(labels))
        return state[2] if state else 0.0

    def mean(self, **labels) -> float:
        """Mean observation (0 when empty)."""
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def quantile(self, q: float, **labels) -> float:
        """Fixed-bucket quantile estimate: the bound of the bucket where
        the cumulative count first reaches ``q`` (finite buckets only —
        the overflow bucket reports the last finite bound)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        state = self._series.get(_label_key(labels))
        if not state or state[1] == 0:
            return 0.0
        counts, total, _ = state
        target = q * total
        cum = 0
        for i, bound in enumerate(self.buckets):
            cum += counts[i]
            if cum >= target and cum > 0:
                if math.isinf(bound):
                    return self.buckets[-2] if len(self.buckets) > 1 else 0.0
                return bound
        return self.buckets[-2] if len(self.buckets) > 1 else 0.0

    def _to_series(self) -> list[dict]:
        return [
            {
                "labels": _key_labels(k),
                "bucket_counts": list(counts),
                "count": count,
                "sum": total,
            }
            for k, (counts, count, total) in sorted(self._series.items())
        ]

    def _merge_series(self, series: list[dict]) -> None:
        for s in series:
            state = self._state(_label_key(s["labels"]))
            incoming = s["bucket_counts"]
            if len(incoming) != len(self.buckets):
                raise ConfigurationError(
                    f"histogram {self.name}: bucket layout mismatch "
                    f"({len(incoming)} vs {len(self.buckets)})"
                )
            for i, c in enumerate(incoming):
                state[0][i] += c
            state[1] += s["count"]
            state[2] += s["sum"]


class _NullMetric:
    """Accepts every metric operation and does nothing (disabled registry)."""

    __slots__ = ()
    kind = "null"
    name = help = ""
    buckets: tuple[float, ...] = (math.inf,)
    total = 0.0

    def inc(self, amount: float = 1, **labels) -> None: ...
    def set(self, value: float, **labels) -> None: ...
    def add(self, amount: float, **labels) -> None: ...
    def observe(self, value: float, n: int = 1, **labels) -> None: ...
    def value(self, **labels) -> float:
        return 0.0
    def count(self, **labels) -> int:
        return 0
    def sum(self, **labels) -> float:
        return 0.0
    def mean(self, **labels) -> float:
        return 0.0
    def quantile(self, q: float, **labels) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named metrics with get-or-create accessors and deterministic merge.

    Args:
        enabled: when False every accessor returns a shared no-op
            metric, so an explicitly disabled registry can be injected
            where a real one is expected at zero recording cost.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        if not self.enabled:
            return _NULL_METRIC
        metric = self._metrics.get(name)
        if metric is None:
            with _LOCK:
                metric = self._metrics.setdefault(
                    name, cls(name, help=help, **kwargs)
                )
        if not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram (buckets apply on first creation)."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    # -- serialisation / aggregation -----------------------------------

    def snapshot(self, include_caches: bool = False) -> dict:
        """JSON-ready state of every metric (sorted by name).

        Args:
            include_caches: add a ``"caches"`` section with the stats of
                every named :class:`~repro.cache.BoundedCache` alive in
                *this process* (see :func:`cache_stats`).  Cache stats
                are process-local truth, not mergeable run deltas, so
                they are excluded from per-run snapshots by default.
        """
        metrics = {}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            entry = {"kind": m.kind, "help": m.help, "series": m._to_series()}
            if isinstance(m, Histogram):
                entry["buckets"] = [
                    "inf" if math.isinf(b) else b for b in m.buckets
                ]
            metrics[name] = entry
        out = {"metrics": metrics}
        if include_caches:
            out["caches"] = cache_stats()
        return out

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        """Fold another registry (or a snapshot dict) into this one.

        Counters and histograms add; gauges take the incoming value
        (merge in run order for a deterministic aggregate).  Returns
        ``self`` so merges chain.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, entry in snap.get("metrics", {}).items():
            kind = entry["kind"]
            if kind == "counter":
                metric = self.counter(name, help=entry.get("help", ""))
            elif kind == "gauge":
                metric = self.gauge(name, help=entry.get("help", ""))
            elif kind == "histogram":
                buckets = tuple(
                    math.inf if b == "inf" else float(b)
                    for b in entry.get("buckets", [])
                ) or DEFAULT_BUCKETS
                metric = self.histogram(
                    name, help=entry.get("help", ""), buckets=buckets
                )
            else:
                raise ConfigurationError(
                    f"snapshot metric {name!r} has unknown kind {kind!r}"
                )
            if not isinstance(metric, _NullMetric):
                metric._merge_series(entry["series"])
        return self

    def write_json(self, path: str | Path, include_caches: bool = True) -> Path:
        """Persist a snapshot as pretty-printed JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.snapshot(include_caches=include_caches),
                       indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        return path


#: The process-global *current* registry; ``None`` = telemetry disabled.
#: Hot paths read this directly: one module-attribute load + ``is None``.
CURRENT: MetricsRegistry | None = None

_DEFAULT: MetricsRegistry | None = None


def current_registry() -> MetricsRegistry | None:
    """The active registry installed by :func:`telemetry_scope`, if any."""
    return CURRENT


def default_registry() -> MetricsRegistry:
    """The lazily created process-global default registry."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MetricsRegistry()
    return _DEFAULT


@contextmanager
def telemetry_scope(registry: MetricsRegistry | None = None):
    """Install ``registry`` (default: the process default) as current.

    Instrumented code inside the scope records into it; on exit the
    previous registry (usually ``None``) is restored.  Yields the
    installed registry.
    """
    global CURRENT
    registry = registry if registry is not None else default_registry()
    previous = CURRENT
    CURRENT = registry
    try:
        yield registry
    finally:
        CURRENT = previous


# -- named-cache registration ------------------------------------------

#: name -> weak refs of live BoundedCache instances carrying that name.
_CACHES: dict[str, list] = {}


def register_cache(name: str, cache: object) -> None:
    """Register a named cache for :func:`cache_stats` (held weakly).

    Called by :class:`repro.cache.BoundedCache` when constructed with a
    ``name``, and by every code's ``DecodeTable``; several instances
    may share one name (e.g. every ``RSCode``'s decode-matrix cache) and
    their stats aggregate.
    """
    refs = _CACHES.setdefault(name, [])
    refs.append(weakref.ref(cache))


def cache_stats() -> dict[str, dict]:
    """Aggregated hit/miss/eviction/size stats of every live named cache.

    Dead references are pruned as a side effect.  Stats are
    process-local: a worker process's caches are invisible here.
    """
    out: dict[str, dict] = {}
    for name in sorted(_CACHES):
        live = []
        stats = {
            "instances": 0, "hits": 0, "misses": 0, "evictions": 0,
            "entries": 0, "max_entries": 0,
        }
        for ref in _CACHES[name]:
            cache = ref()
            if cache is None:
                continue
            live.append(ref)
            stats["instances"] += 1
            stats["hits"] += cache.hits
            stats["misses"] += cache.misses
            stats["evictions"] += getattr(cache, "evictions", 0)
            stats["entries"] += len(cache)
            stats["max_entries"] += cache.maxsize
        _CACHES[name] = live
        if not live:
            continue
        lookups = stats["hits"] + stats["misses"]
        stats["hit_rate"] = stats["hits"] / lookups if lookups else 0.0
        out[name] = stats
    return out
