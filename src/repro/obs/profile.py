"""Background resource profiling: RSS, CPU time, GC pressure over a run.

A :class:`ResourceSampler` is a daemon thread that samples the
coordinator process at a fixed interval while a recovery or experiment
batch runs:

- resident set size (``/proc/self/statm`` where available, with a
  ``ru_maxrss`` fallback so the sampler stays zero-dependency);
- cumulative user+system CPU seconds (``os.times``);
- cumulative garbage collections per generation (``gc.get_stats``).

Samples are plain dicts (JSONL-ready, like trace records) and the
summary folds into a :class:`~repro.obs.metrics.MetricsRegistry` as
gauges (:meth:`ResourceSampler.merge_into`, after the sampled work
finishes).

Attachment points: ``PlanExecutor(profiler=...)`` brackets
``execute`` (and ``RobustExecutor.run``) with start/stop, and
``ExperimentRunner(telemetry=dir)`` profiles the whole batch into
``dir/profile.jsonl`` plus ``profile.*`` gauges in ``metrics.json``.
With no profiler attached the cost is one ``is None`` check per
*call*, not per stripe — telemetry off stays free.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["ResourceSampler", "current_rss_kib", "profile_scope"]

_PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024 if hasattr(os, "sysconf") else 4


def current_rss_kib() -> int:
    """This process's resident set size in KiB.

    Reads ``/proc/self/statm`` (current RSS) where it exists; falls
    back to ``resource.ru_maxrss`` (peak RSS — monotone, but the best
    portable signal) elsewhere.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_KIB
    except (OSError, IndexError, ValueError):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def _gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


class ResourceSampler:
    """Samples process resources on a background thread.

    Args:
        interval: seconds between samples (the first sample is taken
            synchronously at :meth:`start`, the last at :meth:`stop`,
            so even a run shorter than one interval yields two).
        clock: timestamp source for the ``t`` field of each sample
            (defaults to ``time.perf_counter`` — the tracer's clock, so
            samples land on the same axis as spans).

    A sampler is restartable: ``PlanExecutor`` brackets *each*
    ``execute`` / ``RobustExecutor.run`` call with start/stop, so one
    sampler attached to a reused executor accumulates samples across
    calls.  ``start`` while already running raises; ``stop`` when not
    running is a no-op.
    """

    def __init__(self, interval: float = 0.05, clock=time.perf_counter) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.clock = clock
        self.samples: list[dict] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ResourceSampler":
        """Take the first sample and launch the sampling thread."""
        if self._thread is not None:
            raise RuntimeError("ResourceSampler already running")
        self._stop.clear()
        self._sample()
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take the final sample (no-op if stopped)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        self._sample()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        self.samples.append(
            {
                "type": "resource",
                "t": self.clock(),
                "rss_kib": current_rss_kib(),
                "cpu_seconds": _cpu_seconds(),
                "gc_collections": _gc_collections(),
            }
        )

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Peak/delta summary over the recorded samples."""
        if not self.samples:
            return {
                "samples": 0,
                "peak_rss_kib": 0,
                "cpu_seconds": 0.0,
                "gc_collections": 0,
                "duration_seconds": 0.0,
            }
        first, last = self.samples[0], self.samples[-1]
        return {
            "samples": len(self.samples),
            "peak_rss_kib": max(s["rss_kib"] for s in self.samples),
            "cpu_seconds": last["cpu_seconds"] - first["cpu_seconds"],
            "gc_collections": last["gc_collections"]
            - first["gc_collections"],
            "duration_seconds": last["t"] - first["t"],
        }

    def merge_into(self, registry) -> dict:
        """Write the summary into ``registry`` as ``profile.*`` gauges.

        Gauges, deliberately: the sampler describes *this coordinator
        process*, so on merge the coordinator's last write wins and the
        aggregate snapshot is worker-count invariant.  Returns the
        summary it wrote.
        """
        summary = self.summary()
        registry.gauge(
            "profile.peak_rss_kib", help="peak coordinator RSS while sampled"
        ).set(summary["peak_rss_kib"])
        registry.gauge(
            "profile.cpu_seconds", help="coordinator CPU time while sampled"
        ).set(summary["cpu_seconds"])
        registry.gauge(
            "profile.gc_collections", help="GC collections while sampled"
        ).set(summary["gc_collections"])
        registry.gauge(
            "profile.samples", help="resource samples recorded"
        ).set(summary["samples"])
        return summary

    def write_jsonl(self, path: str | Path) -> Path:
        """Persist every sample as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sample in self.samples:
                fh.write(json.dumps(sample, sort_keys=True) + "\n")
        return path


@contextmanager
def profile_scope(
    registry=None, interval: float = 0.05, path: str | Path | None = None
):
    """Sample for the duration of a block; optionally persist/merge.

    Args:
        registry: when given, :meth:`ResourceSampler.merge_into` it on
            exit.
        interval: sampling interval in seconds.
        path: when given, write ``profile.jsonl`` samples there on exit.

    Yields:
        The running :class:`ResourceSampler`.
    """
    sampler = ResourceSampler(interval=interval)
    sampler.start()
    try:
        yield sampler
    finally:
        sampler.stop()
        if registry is not None:
            sampler.merge_into(registry)
        if path is not None:
            sampler.write_jsonl(path)
