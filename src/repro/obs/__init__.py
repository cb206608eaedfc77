"""Unified telemetry: span tracing, metrics, and profiling hooks.

The observability layer correlates the repo's previously disjoint
signal sources — traffic reports, fault logs, cache counters — per
stripe, per rack, and per run:

- :mod:`repro.obs.tracer` — zero-dependency span tracer (parent/child
  nesting, injected clock, structured JSONL events);
- :mod:`repro.obs.metrics` — Counter/Gauge/Histogram registry with
  labels, deterministic ``merge()`` of per-run snapshots, and
  named-cache registration;
- :mod:`repro.obs.report` — plain-text rendering behind the
  ``repro-car trace`` / ``repro-car metrics`` subcommands;
- :mod:`repro.obs.export` — Chrome Trace Event Format (Perfetto /
  ``chrome://tracing``) and collapsed-stack flamegraph export;
- :mod:`repro.obs.attribution` — per-stage time/bytes breakdown,
  slowest stripes, and critical path (``repro-car report``);
- :mod:`repro.obs.profile` — background RSS/CPU/GC sampler attachable
  to executors and experiment batches;
- :mod:`repro.obs.progress` — rate-limited heartbeats (JSONL + opt-in
  TTY status line) for streaming/durable recoveries;
- :mod:`repro.obs.regress` — benchmark-baseline comparison and the
  committed ``BENCH_HISTORY.jsonl`` trajectory.

Everything is no-op-cheap when disabled: instrumented paths default to
:data:`~repro.obs.tracer.NULL_TRACER` and check the current-registry
slot (one global load) before recording.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.attribution import (
    TraceAttribution,
    attribute,
    render_attribution,
    stage_of,
)
from repro.obs.export import (
    to_chrome_trace,
    to_collapsed_stacks,
    validate_chrome_trace,
    write_chrome_trace,
    write_collapsed_stacks,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    cache_stats,
    current_registry,
    default_registry,
    register_cache,
    telemetry_scope,
)
from repro.obs.profile import ResourceSampler, current_rss_kib, profile_scope
from repro.obs.progress import ProgressReporter, jsonl_sink
from repro.obs.report import render_metrics, render_trace
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    read_jsonl,
    validate_events,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "read_jsonl",
    "validate_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "COUNT_BUCKETS",
    "current_registry",
    "default_registry",
    "telemetry_scope",
    "register_cache",
    "cache_stats",
    "render_trace",
    "render_metrics",
    "TraceAttribution",
    "attribute",
    "render_attribution",
    "stage_of",
    "to_chrome_trace",
    "to_collapsed_stacks",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_collapsed_stacks",
    "ResourceSampler",
    "current_rss_kib",
    "profile_scope",
    "ProgressReporter",
    "jsonl_sink",
]
