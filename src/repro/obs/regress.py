"""Benchmark regression detection against committed baselines.

The repo commits pytest-benchmark artifacts (``BENCH_kernels.json``,
``BENCH_durable.json``, ``BENCH_stream.json``, ``BENCH_regen.json``)
but until now nothing *read* them — a PR could halve streaming
throughput and CI would stay green.  This module is the read side:

- :func:`load_bench` normalises a pytest-benchmark JSON file into
  ``{bench name: {mean_seconds, extra}}``, keeping the numeric
  ``extra_info`` figures the stream bench publishes (stripes/s, peak
  allocation, RSS);
- :func:`compare` diffs a fresh run against a baseline with a
  configurable tolerance, direction-aware per metric — wall-time and
  byte metrics regress *upward*, throughput/speedup metrics regress
  *downward* — and reports regressions, improvements, and coverage
  gaps (benches present on only one side);
- :func:`history_entry` / :func:`append_history` maintain
  ``BENCH_HISTORY.jsonl``, the committed PR-over-PR trajectory (one
  compact JSON line per suite per recording).

``tools/bench_compare.py`` wraps this as a CLI.  Retired: no CI job or
workflow runs it any more — performance is measured by
``benchmarks/e2e`` — and the module goes with its test file
(``PENDING_DELETION`` in ``tests/test_package.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "BenchDelta",
    "ComparisonReport",
    "load_bench",
    "compare",
    "render_comparison",
    "history_entry",
    "append_history",
]

#: Metric-name predicates: metrics where *larger* is better.
_HIGHER_SUFFIXES = ("_per_second",)
_HIGHER_MARKERS = ("speedup", "hit_rate", "ratio_eager_over_streaming")
#: extra_info metrics where *smaller* is better (bytes, memory, time).
_LOWER_SUFFIXES = ("_bytes", "_kib", "_seconds")


def metric_direction(name: str) -> str | None:
    """``"higher"`` / ``"lower"`` is-better for a metric name, or None.

    None means the metric is informational (configuration echoes like
    ``num_stripes`` or ``window``) and is not compared.
    """
    if name == "mean_seconds" or name.endswith(_LOWER_SUFFIXES):
        return "lower"
    if name.endswith(_HIGHER_SUFFIXES) or any(
        marker in name for marker in _HIGHER_MARKERS
    ):
        return "higher"
    return None


def load_bench(path: str | Path) -> dict:
    """Load a pytest-benchmark JSON artifact.

    Returns:
        ``{"suite": <file stem>, "benchmarks": {name: {"mean_seconds":
        float, "extra": {key: number}}}}`` — only numeric, non-bool
        ``extra_info`` values are kept.

    Raises:
        ValueError: not a pytest-benchmark artifact (no ``benchmarks``
            list) or a bench without stats.
    """
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    benches = payload.get("benchmarks")
    if not isinstance(benches, list):
        raise ValueError(
            f"{path}: not a pytest-benchmark artifact (no 'benchmarks' list)"
        )
    out: dict[str, dict] = {}
    for bench in benches:
        name = bench.get("name")
        stats = bench.get("stats") or {}
        if not isinstance(name, str) or "mean" not in stats:
            raise ValueError(f"{path}: malformed benchmark entry {name!r}")
        extra = {
            k: v
            for k, v in (bench.get("extra_info") or {}).items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        out[name] = {"mean_seconds": float(stats["mean"]), "extra": extra}
    return {"suite": path.stem, "benchmarks": out}


@dataclass(frozen=True)
class BenchDelta:
    """One (bench, metric) comparison.

    Attributes:
        bench / metric: what was compared.
        baseline / fresh: the two values.
        direction: ``"higher"`` or ``"lower"`` is better.
        regressed / improved: verdicts at the comparison's tolerance.
    """

    bench: str
    metric: str
    baseline: float
    fresh: float
    direction: str
    regressed: bool
    improved: bool

    @property
    def ratio(self) -> float:
        """fresh / baseline (inf when the baseline is zero)."""
        return self.fresh / self.baseline if self.baseline else float("inf")


@dataclass
class ComparisonReport:
    """Outcome of diffing a fresh bench run against a baseline."""

    suite: str
    tolerance: float
    deltas: list[BenchDelta] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    new: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def ok(self) -> bool:
        """True iff nothing regressed beyond tolerance."""
        return not self.regressions


def _delta(
    bench: str, metric: str, base: float, fresh: float, tolerance: float
) -> BenchDelta | None:
    direction = metric_direction(metric)
    if direction is None:
        return None
    if direction == "higher":
        regressed = fresh < base * (1 - tolerance) - 1e-12
        improved = fresh > base * (1 + tolerance) + 1e-12
    else:
        regressed = fresh > base * (1 + tolerance) + 1e-12
        improved = fresh < base * (1 - tolerance) - 1e-12
    return BenchDelta(
        bench=bench,
        metric=metric,
        baseline=base,
        fresh=fresh,
        direction=direction,
        regressed=regressed,
        improved=improved,
    )


def compare(
    baseline: dict, fresh: dict, tolerance: float = 0.25
) -> ComparisonReport:
    """Diff two :func:`load_bench` payloads.

    Args:
        baseline: the committed reference.
        fresh: the run under test.
        tolerance: allowed fractional drift per metric — a lower-is-
            better metric regresses above ``baseline * (1 + tolerance)``,
            a higher-is-better one below ``baseline * (1 - tolerance)``.
            CI uses a generous tolerance (runner hardware varies); the
            unit suite pins exact behaviour with small ones.

    Only benches present on both sides are compared; one-sided benches
    are reported (``missing`` / ``new``) but never fail the comparison
    — smoke runs legitimately execute a subset of a committed suite.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    base_benches = baseline["benchmarks"]
    fresh_benches = fresh["benchmarks"]
    report = ComparisonReport(
        suite=baseline.get("suite", "?"),
        tolerance=tolerance,
        missing=sorted(set(base_benches) - set(fresh_benches)),
        new=sorted(set(fresh_benches) - set(base_benches)),
    )
    for name in sorted(set(base_benches) & set(fresh_benches)):
        base, new = base_benches[name], fresh_benches[name]
        delta = _delta(
            name, "mean_seconds", base["mean_seconds"], new["mean_seconds"],
            tolerance,
        )
        if delta is not None:
            report.deltas.append(delta)
        shared = sorted(set(base["extra"]) & set(new["extra"]))
        for metric in shared:
            delta = _delta(
                name, metric, base["extra"][metric], new["extra"][metric],
                tolerance,
            )
            if delta is not None:
                report.deltas.append(delta)
    return report


def render_comparison(report: ComparisonReport) -> str:
    """Human-readable comparison table (regressions first)."""
    from repro.obs.report import format_table

    lines = [
        f"Bench comparison — suite {report.suite}, "
        f"tolerance ±{report.tolerance:.0%}"
    ]
    rows = [
        [
            d.bench,
            d.metric,
            f"{d.baseline:.6g}",
            f"{d.fresh:.6g}",
            f"{d.ratio:.3f}x",
            "REGRESSED" if d.regressed
            else ("improved" if d.improved else "ok"),
        ]
        for d in sorted(
            report.deltas, key=lambda d: (not d.regressed, d.bench, d.metric)
        )
    ]
    if rows:
        lines.append(
            format_table(
                ["bench", "metric", "baseline", "fresh", "ratio", "verdict"],
                rows,
            )
        )
    if report.missing:
        lines.append(
            "not run (baseline only): " + ", ".join(report.missing)
        )
    if report.new:
        lines.append("new (no baseline): " + ", ".join(report.new))
    lines.append(
        f"{len(report.regressions)} regression(s), "
        f"{len(report.improvements)} improvement(s), "
        f"{len(report.deltas)} metric(s) compared"
    )
    return "\n".join(lines)


def history_entry(loaded: dict, timestamp: str, label: str | None = None) -> dict:
    """One ``BENCH_HISTORY.jsonl`` line for a :func:`load_bench` payload.

    Args:
        loaded: a :func:`load_bench` result.
        timestamp: ISO date of the recording (caller-supplied so the
            trajectory is reproducible from committed artifacts).
        label: override the suite label (defaults to the file stem).
    """
    return {
        "timestamp": timestamp,
        "suite": label or loaded.get("suite", "?"),
        "benchmarks": {
            name: {"mean_seconds": entry["mean_seconds"], **entry["extra"]}
            for name, entry in sorted(loaded["benchmarks"].items())
        },
    }


def append_history(path: str | Path, entry: dict) -> Path:
    """Append one entry to the JSONL trajectory file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return path
