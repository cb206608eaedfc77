"""Degraded-read latency: serving reads of lost chunks on demand.

Extension experiment (motivated by the paper's citation of
degraded-first MapReduce scheduling, Li et al. DSN'14): while a node is
down, client reads of its chunks must be served by on-the-fly
reconstruction.  Latency per request is what matters — not aggregate
traffic — so this experiment evaluates the *per-stripe* repair pipeline
of CAR versus RR under the serialized timing model and reports the
latency distribution (mean / p50 / p99 / max).

Expected shape: CAR's latency is lower and tighter — it moves fewer
chunks through the client's downlink and parallelises the gather across
racks.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.experiments.configs import MB, CFSConfig
from repro.experiments.runner import ExperimentRunner
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.planner import plan_recovery
from repro.sim.hardware import HardwareModel
from repro.sim.timing import StripeSerialTimingModel

__all__ = ["LatencyDistribution", "DegradedReadResult", "run_degraded_read"]


@dataclass(frozen=True)
class LatencyDistribution:
    """Summary of per-request degraded-read latencies (seconds)."""

    strategy: str
    mean: float
    p50: float
    p99: float
    worst: float
    samples: int


def _distribution(strategy: str, samples: list[float]) -> LatencyDistribution:
    ordered = sorted(samples)
    n = len(ordered)
    return LatencyDistribution(
        strategy=strategy,
        mean=statistics.fmean(ordered),
        p50=ordered[n // 2],
        p99=ordered[min(n - 1, int(0.99 * n))],
        worst=ordered[-1],
        samples=n,
    )


@dataclass(frozen=True)
class DegradedReadResult:
    """Latency distributions for one CFS setting."""

    config_name: str
    chunk_size: int
    distributions: dict[str, LatencyDistribution]

    def speedup(self) -> float:
        """RR mean latency divided by CAR mean latency."""
        return self.distributions["RR"].mean / self.distributions["CAR"].mean


def run_degraded_read(
    config: CFSConfig,
    runs: int = 5,
    chunk_size: int = 4 * MB,
    base_seed: int = 20160714,
    num_stripes: int | None = None,
) -> DegradedReadResult:
    """Measure degraded-read latency distributions on one CFS setting.

    Every affected stripe of every run contributes one latency sample
    per strategy (one degraded read = one stripe repair served alone).
    """
    runner = ExperimentRunner(
        config, runs=runs, base_seed=base_seed, num_stripes=num_stripes
    )
    results = runner.run_all({"CAR": lambda seed: CarStrategy(), "RR": RandomRecoveryStrategy})
    samples: dict[str, list[float]] = {"CAR": [], "RR": []}
    for r in results:
        model = StripeSerialTimingModel(
            r.state, hardware=HardwareModel(r.state.topology)
        )
        for name in ("CAR", "RR"):
            plan = plan_recovery(r.state, r.event, r.solutions[name])
            timing = model.evaluate(plan, chunk_size)
            samples[name].extend(s.total for s in timing.stripes)
    return DegradedReadResult(
        config_name=config.name,
        chunk_size=chunk_size,
        distributions={
            name: _distribution(name, vals) for name, vals in samples.items()
        },
    )
